package wire

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"rpol/internal/gpu"
	"rpol/internal/netsim"
	"rpol/internal/obs"
	"rpol/internal/rpol"
	"rpol/internal/tensor"
)

// RetryPolicy bounds one logical request when the fabric may lose or delay
// messages: each attempt waits Timeout for the reply on the injected clock,
// failed attempts are retried with the timeout scaled by Backoff, and after
// Attempts exhausted attempts the call fails with an error wrapping
// rpol.ErrWorkerUnavailable so the manager classifies the worker as absent.
//
// Deadlines are measured exclusively on Clock — never the wall clock — so
// seeded runs replay identically: under the default obs.SimClock every
// reading advances logical time by one tick, which bounds the poll loop, and
// fabric-injected delays advance the same clock, consuming the deadline
// budget exactly as a slow network would.
type RetryPolicy struct {
	// Attempts is the maximum number of send attempts per call (default 3).
	Attempts int
	// Timeout is the first attempt's reply deadline (default 50ms of
	// logical time).
	Timeout time.Duration
	// Backoff multiplies the timeout after each failed attempt (default 2).
	Backoff float64
	// Clock supplies deadline readings (default: a fresh obs.SimClock).
	Clock obs.Clock
}

// normalized fills zero fields with the defaults above.
func (p RetryPolicy) normalized() RetryPolicy {
	if p.Attempts <= 0 {
		p.Attempts = 3
	}
	if p.Timeout <= 0 {
		p.Timeout = 50 * time.Millisecond
	}
	if p.Backoff < 1 {
		p.Backoff = 2
	}
	if p.Clock == nil {
		p.Clock = obs.NewSimClock(0)
	}
	return p
}

// ManagerPort is the manager's single hub endpoint, shared by all of its
// RemoteWorker proxies. The manager drives the protocol sequentially (one
// outstanding request at a time), so a simple matched request/response
// exchange suffices; an unexpected interleaved message is a protocol error.
//
// Without a RetryPolicy the port blocks forever on each reply (the historical
// behaviour, appropriate for a reliable fabric). With one, every request
// carries a fresh correlation Seq, replies are awaited against a
// logical-clock deadline, and stale replies to abandoned attempts are
// discarded instead of corrupting the next exchange.
type ManagerPort struct {
	ep     *netsim.TCPEndpoint
	obs    *obs.Observer
	policy *RetryPolicy
	seq    atomic.Uint64

	// encBuf is the reused message-encode buffer: the endpoint writes each
	// frame to its socket before Send returns, and the manager drives the
	// protocol sequentially, so one buffer serves all RemoteWorker proxies.
	encBuf []byte
}

// NewManagerPort wraps the manager's endpoint, already dialed into a hub.
func NewManagerPort(ep *netsim.TCPEndpoint) (*ManagerPort, error) {
	if ep == nil {
		return nil, errors.New("wire: nil endpoint")
	}
	return &ManagerPort{ep: ep}, nil
}

// SetObserver routes the port's delivery accounting through o: the
// net_retries_total and net_timeouts_total counters of the retrying
// exchange.
func (mp *ManagerPort) SetObserver(o *obs.Observer) { mp.obs = o }

// SetRetryPolicy enables deadline-bounded delivery with bounded retries. A
// nil policy restores the historical block-forever behaviour.
func (mp *ManagerPort) SetRetryPolicy(p *RetryPolicy) {
	if p == nil {
		mp.policy = nil
		return
	}
	norm := p.normalized()
	mp.policy = &norm
}

// call sends a request to the peer and waits for its reply of wantKind. The
// reply's payload aliases an endpoint frame: the caller decodes it, then
// hands it back with the endpoint's Release.
func (mp *ManagerPort) call(to, kind string, payload []byte, wantKind string) (netsim.Message, error) {
	if mp.policy != nil {
		return mp.callRetry(to, kind, payload, wantKind)
	}
	if err := mp.ep.Send(to, kind, payload); err != nil {
		return netsim.Message{}, fmt.Errorf("wire call %s/%s: %w", to, kind, err)
	}
	msg, err := mp.ep.Recv()
	if err != nil {
		return netsim.Message{}, fmt.Errorf("wire call %s/%s: %w", to, kind, err)
	}
	if msg.From != to {
		return netsim.Message{}, fmt.Errorf("wire call %s/%s: reply from %s: %w", to, kind, msg.From, ErrRemote)
	}
	return mp.reply(to, kind, msg, wantKind)
}

// reply checks the correlated reply msg to a kind request is of wantKind,
// turning a worker's error message into an error.
func (mp *ManagerPort) reply(to, kind string, msg netsim.Message, wantKind string) (netsim.Message, error) {
	if msg.Kind == KindError {
		return netsim.Message{}, fmt.Errorf("wire call %s/%s: %s: %w", to, kind, msg.Payload, ErrRemote)
	}
	if msg.Kind != wantKind {
		return netsim.Message{}, fmt.Errorf("wire call %s/%s: got kind %q: %w", to, kind, msg.Kind, ErrRemote)
	}
	return msg, nil
}

// callRetry is the deadline-bounded exchange: stamp the request with a fresh
// Seq, poll for the correlated reply until the logical deadline, and retry
// with backoff. Replies whose From or Seq don't match are stale responses to
// attempts this port already abandoned (the port runs one outstanding request
// at a time) and are discarded.
func (mp *ManagerPort) callRetry(to, kind string, payload []byte, wantKind string) (netsim.Message, error) {
	pol := *mp.policy
	seq := mp.seq.Add(1)
	timeout := pol.Timeout
	for attempt := 0; attempt < pol.Attempts; attempt++ {
		if attempt > 0 {
			mp.obs.Counter("net_retries_total").Inc()
		}
		if err := mp.ep.SendSeq(to, kind, seq, payload); err != nil {
			return netsim.Message{}, fmt.Errorf("wire call %s/%s: %w", to, kind, err)
		}
		deadline := pol.Clock.Now() + timeout.Nanoseconds()
		for pol.Clock.Now() < deadline {
			msg, ok := mp.ep.TryRecv()
			if !ok {
				// Yield so the endpoint's pump goroutine can make
				// progress; on the self-advancing SimClock every poll also
				// consumes a tick of the deadline, so the loop is bounded.
				runtime.Gosched()
				continue
			}
			if msg.From != to || msg.Seq != seq {
				mp.ep.Release(msg)
				continue // stale reply to an abandoned attempt
			}
			return mp.reply(to, kind, msg, wantKind)
		}
		mp.obs.Counter("net_timeouts_total").Inc()
		timeout = time.Duration(float64(timeout) * pol.Backoff)
	}
	return netsim.Message{}, fmt.Errorf("wire call %s/%s: no reply after %d attempts: %w",
		to, kind, pol.Attempts, rpol.ErrWorkerUnavailable)
}

// RemoteWorker satisfies rpol.Worker by proxying every interaction over the
// hub to a WorkerServer. The manager plugs RemoteWorkers into rpol.Manager
// unchanged. The vectors it decodes — a result's Update and each opened
// checkpoint, every opening into a vector of its own — are its own, valid
// until its next RunEpoch, which refills them.
type RemoteWorker struct {
	id      string
	profile gpu.Profile
	port    *ManagerPort

	// update is the last result's update; opened holds the vectors the
	// openings since the last RunEpoch were decoded into, and spare those of
	// earlier epochs, which later openings refill.
	update        tensor.Vector
	opened, spare []tensor.Vector
}

var _ rpol.Worker = (*RemoteWorker)(nil)

// NewRemoteWorker builds a proxy to the worker registered as id, with the
// hardware profile the worker declared at registration.
func NewRemoteWorker(id string, profile gpu.Profile, port *ManagerPort) (*RemoteWorker, error) {
	if port == nil {
		return nil, errors.New("wire: nil manager port")
	}
	if id == "" {
		return nil, errors.New("wire: empty worker id")
	}
	return &RemoteWorker{id: id, profile: profile, port: port}, nil
}

// ID returns the remote worker's identifier.
func (r *RemoteWorker) ID() string { return r.id }

// GPUProfile returns the hardware profile the worker registered.
func (r *RemoteWorker) GPUProfile() gpu.Profile { return r.profile }

// RunEpoch ships the task assignment and waits for the submission. It takes
// back every vector the previous epoch handed out, except one that is
// p.Global, which is only read.
func (r *RemoteWorker) RunEpoch(p rpol.TaskParams) (*rpol.EpochResult, error) {
	if tensor.SameStorage(r.update, p.Global) {
		r.update = nil
	}
	r.spare = append(r.spare, r.opened...)
	clear(r.opened)
	r.opened = r.opened[:0]
	r.spare = slices.DeleteFunc(r.spare, func(v tensor.Vector) bool { return tensor.SameStorage(v, p.Global) })
	payload, err := AppendTask(r.port.encBuf[:0], p)
	if err != nil {
		return nil, fmt.Errorf("wire remote %s: %w", r.id, err)
	}
	r.port.encBuf = payload
	reply, err := r.port.call(r.id, KindTask, payload, KindResult)
	if err != nil {
		return nil, fmt.Errorf("wire remote %s: %w", r.id, err)
	}
	result, err := decodeResult(reply.Payload, r.update)
	r.port.ep.Release(reply)
	if err != nil {
		return nil, fmt.Errorf("wire remote %s: %w", r.id, err)
	}
	r.update = result.Update
	if result.WorkerID != r.id {
		return nil, fmt.Errorf("wire remote %s: result claims %s: %w", r.id, result.WorkerID, ErrRemote)
	}
	return result, nil
}

// OpenCheckpoint requests one raw snapshot during verification.
func (r *RemoteWorker) OpenCheckpoint(idx int) (tensor.Vector, error) {
	payload := AppendOpenRequest(r.port.encBuf[:0], idx)
	r.port.encBuf = payload
	reply, err := r.port.call(r.id, KindOpenRequest, payload, KindOpenResponse)
	if err != nil {
		return nil, fmt.Errorf("wire remote %s: %w", r.id, err)
	}
	defer r.port.ep.Release(reply)
	resp, err := decodeOpenResponse(reply.Payload)
	if err != nil {
		return nil, fmt.Errorf("wire remote %s: %w", r.id, err)
	}
	if resp.Err != "" {
		return nil, fmt.Errorf("wire remote %s: %s: %w", r.id, resp.Err, ErrRemote)
	}
	var dst tensor.Vector
	if n := len(r.spare); n > 0 {
		dst = r.spare[n-1]
		r.spare[n-1], r.spare = nil, r.spare[:n-1]
	}
	weights, err := tensor.DecodeVectorInto(dst, resp.Weights)
	if err != nil {
		if dst != nil {
			r.spare = append(r.spare, dst)
		}
		return nil, fmt.Errorf("wire remote %s: %w", r.id, err)
	}
	r.opened = append(r.opened, weights)
	return weights, nil
}

// OpenProof pulls one Merkle inclusion proof during verification of a
// root-committed submission.
func (r *RemoteWorker) OpenProof(idx int) (rpol.LeafProof, error) {
	payload := AppendProofRequest(r.port.encBuf[:0], idx)
	r.port.encBuf = payload
	reply, err := r.port.call(r.id, KindProofRequest, payload, KindProofResponse)
	if err != nil {
		return rpol.LeafProof{}, fmt.Errorf("wire remote %s: %w", r.id, err)
	}
	resp, err := decodeProofResponse(reply.Payload)
	r.port.ep.Release(reply)
	if err != nil {
		return rpol.LeafProof{}, fmt.Errorf("wire remote %s: %w", r.id, err)
	}
	if resp.Err != "" {
		return rpol.LeafProof{}, fmt.Errorf("wire remote %s: %s: %w", r.id, resp.Err, ErrRemote)
	}
	return rpol.LeafProof{Proof: resp.Proof, Digest: resp.Digest}, nil
}
