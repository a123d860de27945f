package wire

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"rpol/internal/gpu"
	"rpol/internal/netsim"
	"rpol/internal/obs"
	"rpol/internal/rpol"
	"rpol/internal/tensor"
)

// RetryPolicy bounds how often a ManagerPort sends one request whose
// exchange the hub reported lost. After Attempts lost exchanges the call
// fails with an error wrapping rpol.ErrWorkerUnavailable, so the manager
// classifies the worker as absent.
type RetryPolicy struct {
	// Attempts is the number of sends per call; zero means one.
	Attempts int
}

// ManagerPort is the manager's single hub endpoint, shared by all of its
// RemoteWorker proxies. Each proxy receives its worker's replies on a queue
// of its own, so calls to different workers may run concurrently. A call is
// one exchange that only its reply or the hub's lost notice ends: no loop
// reads a clock, and a worker that never answers on a hub with no fault
// plan is waited on until the connection closes.
type ManagerPort struct {
	ep       *netsim.TCPEndpoint
	obs      *obs.Observer
	attempts int
	seq      atomic.Uint64

	// bufs are the request-encode buffers no call holds. A call borrows one
	// until its exchange ends, so serial calls reuse one buffer and
	// concurrent calls each encode into their own.
	mu   sync.Mutex
	bufs [][]byte
}

// NewManagerPort wraps the manager's endpoint, already dialed into a hub.
func NewManagerPort(ep *netsim.TCPEndpoint) (*ManagerPort, error) {
	if ep == nil {
		return nil, errors.New("wire: nil endpoint")
	}
	return &ManagerPort{ep: ep}, nil
}

// SetObserver routes the port's delivery accounting through o: the
// net_retries_total and net_timeouts_total counters of lost exchanges.
func (mp *ManagerPort) SetObserver(o *obs.Observer) { mp.obs = o }

// SetRetryPolicy sets how many lost exchanges a call retries; nil means one
// attempt.
func (mp *ManagerPort) SetRetryPolicy(p *RetryPolicy) {
	mp.attempts = 0
	if p != nil {
		mp.attempts = p.Attempts
	}
}

// call sends a kind request, which enc appends to an encode buffer borrowed
// from the port, to the peer whose replies q holds, and waits for its reply
// of wantKind. A reply with another Seq is stale and discarded. The reply's
// payload aliases an endpoint frame: the caller decodes it, then hands it
// back with the endpoint's Release.
func (mp *ManagerPort) call(q *netsim.Queue, to, kind string, enc func([]byte) ([]byte, error), wantKind string) (netsim.Message, error) {
	var buf []byte
	mp.mu.Lock()
	if n := len(mp.bufs); n > 0 {
		buf, mp.bufs = mp.bufs[n-1], mp.bufs[:n-1]
	}
	mp.mu.Unlock()
	payload, err := enc(buf)
	if err != nil {
		return netsim.Message{}, fmt.Errorf("wire call %s/%s: %w", to, kind, err)
	}
	defer func() {
		mp.mu.Lock()
		mp.bufs = append(mp.bufs, payload[:0])
		mp.mu.Unlock()
	}()
	seq := mp.seq.Add(1)
	attempts := max(mp.attempts, 1)
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			mp.obs.Counter("net_retries_total").Inc()
		}
		if err := mp.ep.SendSeq(to, kind, seq, payload); err != nil {
			return netsim.Message{}, fmt.Errorf("wire call %s/%s: %w", to, kind, err)
		}
		msg, err := q.Recv()
		for err == nil && msg.Seq != seq {
			mp.ep.Release(msg)
			msg, err = q.Recv()
		}
		switch {
		case err != nil:
			return netsim.Message{}, fmt.Errorf("wire call %s/%s: %w", to, kind, err)
		case msg.Kind == netsim.KindLost:
			mp.ep.Release(msg)
			mp.obs.Counter("net_timeouts_total").Inc()
		case msg.Kind == KindError:
			return netsim.Message{}, fmt.Errorf("wire call %s/%s: %s: %w", to, kind, msg.Payload, ErrRemote)
		case msg.Kind != wantKind:
			return netsim.Message{}, fmt.Errorf("wire call %s/%s: got kind %q: %w", to, kind, msg.Kind, ErrRemote)
		default:
			return msg, nil
		}
	}
	return netsim.Message{}, fmt.Errorf("wire call %s/%s: lost %d times: %w",
		to, kind, attempts, rpol.ErrWorkerUnavailable)
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
	// replies is the worker's queue on the port's endpoint.
	replies *netsim.Queue

	// update is the last result's update; opened holds the vectors the
	// openings since the last RunEpoch were decoded into, and spare those of
	// earlier epochs, which later openings refill.
	update        tensor.Vector
	opened, spare []tensor.Vector
}

var _ rpol.Worker = (*RemoteWorker)(nil)

// NewRemoteWorker builds a proxy to the worker registered as id, with the
// hardware profile the worker declared at registration. It claims id's
// queue on the port's endpoint, so one port has one proxy per worker.
func NewRemoteWorker(id string, profile gpu.Profile, port *ManagerPort) (*RemoteWorker, error) {
	if port == nil {
		return nil, errors.New("wire: nil manager port")
	}
	if id == "" {
		return nil, errors.New("wire: empty worker id")
	}
	replies, err := port.ep.Claim(id)
	if err != nil {
		return nil, fmt.Errorf("wire remote: %w", err)
	}
	return &RemoteWorker{id: id, profile: profile, port: port, replies: replies}, nil
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
	enc := func(b []byte) ([]byte, error) { return AppendTask(b, p) }
	reply, err := r.port.call(r.replies, r.id, KindTask, enc, KindResult)
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
	enc := func(b []byte) ([]byte, error) { return AppendOpenRequest(b, idx), nil }
	reply, err := r.port.call(r.replies, r.id, KindOpenRequest, enc, KindOpenResponse)
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
	enc := func(b []byte) ([]byte, error) { return AppendProofRequest(b, idx), nil }
	reply, err := r.port.call(r.replies, r.id, KindProofRequest, enc, KindProofResponse)
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
