package wire

import (
	"errors"
	"fmt"
	"io"
	"net"

	"rpol/internal/lsh"
	"rpol/internal/netsim"
	"rpol/internal/obs"
	"rpol/internal/rpol"
)

// WorkerServer hosts an rpol.Worker behind a bus endpoint: it receives task
// assignments and checkpoint-opening requests and answers them. Run it in
// its own goroutine; it returns when the bus closes. The LSH family in the
// TaskParams it hands the worker is the server's own, refilled by the next
// task's decode: a worker uses it during RunEpoch and does not keep it.
type WorkerServer struct {
	worker rpol.Worker
	ep     Transport
	obs    *obs.Observer

	// encBuf is the reused reply-encode buffer, live only when the transport
	// is a SerializingSender (reuse true); see ManagerPort.encBuf. Run
	// handles requests sequentially, so one buffer suffices.
	encBuf []byte
	reuse  bool

	// fam is the LSH family of the last v2 task decoded; the next one's
	// decode refills its K·L projection vectors instead of allocating them.
	fam *lsh.Family
}

// NewWorkerServer registers the worker's endpoint on the in-memory bus
// under the worker's ID.
func NewWorkerServer(bus *netsim.Bus, worker rpol.Worker) (*WorkerServer, error) {
	if worker == nil {
		return nil, errors.New("wire: nil worker")
	}
	ep, err := bus.Register(worker.ID())
	if err != nil {
		return nil, fmt.Errorf("wire server: %w", err)
	}
	return newWorkerServer(ep, worker), nil
}

// NewWorkerServerOver hosts the worker behind an already-connected
// transport (e.g. a netsim.TCPEndpoint dialed into a hub under the worker's
// ID).
func NewWorkerServerOver(t Transport, worker rpol.Worker) (*WorkerServer, error) {
	if worker == nil {
		return nil, errors.New("wire: nil worker")
	}
	if t == nil {
		return nil, errors.New("wire: nil transport")
	}
	return newWorkerServer(t, worker), nil
}

func newWorkerServer(t Transport, worker rpol.Worker) *WorkerServer {
	_, reuse := t.(SerializingSender)
	return &WorkerServer{worker: worker, ep: t, reuse: reuse}
}

// encScratch returns the server's reusable encode buffer (length zero), or
// nil when the transport retains payload references.
func (s *WorkerServer) encScratch() []byte {
	if s.reuse {
		return s.encBuf[:0]
	}
	return nil
}

// keepScratch retains a buffer produced from encScratch (possibly grown) for
// the next reply.
func (s *WorkerServer) keepScratch(buf []byte) {
	if s.reuse {
		s.encBuf = buf
	}
}

// SetObserver routes the server's request/response accounting through o
// under wire_worker_{messages,bytes}_{sent,recv}_total counters.
func (s *WorkerServer) SetObserver(o *obs.Observer) { s.obs = o }

// send delivers a reply and accounts it. seq echoes the request's
// correlation number so a retrying manager can match the reply to the
// attempt it belongs to (zero for uncorrelated requests).
func (s *WorkerServer) send(to, kind string, seq uint64, payload []byte) error {
	err := sendSeq(s.ep, to, kind, seq, payload)
	if err == nil {
		s.obs.Counter("wire_worker_messages_sent_total").Inc()
		s.obs.Counter("wire_worker_bytes_sent_total").Add(netsim.Message{Kind: kind, Payload: payload}.Size())
	}
	return err
}

// Run serves requests until the bus closes. Malformed requests are answered
// with error messages rather than terminating the loop — a misbehaving
// manager must not be able to wedge a worker.
func (s *WorkerServer) Run() error {
	for {
		msg, err := s.ep.Recv()
		if err != nil {
			// Fabric shutdown (bus closed, socket closed, EOF) ends the
			// serving loop gracefully.
			if errors.Is(err, netsim.ErrClosed) || errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return fmt.Errorf("wire server %s: %w", s.worker.ID(), err)
		}
		s.obs.Counter("wire_worker_messages_recv_total").Inc()
		s.obs.Counter("wire_worker_bytes_recv_total").Add(msg.Size())
		if err := s.handle(msg); err != nil {
			// Reply with the error; keep serving.
			_ = s.send(msg.From, KindError, msg.Seq, []byte(err.Error()))
		}
	}
}

func (s *WorkerServer) handle(msg netsim.Message) error {
	switch msg.Kind {
	case KindTask:
		p, err := decodeTask(msg.Payload, s.fam)
		if err != nil {
			return err
		}
		if p.LSH != nil {
			s.fam = p.LSH
		}
		result, err := s.worker.RunEpoch(p)
		if err != nil {
			return fmt.Errorf("run epoch: %w", err)
		}
		payload, err := AppendResult(s.encScratch(), result)
		if err != nil {
			return err
		}
		s.keepScratch(payload)
		return s.send(msg.From, KindResult, msg.Seq, payload)
	case KindOpenRequest:
		req, err := DecodeOpenRequest(msg.Payload)
		if err != nil {
			return err
		}
		var errMsg string
		weights, err := s.worker.OpenCheckpoint(req.Idx)
		if err != nil {
			errMsg = err.Error()
		}
		payload := AppendOpenResponse(s.encScratch(), req.Idx, errMsg, weights)
		s.keepScratch(payload)
		return s.send(msg.From, KindOpenResponse, msg.Seq, payload)
	case KindProofRequest:
		req, err := DecodeProofRequest(msg.Payload)
		if err != nil {
			return err
		}
		var errMsg string
		lp, err := s.worker.OpenProof(req.Idx)
		if err != nil {
			errMsg = err.Error()
		}
		payload := AppendProofResponse(s.encScratch(), req.Idx, errMsg, lp)
		s.keepScratch(payload)
		return s.send(msg.From, KindProofResponse, msg.Seq, payload)
	default:
		return fmt.Errorf("unknown message kind %q", msg.Kind)
	}
}
