package wire

import (
	"errors"
	"fmt"
	"io"
	"net"

	"rpol/internal/lsh"
	"rpol/internal/netsim"
	"rpol/internal/rpol"
	"rpol/internal/tensor"
)

// WorkerServer hosts an rpol.Worker behind a hub endpoint: it receives task
// assignments and checkpoint-opening requests and answers them. Run it in
// its own goroutine; it returns when the connection closes. The Global and
// the LSH family in the TaskParams it hands the worker are the server's own,
// valid until it decodes its next task, which refills them: a worker uses
// them during RunEpoch and does not keep them.
type WorkerServer struct {
	worker rpol.Worker
	ep     *netsim.TCPEndpoint

	// encBuf is the reused reply-encode buffer; see ManagerPort.encBuf. Run
	// handles requests sequentially, so one buffer suffices.
	encBuf []byte

	// fam is the LSH family of the last v2 task decoded, and global the last
	// task's global model; the next task's decode refills them (fam's K·L
	// projection vectors) instead of allocating.
	fam    *lsh.Family
	global tensor.Vector
}

// NewWorkerServer hosts the worker behind its endpoint, already dialed into
// a hub under the worker's ID.
func NewWorkerServer(ep *netsim.TCPEndpoint, worker rpol.Worker) (*WorkerServer, error) {
	if worker == nil {
		return nil, errors.New("wire: nil worker")
	}
	if ep == nil {
		return nil, errors.New("wire: nil endpoint")
	}
	return &WorkerServer{worker: worker, ep: ep}, nil
}

// send delivers a reply. seq echoes the request's
// correlation number so a retrying manager can match the reply to the
// attempt it belongs to (zero for uncorrelated requests).
func (s *WorkerServer) send(to, kind string, seq uint64, payload []byte) error {
	return s.ep.SendSeq(to, kind, seq, payload)
}

// Run serves requests until the connection closes. Malformed requests are answered
// with error messages rather than terminating the loop — a misbehaving
// manager must not be able to wedge a worker.
func (s *WorkerServer) Run() error {
	for {
		msg, err := s.ep.Recv()
		if err != nil {
			// Shutdown (the hub or this endpoint closed the socket) ends
			// the serving loop gracefully.
			if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return fmt.Errorf("wire server %s: %w", s.worker.ID(), err)
		}
		if err := s.handle(msg); err != nil {
			// Reply with the error; keep serving.
			_ = s.send(msg.From, KindError, msg.Seq, []byte(err.Error()))
		}
		// Every request is decoded into values of its own by now.
		s.ep.Release(msg)
	}
}

func (s *WorkerServer) handle(msg netsim.Message) error {
	switch msg.Kind {
	case KindTask:
		p, err := decodeTask(msg.Payload, s.fam, s.global)
		if err != nil {
			return err
		}
		s.global = p.Global
		if p.LSH != nil {
			s.fam = p.LSH
		}
		result, err := s.worker.RunEpoch(p)
		if err != nil {
			return fmt.Errorf("run epoch: %w", err)
		}
		payload, err := AppendResult(s.encBuf[:0], result)
		if err != nil {
			return err
		}
		s.encBuf = payload
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
		payload := AppendOpenResponse(s.encBuf[:0], req.Idx, errMsg, weights)
		s.encBuf = payload
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
		payload := AppendProofResponse(s.encBuf[:0], req.Idx, errMsg, lp)
		s.encBuf = payload
		return s.send(msg.From, KindProofResponse, msg.Seq, payload)
	default:
		return fmt.Errorf("unknown message kind %q", msg.Kind)
	}
}
