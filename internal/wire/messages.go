// Package wire runs the RPoL protocol over the netsim TCP hub: it defines
// the wire encoding of every protocol message (task assignment, epoch
// result, checkpoint opening, proof pull) and provides the two halves of a
// remote worker — a WorkerServer that hosts a worker behind a hub endpoint,
// and a RemoteWorker proxy that satisfies rpol.Worker on the manager's side
// by exchanging messages. With these, the exact same rpol.Manager that
// drives in-process workers drives workers living behind the (metered)
// network, and every byte the protocol moves is accounted by the hub meter.
package wire

import (
	"errors"

	"rpol/internal/commitment"
	"rpol/internal/rpol"
)

// Message kinds on the hub.
const (
	KindTask          = "task"
	KindResult        = "result"
	KindOpenRequest   = "open-request"
	KindOpenResponse  = "open-response"
	KindProofRequest  = "proof-request"
	KindProofResponse = "proof-response"
	KindError         = "error"
)

// ErrRemote wraps failures reported by the peer.
var ErrRemote = errors.New("wire: remote error")

// ErrFormat marks a payload that is not the one binary encoding of the
// message it was handed to: a JSON body, an unknown magic, version or kind,
// or a task without the commitment flag this protocol requires.
var ErrFormat = errors.New("wire: unknown message format")

// EncodeTask marshals the task parameters in the binary wire format.
func EncodeTask(p rpol.TaskParams) ([]byte, error) {
	return AppendTask(nil, p)
}

// DecodeTask reconstructs the task parameters, rebuilding the LSH family
// from its derivation inputs.
func DecodeTask(data []byte) (rpol.TaskParams, error) {
	return decodeTask(data, nil, nil)
}

// EncodeResult marshals an epoch result in the binary wire format.
func EncodeResult(r *rpol.EpochResult) ([]byte, error) {
	return AppendResult(nil, r)
}

// OpenRequestMsg asks a worker to open checkpoint Idx.
type OpenRequestMsg struct {
	Idx int
}

// OpenResponseMsg is a parsed open response: the opened raw weights, still
// encoded (the caller decodes them), or the worker's error.
type OpenResponseMsg struct {
	Idx     int
	Err     string
	Weights []byte
}

// ProofRequestMsg asks a worker for the Merkle inclusion proof of leaf Idx.
type ProofRequestMsg struct {
	Idx int
}

// ProofResponseMsg returns the inclusion proof — plus, under v2, the
// committed digest encoding it authenticates — or an error.
type ProofResponseMsg struct {
	Idx    int
	Proof  commitment.MerkleProof
	Digest []byte
	Err    string
}
