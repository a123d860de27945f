// Package wire runs the RPoL protocol over a message fabric: it defines the
// wire encoding of every protocol message (task assignment, epoch result,
// checkpoint opening) and provides the two halves of a remote worker —
// a WorkerServer that hosts a worker behind a netsim endpoint, and a
// RemoteWorker proxy that satisfies rpol.Worker on the manager's side by
// exchanging messages. With these, the exact same rpol.Manager that drives
// in-process workers drives workers living behind the (metered) network,
// and every byte the protocol moves is accounted by the bus meter.
package wire

import (
	"encoding/json"
	"errors"
	"fmt"

	"rpol/internal/commitment"
	"rpol/internal/lsh"
	"rpol/internal/prf"
	"rpol/internal/rpol"
	"rpol/internal/tensor"
)

// Message kinds on the bus.
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

// LSHMsg carries an LSH family by derivation inputs — the family is a pure
// function of (dim, params, seed), so only those travel.
type LSHMsg struct {
	Dim  int     `json:"dim"`
	R    float64 `json:"r"`
	K    int     `json:"k"`
	L    int     `json:"l"`
	Seed int64   `json:"seed"`
}

// TaskMsg is the manager's epoch assignment (step ① of Fig. 2).
type TaskMsg struct {
	Epoch           int     `json:"epoch"`
	Global          []byte  `json:"global"` // tensor.Encode of θ_t
	Optimizer       string  `json:"optimizer"`
	LR              float64 `json:"lr"`
	BatchSize       int     `json:"batchSize"`
	Steps           int     `json:"steps"`
	CheckpointEvery int     `json:"checkpointEvery"`
	Nonce           uint64  `json:"nonce"`
	LSH             *LSHMsg `json:"lsh,omitempty"`
	MerkleCommit    bool    `json:"merkleCommit,omitempty"`
}

// EncodeTask marshals the task parameters in the binary wire format.
func EncodeTask(p rpol.TaskParams) ([]byte, error) {
	return AppendTask(nil, p)
}

// DecodeTask reconstructs the task parameters, rebuilding the LSH family
// from its derivation inputs. Both the binary format and the legacy JSON
// format are accepted: a payload starting with '{' takes the JSON path.
func DecodeTask(data []byte) (rpol.TaskParams, error) {
	return decodeTask(data, nil)
}

// decodeTask is DecodeTask with the binary format's LSH family rebuilt into
// prev's storage (lsh.RebuildFamily: prev is consumed; nil allocates).
func decodeTask(data []byte, prev *lsh.Family) (rpol.TaskParams, error) {
	if len(data) > 0 && data[0] == '{' {
		return decodeTaskJSON(data)
	}
	return decodeTaskBinary(data, prev)
}

// decodeTaskJSON is the legacy decode path for pre-binary peers.
func decodeTaskJSON(data []byte) (rpol.TaskParams, error) {
	var msg TaskMsg
	if err := json.Unmarshal(data, &msg); err != nil {
		return rpol.TaskParams{}, fmt.Errorf("wire task: %w", err)
	}
	global, err := tensor.DecodeVector(msg.Global)
	if err != nil {
		return rpol.TaskParams{}, fmt.Errorf("wire task global: %w", err)
	}
	p := rpol.TaskParams{
		Epoch:           msg.Epoch,
		Global:          global,
		Hyper:           rpol.Hyper{Optimizer: msg.Optimizer, LR: msg.LR, BatchSize: msg.BatchSize},
		Nonce:           prf.Nonce(msg.Nonce),
		Steps:           msg.Steps,
		CheckpointEvery: msg.CheckpointEvery,
		MerkleCommit:    msg.MerkleCommit,
	}
	if msg.LSH != nil {
		fam, err := lsh.NewFamily(msg.LSH.Dim, lsh.Params{R: msg.LSH.R, K: msg.LSH.K, L: msg.LSH.L}, msg.LSH.Seed)
		if err != nil {
			return rpol.TaskParams{}, fmt.Errorf("wire task lsh: %w", err)
		}
		p.LSH = fam
	}
	if err := p.Validate(); err != nil {
		return rpol.TaskParams{}, fmt.Errorf("wire task: %w", err)
	}
	return p, nil
}

// ResultMsg is the worker's epoch submission (step ③ of Fig. 2). Exactly one
// of Commit (legacy hash list) or Root (32-byte Merkle root) is present.
type ResultMsg struct {
	WorkerID       string   `json:"workerId"`
	Epoch          int      `json:"epoch"`
	Update         []byte   `json:"update"`
	DataSize       int      `json:"dataSize"`
	Commit         []byte   `json:"commit,omitempty"`
	Root           []byte   `json:"root,omitempty"`
	Digests        [][]byte `json:"digests,omitempty"`
	NumCheckpoints int      `json:"numCheckpoints"`
}

// EncodeResult marshals an epoch result in the binary wire format.
func EncodeResult(r *rpol.EpochResult) ([]byte, error) {
	return AppendResult(nil, r)
}

// DecodeResult unmarshals an epoch result. Both the binary format and the
// legacy JSON format are accepted: a payload starting with '{' takes the
// JSON path.
func DecodeResult(data []byte) (*rpol.EpochResult, error) {
	if len(data) > 0 && data[0] == '{' {
		return decodeResultJSON(data)
	}
	return decodeResultBinary(data)
}

// decodeResultJSON is the legacy decode path for pre-binary peers.
func decodeResultJSON(data []byte) (*rpol.EpochResult, error) {
	var msg ResultMsg
	if err := json.Unmarshal(data, &msg); err != nil {
		return nil, fmt.Errorf("wire result: %w", err)
	}
	update, err := tensor.DecodeVector(msg.Update)
	if err != nil {
		return nil, fmt.Errorf("wire result update: %w", err)
	}
	if err := checkWireCheckpoints(msg.NumCheckpoints); err != nil {
		return nil, err
	}
	out := &rpol.EpochResult{
		WorkerID:       msg.WorkerID,
		Epoch:          msg.Epoch,
		Update:         update,
		DataSize:       msg.DataSize,
		NumCheckpoints: msg.NumCheckpoints,
	}
	if len(msg.Root) > 0 {
		if len(msg.Commit) > 0 || len(msg.Digests) > 0 {
			return nil, errors.New("wire result: root form carries inline commitment fields")
		}
		if len(msg.Root) != commitment.HashSize {
			return nil, fmt.Errorf("wire result root: %d bytes, want %d", len(msg.Root), commitment.HashSize)
		}
		copy(out.MerkleRoot[:], msg.Root)
		out.HasRoot = true
		return out, nil
	}
	// The commitment and digest list must both match the declared checkpoint
	// count exactly (digests may also be absent entirely under v1).
	commit, err := commitment.DecodeHashListN(msg.Commit, msg.NumCheckpoints)
	if err != nil {
		return nil, fmt.Errorf("wire result commit: %w", err)
	}
	out.Commit = commit
	if len(msg.Digests) != 0 && len(msg.Digests) != msg.NumCheckpoints {
		return nil, fmt.Errorf("wire result: %d digests for %d checkpoints", len(msg.Digests), msg.NumCheckpoints)
	}
	for i, raw := range msg.Digests {
		d, err := lsh.DecodeDigest(raw)
		if err != nil {
			return nil, fmt.Errorf("wire result digest %d: %w", i, err)
		}
		out.LSHDigests = append(out.LSHDigests, d)
	}
	return out, nil
}

// OpenRequestMsg asks a worker to open checkpoint Idx.
type OpenRequestMsg struct {
	Idx int `json:"idx"`
}

// OpenResponseMsg returns the opened raw weights or an error.
type OpenResponseMsg struct {
	Idx     int    `json:"idx"`
	Weights []byte `json:"weights,omitempty"`
	Err     string `json:"err,omitempty"`
}

// decodeOpenRequestJSON is the legacy decode path for pre-binary peers.
func decodeOpenRequestJSON(data []byte) (OpenRequestMsg, error) {
	var req OpenRequestMsg
	if err := json.Unmarshal(data, &req); err != nil {
		return OpenRequestMsg{}, fmt.Errorf("wire open request: %w", err)
	}
	return req, nil
}

// decodeOpenResponseJSON is the legacy decode path for pre-binary peers.
func decodeOpenResponseJSON(data []byte) (decodedOpenResponse, error) {
	var resp OpenResponseMsg
	if err := json.Unmarshal(data, &resp); err != nil {
		return decodedOpenResponse{}, fmt.Errorf("wire open response: %w", err)
	}
	return decodedOpenResponse{Idx: resp.Idx, Err: resp.Err, Weights: resp.Weights}, nil
}

// ProofRequestMsg asks a worker for the Merkle inclusion proof of leaf Idx.
type ProofRequestMsg struct {
	Idx int `json:"idx"`
}

// ProofResponseMsg returns the inclusion proof — plus, under v2, the
// committed digest encoding it authenticates — or an error.
type ProofResponseMsg struct {
	Idx    int                    `json:"idx"`
	Proof  commitment.MerkleProof `json:"-"`
	Digest []byte                 `json:"digest,omitempty"`
	Err    string                 `json:"err,omitempty"`

	// ProofBytes is the JSON carrier for Proof (commitment.DecodeProof form).
	ProofBytes []byte `json:"proof,omitempty"`
}

// decodeProofRequestJSON is the JSON decode path for proof pulls.
func decodeProofRequestJSON(data []byte) (ProofRequestMsg, error) {
	var req ProofRequestMsg
	if err := json.Unmarshal(data, &req); err != nil {
		return ProofRequestMsg{}, fmt.Errorf("wire proof request: %w", err)
	}
	return req, nil
}

// decodeProofResponseJSON is the JSON decode path for proof-pull responses.
func decodeProofResponseJSON(data []byte) (ProofResponseMsg, error) {
	var resp ProofResponseMsg
	if err := json.Unmarshal(data, &resp); err != nil {
		return ProofResponseMsg{}, fmt.Errorf("wire proof response: %w", err)
	}
	if resp.Err != "" {
		return resp, nil
	}
	proof, err := commitment.DecodeProof(resp.ProofBytes)
	if err != nil {
		return ProofResponseMsg{}, fmt.Errorf("wire proof response: %w", err)
	}
	resp.Proof = proof
	resp.ProofBytes = nil
	return resp, nil
}
