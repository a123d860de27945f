package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"rpol/internal/commitment"
	"rpol/internal/lsh"
	"rpol/internal/prf"
	"rpol/internal/rpol"
	"rpol/internal/tensor"
)

// Binary message format. Every message starts with a three-byte header:
//
//	[0] magic     0xB5 — deliberately distinct from '{' (0x7B), so decoders
//	              can sniff the first byte and fall back to the legacy JSON
//	              encoding for payloads produced by older peers.
//	[1] version   1 or 2 — version 2 adds a flags byte to tasks (bit 0 =
//	              streaming Merkle commitment) and the three Merkle message
//	              kinds (root-carrying result, proof request/response).
//	              Encoders emit version 1 bytes whenever no version-2
//	              feature is used, so legacy peers interoperate unchanged.
//	[2] kind      one of the binKind* constants
//
// Fields follow in fixed order: varints (encoding/binary) for integers,
// 8-byte little-endian IEEE-754 for floats, uvarint-length-prefixed blobs
// for strings and digests. The one bulky field of each message — the weight
// vector — is always last, written with tensor.AppendEncode so encoding into
// a reused buffer never copies the vector twice and decoding can alias the
// tail of the frame.
const (
	binMagic    = 0xB5
	binVersion  = 1
	binVersion2 = 2

	binKindTask          = 0x01
	binKindResult        = 0x02
	binKindOpenRequest   = 0x03
	binKindOpenResponse  = 0x04
	binKindResultRoot    = 0x05
	binKindProofRequest  = 0x06
	binKindProofResponse = 0x07

	// taskFlagMerkleCommit is bit 0 of the version-2 task flags byte.
	taskFlagMerkleCommit = 0x01
)

// maxWireCheckpoints bounds the checkpoint count any decoded submission may
// declare, so attacker-controlled bytes can never force an allocation larger
// than the claim a verifier would accept (rpol's verifier applies the same
// cap).
const maxWireCheckpoints = 1 << 20

var (
	errBinTruncated = errors.New("wire: truncated binary message")
	errBinHeader    = errors.New("wire: bad binary header")
)

func appendBinHeader(dst []byte, kind byte) []byte {
	return append(dst, binMagic, binVersion, kind)
}

func appendBinFloat(dst []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
}

func appendBinBlob(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

func appendBinString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// binReader walks a binary message with a sticky error: after the first
// malformed field every subsequent read returns a zero value, and the caller
// checks r.err once at the end.
type binReader struct {
	buf     []byte
	off     int
	version byte
	err     error
}

// newBinReader validates the three-byte header and positions the reader on
// the first field. A version above binVersion2 is rejected explicitly — a
// future encoding must not be misparsed as the current one.
func newBinReader(data []byte, kind byte) (*binReader, error) {
	if len(data) < 3 {
		return nil, errBinTruncated
	}
	if data[0] != binMagic {
		return nil, fmt.Errorf("magic 0x%02x: %w", data[0], errBinHeader)
	}
	if data[1] != binVersion && data[1] != binVersion2 {
		return nil, fmt.Errorf("unsupported binary version %d: %w", data[1], errBinHeader)
	}
	if data[2] != kind {
		return nil, fmt.Errorf("message kind 0x%02x, want 0x%02x: %w", data[2], kind, errBinHeader)
	}
	return &binReader{buf: data, off: 3, version: data[1]}, nil
}

func (r *binReader) fail() {
	if r.err == nil {
		r.err = errBinTruncated
	}
}

func (r *binReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return v
}

func (r *binReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return v
}

func (r *binReader) float() float64 {
	if r.err != nil {
		return 0
	}
	if len(r.buf)-r.off < 8 {
		r.fail()
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.buf[r.off:]))
	r.off += 8
	return v
}

func (r *binReader) uint64() uint64 {
	if r.err != nil {
		return 0
	}
	if len(r.buf)-r.off < 8 {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

func (r *binReader) byteVal() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.buf) {
		r.fail()
		return 0
	}
	b := r.buf[r.off]
	r.off++
	return b
}

// blob returns the next length-prefixed field, aliasing the message buffer.
func (r *binReader) blob() []byte {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.buf)-r.off) {
		r.fail()
		return nil
	}
	b := r.buf[r.off : r.off+int(n)]
	r.off += int(n)
	return b
}

// rest consumes and returns everything after the current offset.
func (r *binReader) rest() []byte {
	if r.err != nil {
		return nil
	}
	b := r.buf[r.off:]
	r.off = len(r.buf)
	return b
}

// AppendTask appends the binary encoding of a task assignment to dst and
// returns the extended slice. The global weight vector is the final field, so
// the whole message is one header plus tensor.AppendEncode — no intermediate
// copy of the weights.
func AppendTask(dst []byte, p rpol.TaskParams) ([]byte, error) {
	if p.MerkleCommit {
		// Version 2 prepends a flags byte; emitted only when a flag is set,
		// so flag-free tasks stay byte-identical to the version-1 encoding.
		dst = append(dst, binMagic, binVersion2, binKindTask, taskFlagMerkleCommit)
	} else {
		dst = appendBinHeader(dst, binKindTask)
	}
	dst = binary.AppendVarint(dst, int64(p.Epoch))
	dst = appendBinString(dst, p.Hyper.Optimizer)
	dst = appendBinFloat(dst, p.Hyper.LR)
	dst = binary.AppendVarint(dst, int64(p.Hyper.BatchSize))
	dst = binary.AppendVarint(dst, int64(p.Steps))
	dst = binary.AppendVarint(dst, int64(p.CheckpointEvery))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(p.Nonce))
	if p.LSH != nil {
		params := p.LSH.Params()
		dst = append(dst, 1)
		dst = binary.AppendVarint(dst, int64(p.LSH.Dim()))
		dst = appendBinFloat(dst, params.R)
		dst = binary.AppendVarint(dst, int64(params.K))
		dst = binary.AppendVarint(dst, int64(params.L))
		dst = binary.AppendVarint(dst, p.LSH.Seed())
	} else {
		dst = append(dst, 0)
	}
	return p.Global.AppendEncode(dst), nil
}

// decodeTaskBinary parses a task produced by AppendTask, rebuilding its LSH
// family into prev's storage when prev is non-nil.
func decodeTaskBinary(data []byte, prev *lsh.Family) (rpol.TaskParams, error) {
	r, err := newBinReader(data, binKindTask)
	if err != nil {
		return rpol.TaskParams{}, fmt.Errorf("wire task: %w", err)
	}
	var p rpol.TaskParams
	if r.version >= binVersion2 {
		flags := r.byteVal()
		if flags&^taskFlagMerkleCommit != 0 {
			return rpol.TaskParams{}, fmt.Errorf("wire task: unknown flags 0x%02x: %w", flags, errBinHeader)
		}
		p.MerkleCommit = flags&taskFlagMerkleCommit != 0
	}
	p.Epoch = int(r.varint())
	p.Hyper.Optimizer = string(r.blob())
	p.Hyper.LR = r.float()
	p.Hyper.BatchSize = int(r.varint())
	p.Steps = int(r.varint())
	p.CheckpointEvery = int(r.varint())
	p.Nonce = prf.Nonce(r.uint64())
	hasLSH := r.byteVal()
	var lshDim, lshK, lshL int
	var lshR float64
	var lshSeed int64
	switch hasLSH {
	case 0:
	case 1:
		lshDim = int(r.varint())
		lshR = r.float()
		lshK = int(r.varint())
		lshL = int(r.varint())
		lshSeed = r.varint()
	default:
		return rpol.TaskParams{}, fmt.Errorf("wire task: lsh presence byte 0x%02x: %w", hasLSH, errBinHeader)
	}
	rest := r.rest()
	if r.err != nil {
		return rpol.TaskParams{}, fmt.Errorf("wire task: %w", r.err)
	}
	global, err := tensor.DecodeVector(rest)
	if err != nil {
		return rpol.TaskParams{}, fmt.Errorf("wire task global: %w", err)
	}
	p.Global = global
	if hasLSH == 1 {
		fam, err := lsh.RebuildFamily(prev, lshDim, lsh.Params{R: lshR, K: lshK, L: lshL}, lshSeed)
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

// AppendResult appends the binary encoding of an epoch result to dst and
// returns the extended slice. The update vector is the final field. A
// Merkle-committed result (HasRoot) is written in the compact root form —
// 32 bytes of commitment regardless of checkpoint count; a legacy result
// ships the full hash list plus inline digests.
func AppendResult(dst []byte, r *rpol.EpochResult) ([]byte, error) {
	if r == nil {
		return nil, errors.New("wire: result needs a commitment")
	}
	if r.HasRoot {
		dst = append(dst, binMagic, binVersion2, binKindResultRoot)
		dst = appendBinString(dst, r.WorkerID)
		dst = binary.AppendVarint(dst, int64(r.Epoch))
		dst = binary.AppendVarint(dst, int64(r.DataSize))
		dst = binary.AppendVarint(dst, int64(r.NumCheckpoints))
		dst = append(dst, r.MerkleRoot[:]...)
		return r.Update.AppendEncode(dst), nil
	}
	if r.Commit == nil {
		return nil, errors.New("wire: result needs a commitment")
	}
	dst = appendBinHeader(dst, binKindResult)
	dst = appendBinString(dst, r.WorkerID)
	dst = binary.AppendVarint(dst, int64(r.Epoch))
	dst = binary.AppendVarint(dst, int64(r.DataSize))
	dst = binary.AppendVarint(dst, int64(r.NumCheckpoints))
	dst = binary.AppendUvarint(dst, uint64(r.Commit.Size()))
	dst = r.Commit.AppendEncode(dst)
	dst = binary.AppendUvarint(dst, uint64(len(r.LSHDigests)))
	for _, d := range r.LSHDigests {
		dst = binary.AppendUvarint(dst, uint64(d.Size()))
		dst = d.AppendEncode(dst)
	}
	return r.Update.AppendEncode(dst), nil
}

// checkWireCheckpoints bounds a decoded submission's declared checkpoint
// count before it sizes any allocation or commitment check.
func checkWireCheckpoints(n int) error {
	if n < 1 || n > maxWireCheckpoints {
		return fmt.Errorf("wire result: claimed checkpoint count %d out of range [1, %d]", n, maxWireCheckpoints)
	}
	return nil
}

// decodeResultBinary parses a result produced by AppendResult, dispatching
// on the kind byte between the legacy hash-list form and the Merkle root
// form.
func decodeResultBinary(data []byte) (*rpol.EpochResult, error) {
	if len(data) >= 3 && data[2] == binKindResultRoot {
		return decodeResultRootBinary(data)
	}
	r, err := newBinReader(data, binKindResult)
	if err != nil {
		return nil, fmt.Errorf("wire result: %w", err)
	}
	out := &rpol.EpochResult{}
	out.WorkerID = string(r.blob())
	out.Epoch = int(r.varint())
	out.DataSize = int(r.varint())
	out.NumCheckpoints = int(r.varint())
	commitBlob := r.blob()
	nDigests := r.uvarint()
	if r.err != nil {
		return nil, fmt.Errorf("wire result: %w", r.err)
	}
	if err := checkWireCheckpoints(out.NumCheckpoints); err != nil {
		return nil, err
	}
	// The commitment and digest list must both match the declared checkpoint
	// count exactly (digests may also be absent entirely under v1); the blob
	// lengths already on the wire can never force a larger allocation than
	// the claim the verifier would accept.
	commit, err := commitment.DecodeHashListN(commitBlob, out.NumCheckpoints)
	if err != nil {
		return nil, fmt.Errorf("wire result commit: %w", err)
	}
	out.Commit = commit
	if nDigests != 0 && nDigests != uint64(out.NumCheckpoints) {
		return nil, fmt.Errorf("wire result: %d digests for %d checkpoints", nDigests, out.NumCheckpoints)
	}
	for i := uint64(0); i < nDigests; i++ {
		raw := r.blob()
		if r.err != nil {
			return nil, fmt.Errorf("wire result: %w", r.err)
		}
		d, err := lsh.DecodeDigest(raw)
		if err != nil {
			return nil, fmt.Errorf("wire result digest %d: %w", i, err)
		}
		out.LSHDigests = append(out.LSHDigests, d)
	}
	rest := r.rest()
	if r.err != nil {
		return nil, fmt.Errorf("wire result: %w", r.err)
	}
	update, err := tensor.DecodeVector(rest)
	if err != nil {
		return nil, fmt.Errorf("wire result update: %w", err)
	}
	out.Update = update
	return out, nil
}

// decodeResultRootBinary parses the Merkle root form of a result: fixed
// 32-byte root in place of the hash list, update vector last.
func decodeResultRootBinary(data []byte) (*rpol.EpochResult, error) {
	r, err := newBinReader(data, binKindResultRoot)
	if err != nil {
		return nil, fmt.Errorf("wire result: %w", err)
	}
	out := &rpol.EpochResult{}
	out.WorkerID = string(r.blob())
	out.Epoch = int(r.varint())
	out.DataSize = int(r.varint())
	out.NumCheckpoints = int(r.varint())
	if r.err == nil && len(r.buf)-r.off < commitment.HashSize {
		r.fail()
	}
	if r.err == nil {
		copy(out.MerkleRoot[:], r.buf[r.off:r.off+commitment.HashSize])
		r.off += commitment.HashSize
		out.HasRoot = true
	}
	rest := r.rest()
	if r.err != nil {
		return nil, fmt.Errorf("wire result: %w", r.err)
	}
	if err := checkWireCheckpoints(out.NumCheckpoints); err != nil {
		return nil, err
	}
	update, err := tensor.DecodeVector(rest)
	if err != nil {
		return nil, fmt.Errorf("wire result update: %w", err)
	}
	out.Update = update
	return out, nil
}

// AppendOpenRequest appends the binary encoding of a checkpoint-opening
// request to dst.
func AppendOpenRequest(dst []byte, idx int) []byte {
	dst = appendBinHeader(dst, binKindOpenRequest)
	return binary.AppendVarint(dst, int64(idx))
}

// DecodeOpenRequest parses a checkpoint-opening request, accepting both the
// binary form and the legacy JSON form.
func DecodeOpenRequest(data []byte) (OpenRequestMsg, error) {
	if len(data) > 0 && data[0] == '{' {
		return decodeOpenRequestJSON(data)
	}
	r, err := newBinReader(data, binKindOpenRequest)
	if err != nil {
		return OpenRequestMsg{}, fmt.Errorf("wire open request: %w", err)
	}
	idx := int(r.varint())
	if r.err != nil {
		return OpenRequestMsg{}, fmt.Errorf("wire open request: %w", r.err)
	}
	return OpenRequestMsg{Idx: idx}, nil
}

// AppendOpenResponse appends the binary encoding of a checkpoint-opening
// response: the opened raw weights on success (final field, one
// tensor.AppendEncode), or the error string.
func AppendOpenResponse(dst []byte, idx int, errMsg string, weights tensor.Vector) []byte {
	dst = appendBinHeader(dst, binKindOpenResponse)
	dst = binary.AppendVarint(dst, int64(idx))
	dst = appendBinString(dst, errMsg)
	if errMsg != "" {
		return dst
	}
	return weights.AppendEncode(dst)
}

// decodedOpenResponse is the parsed form of an open response: Weights stays
// encoded (the caller decodes it, preserving the legacy path's error text).
type decodedOpenResponse struct {
	Idx     int
	Err     string
	Weights []byte
}

// decodeOpenResponse parses an open response, accepting both the binary form
// and the legacy JSON form.
func decodeOpenResponse(data []byte) (decodedOpenResponse, error) {
	if len(data) > 0 && data[0] == '{' {
		return decodeOpenResponseJSON(data)
	}
	r, err := newBinReader(data, binKindOpenResponse)
	if err != nil {
		return decodedOpenResponse{}, fmt.Errorf("wire open response: %w", err)
	}
	out := decodedOpenResponse{}
	out.Idx = int(r.varint())
	out.Err = string(r.blob())
	if out.Err == "" {
		out.Weights = r.rest()
	}
	if r.err != nil {
		return decodedOpenResponse{}, fmt.Errorf("wire open response: %w", r.err)
	}
	return out, nil
}

// AppendProofRequest appends the binary encoding of a Merkle proof pull for
// leaf idx.
func AppendProofRequest(dst []byte, idx int) []byte {
	dst = append(dst, binMagic, binVersion2, binKindProofRequest)
	return binary.AppendVarint(dst, int64(idx))
}

// DecodeProofRequest parses a Merkle proof pull, accepting both the binary
// form and the JSON form.
func DecodeProofRequest(data []byte) (ProofRequestMsg, error) {
	if len(data) > 0 && data[0] == '{' {
		return decodeProofRequestJSON(data)
	}
	r, err := newBinReader(data, binKindProofRequest)
	if err != nil {
		return ProofRequestMsg{}, fmt.Errorf("wire proof request: %w", err)
	}
	idx := int(r.varint())
	if r.err != nil {
		return ProofRequestMsg{}, fmt.Errorf("wire proof request: %w", r.err)
	}
	return ProofRequestMsg{Idx: idx}, nil
}

// AppendProofResponse appends the binary encoding of a proof-pull response:
// the inclusion proof plus the committed digest encoding it authenticates
// (empty under v1) on success, or the error string.
func AppendProofResponse(dst []byte, idx int, errMsg string, lp rpol.LeafProof) []byte {
	dst = append(dst, binMagic, binVersion2, binKindProofResponse)
	dst = binary.AppendVarint(dst, int64(idx))
	dst = appendBinString(dst, errMsg)
	if errMsg != "" {
		return dst
	}
	dst = binary.AppendUvarint(dst, uint64(lp.Proof.Size()))
	dst = lp.Proof.AppendEncode(dst)
	return appendBinBlob(dst, lp.Digest)
}

// decodeProofResponse parses a proof-pull response, accepting both the
// binary form and the JSON form. The returned digest is copied out of the
// frame so callers may reuse the receive buffer.
func decodeProofResponse(data []byte) (ProofResponseMsg, error) {
	if len(data) > 0 && data[0] == '{' {
		return decodeProofResponseJSON(data)
	}
	r, err := newBinReader(data, binKindProofResponse)
	if err != nil {
		return ProofResponseMsg{}, fmt.Errorf("wire proof response: %w", err)
	}
	out := ProofResponseMsg{}
	out.Idx = int(r.varint())
	out.Err = string(r.blob())
	if out.Err != "" {
		if r.err != nil {
			return ProofResponseMsg{}, fmt.Errorf("wire proof response: %w", r.err)
		}
		return out, nil
	}
	proofBlob := r.blob()
	digestBlob := r.blob()
	if r.err != nil {
		return ProofResponseMsg{}, fmt.Errorf("wire proof response: %w", r.err)
	}
	proof, err := commitment.DecodeProof(proofBlob)
	if err != nil {
		return ProofResponseMsg{}, fmt.Errorf("wire proof response: %w", err)
	}
	out.Proof = proof
	if len(digestBlob) > 0 {
		out.Digest = append([]byte(nil), digestBlob...)
	}
	return out, nil
}
