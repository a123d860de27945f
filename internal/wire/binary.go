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

// Binary message format — the only encoding any message has. Every message
// starts with a three-byte header:
//
//	[0] magic     0xB5
//	[1] version   fixed per kind (binVersion): 1 for the open request and
//	              response, 2 for every other kind
//	[2] kind      one of the binKind* constants
//
// A task carries a flags byte right after its header whose bit 0 (the
// streaming Merkle commitment) must be set and whose other bits must be
// clear. Any other header — a JSON body, an unknown magic, version or kind, a
// flag-free task — is ErrFormat.
//
// Fields follow in fixed order: varints (encoding/binary) for integers,
// 8-byte little-endian IEEE-754 for floats, uvarint-length-prefixed blobs
// for strings and digests. The one bulky field of each message — the weight
// vector — is always last, written with tensor.AppendEncode so encoding into
// a reused buffer never copies the vector twice and decoding can alias the
// tail of the frame.
const (
	binMagic = 0xB5

	binKindTask = 0x01
	// 0x02 was the hash-list result; it is retired and never reused.
	binKindOpenRequest   = 0x03
	binKindOpenResponse  = 0x04
	binKindResult        = 0x05
	binKindProofRequest  = 0x06
	binKindProofResponse = 0x07

	// taskFlagMerkleRoot is bit 0 of the task flags byte, always set.
	taskFlagMerkleRoot = 0x01
)

// maxWireCheckpoints bounds the checkpoint count any decoded submission may
// declare, so attacker-controlled bytes can never force an allocation larger
// than the claim a verifier would accept (rpol's verifier applies the same
// cap).
const maxWireCheckpoints = 1 << 20

var errBinTruncated = errors.New("wire: truncated binary message")

// binVersion is the header version kind is encoded at.
func binVersion(kind byte) byte {
	if kind == binKindOpenRequest || kind == binKindOpenResponse {
		return 1
	}
	return 2
}

func appendBinHeader(dst []byte, kind byte) []byte {
	return append(dst, binMagic, binVersion(kind), kind)
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
	buf []byte
	off int
	err error
}

// newBinReader validates the three-byte header against kind's and positions
// the reader on the first field. A foreign first byte is ErrFormat however
// short the payload, so a JSON body never reads as a truncation.
func newBinReader(data []byte, kind byte) (*binReader, error) {
	if len(data) > 0 && data[0] != binMagic {
		return nil, fmt.Errorf("magic 0x%02x: %w", data[0], ErrFormat)
	}
	if len(data) < 3 {
		return nil, errBinTruncated
	}
	if data[1] != binVersion(kind) || data[2] != kind {
		return nil, fmt.Errorf("version %d kind 0x%02x, want version %d kind 0x%02x: %w",
			data[1], data[2], binVersion(kind), kind, ErrFormat)
	}
	return &binReader{buf: data, off: 3}, nil
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
	dst = append(appendBinHeader(dst, binKindTask), taskFlagMerkleRoot)
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

// decodeTask parses a task produced by AppendTask, rebuilding its LSH family
// into prev's storage (lsh.RebuildFamily: prev is consumed; nil allocates)
// and decoding its global model into global's (tensor.DecodeVectorInto).
func decodeTask(data []byte, prev *lsh.Family, global tensor.Vector) (rpol.TaskParams, error) {
	r, err := newBinReader(data, binKindTask)
	if err != nil {
		return rpol.TaskParams{}, fmt.Errorf("wire task: %w", err)
	}
	if flags := r.byteVal(); r.err == nil && flags != taskFlagMerkleRoot {
		return rpol.TaskParams{}, fmt.Errorf("wire task: flags 0x%02x, want 0x%02x: %w", flags, taskFlagMerkleRoot, ErrFormat)
	}
	var p rpol.TaskParams
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
		return rpol.TaskParams{}, fmt.Errorf("wire task: lsh presence byte 0x%02x: %w", hasLSH, ErrFormat)
	}
	rest := r.rest()
	if r.err != nil {
		return rpol.TaskParams{}, fmt.Errorf("wire task: %w", r.err)
	}
	global, err = tensor.DecodeVectorInto(global, rest)
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
// returns the extended slice: the 32-byte Merkle root regardless of
// checkpoint count, the update vector last.
func AppendResult(dst []byte, r *rpol.EpochResult) ([]byte, error) {
	if r == nil {
		return nil, errors.New("wire: nil result")
	}
	dst = appendBinHeader(dst, binKindResult)
	dst = appendBinString(dst, r.WorkerID)
	dst = binary.AppendVarint(dst, int64(r.Epoch))
	dst = binary.AppendVarint(dst, int64(r.DataSize))
	dst = binary.AppendVarint(dst, int64(r.NumCheckpoints))
	dst = append(dst, r.MerkleRoot[:]...)
	return r.Update.AppendEncode(dst), nil
}

// DecodeResult parses a result produced by AppendResult. The declared
// checkpoint count is bounded before anything is sized by it.
func DecodeResult(data []byte) (*rpol.EpochResult, error) {
	return decodeResult(data, nil)
}

// decodeResult is DecodeResult decoding the update into update's storage
// (tensor.DecodeVectorInto).
func decodeResult(data []byte, update tensor.Vector) (*rpol.EpochResult, error) {
	r, err := newBinReader(data, binKindResult)
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
	}
	rest := r.rest()
	if r.err != nil {
		return nil, fmt.Errorf("wire result: %w", r.err)
	}
	if out.NumCheckpoints < 1 || out.NumCheckpoints > maxWireCheckpoints {
		return nil, fmt.Errorf("wire result: claimed checkpoint count %d out of range [1, %d]", out.NumCheckpoints, maxWireCheckpoints)
	}
	update, err = tensor.DecodeVectorInto(update, rest)
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

// DecodeOpenRequest parses a checkpoint-opening request.
func DecodeOpenRequest(data []byte) (OpenRequestMsg, error) {
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

// decodeOpenResponse parses an open response.
func decodeOpenResponse(data []byte) (OpenResponseMsg, error) {
	r, err := newBinReader(data, binKindOpenResponse)
	if err != nil {
		return OpenResponseMsg{}, fmt.Errorf("wire open response: %w", err)
	}
	out := OpenResponseMsg{}
	out.Idx = int(r.varint())
	out.Err = string(r.blob())
	if out.Err == "" {
		out.Weights = r.rest()
	}
	if r.err != nil {
		return OpenResponseMsg{}, fmt.Errorf("wire open response: %w", r.err)
	}
	return out, nil
}

// AppendProofRequest appends the binary encoding of a Merkle proof pull for
// leaf idx.
func AppendProofRequest(dst []byte, idx int) []byte {
	dst = appendBinHeader(dst, binKindProofRequest)
	return binary.AppendVarint(dst, int64(idx))
}

// DecodeProofRequest parses a Merkle proof pull.
func DecodeProofRequest(data []byte) (ProofRequestMsg, error) {
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
	dst = appendBinHeader(dst, binKindProofResponse)
	dst = binary.AppendVarint(dst, int64(idx))
	dst = appendBinString(dst, errMsg)
	if errMsg != "" {
		return dst
	}
	dst = binary.AppendUvarint(dst, uint64(lp.Proof.Size()))
	dst = lp.Proof.AppendEncode(dst)
	return appendBinBlob(dst, lp.Digest)
}

// decodeProofResponse parses a proof-pull response. The returned digest is
// copied out of the frame so callers may reuse the receive buffer.
func decodeProofResponse(data []byte) (ProofResponseMsg, error) {
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
