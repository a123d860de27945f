package tensor

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Encoding limits guard against corrupt or adversarial payloads: a decoded
// vector may not claim more elements than maxDecodeElems.
const maxDecodeElems = 1 << 28

var errCorruptVector = errors.New("tensor: corrupt vector encoding")

// Encode serializes v to a compact binary form: an 8-byte little-endian
// length prefix followed by IEEE-754 float64 values. This is the wire and
// hash representation used for checkpoints and commitments — identical
// weights always produce identical bytes.
func (v Vector) Encode() []byte {
	return v.AppendEncode(nil)
}

// AppendEncode appends the Encode representation of v to dst and returns the
// extended slice, following the append-style stdlib convention. Hashing and
// wire paths that commit checkpoints every interval reuse one buffer across
// calls instead of copying the full weight vector per commitment.
func (v Vector) AppendEncode(dst []byte) []byte {
	off := len(dst)
	need := EncodedSize(len(v))
	if cap(dst)-off < need {
		grown := make([]byte, off, off+need)
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:off+need]
	binary.LittleEndian.PutUint64(dst[off:], uint64(len(v)))
	for i, x := range v {
		binary.LittleEndian.PutUint64(dst[off+8+8*i:], math.Float64bits(x))
	}
	return dst
}

// EncodedSize returns the number of bytes Encode produces for a vector with
// n elements. The network cost model uses it to account for transfers
// without materializing payloads.
func EncodedSize(n int) int { return 8 + 8*n }

// DecodeVector parses a vector previously produced by Encode.
func DecodeVector(buf []byte) (Vector, error) { return DecodeVectorInto(nil, buf) }

// DecodeVectorInto is DecodeVector writing into dst's storage (allocated when
// nil or too small) and returning it. On an error dst is not written.
func DecodeVectorInto(dst Vector, buf []byte) (Vector, error) {
	if len(buf) < 8 {
		return nil, fmt.Errorf("short header (%d bytes): %w", len(buf), errCorruptVector)
	}
	n := binary.LittleEndian.Uint64(buf)
	if n > maxDecodeElems {
		return nil, fmt.Errorf("claimed %d elements: %w", n, errCorruptVector)
	}
	want := 8 + 8*int(n)
	if len(buf) != want {
		return nil, fmt.Errorf("length %d, want %d: %w", len(buf), want, errCorruptVector)
	}
	v := Resize(dst, int(n))
	for i := range v {
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8+8*i:]))
	}
	return v, nil
}
