package lsh

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"

	"rpol/internal/tensor"
)

// Family is a concrete p-stable LSH family over vectors of a fixed
// dimension. A family is a pure function of (dim, params, seed): the manager
// distributes (params, seed) to pool workers so both sides hash with
// identical projections (Sec. V-C, "distributes them to pool workers for
// producing LSH-based commitment").
type Family struct {
	dim    int
	params Params
	seed   int64
	// lanes holds the K·L Gaussian projection vectors a lane-packed
	// (tensor.DotLanes): projection p = g·K + f, for group g and function
	// f, is lane p%4 of block p/4. offsets[p] is its uniform shift b in
	// [0, r).
	lanes   tensor.Vector
	offsets []float64
}

// Digest is the LSH fingerprint of a vector: one 8-byte hash per group,
// where each group hash condenses its k bucket indices. Two digests match if
// any group hash agrees.
type Digest []uint64

// Size returns the digest's wire size in bytes.
func (d Digest) Size() int { return 8 * len(d) }

// Encode serializes the digest.
func (d Digest) Encode() []byte {
	return d.AppendEncode(make([]byte, 0, d.Size()))
}

// AppendEncode appends the Encode representation to dst and returns the
// extended slice, so wire paths can serialize into a reused buffer.
func (d Digest) AppendEncode(dst []byte) []byte {
	for _, v := range d {
		dst = binary.LittleEndian.AppendUint64(dst, v)
	}
	return dst
}

// DecodeDigest parses a digest previously produced by Encode.
func DecodeDigest(buf []byte) (Digest, error) {
	if len(buf)%8 != 0 {
		return nil, fmt.Errorf("lsh: digest length %d not a multiple of 8", len(buf))
	}
	d := make(Digest, len(buf)/8)
	for i := range d {
		d[i] = binary.LittleEndian.Uint64(buf[8*i:])
	}
	return d, nil
}

// NewFamily constructs the family for vectors of length dim.
func NewFamily(dim int, params Params, seed int64) (*Family, error) {
	return RebuildFamily(nil, dim, params, seed)
}

// RebuildFamily constructs the family NewFamily(dim, params, seed) would —
// same bits — refilling prev's projection and offset storage instead of
// allocating it when prev hashes the same dim with the same K and L (storage
// of any other shape is discarded, never resliced). Projection (g, f) and its
// offset are keyed draws under (seed, g, f), so each is a pure function of
// its coordinates. prev is consumed: it must not be used, by anyone, once
// this is called. A nil prev allocates.
func RebuildFamily(prev *Family, dim int, params Params, seed int64) (*Family, error) {
	if dim < 1 {
		return nil, fmt.Errorf("lsh: dimension %d", dim)
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	n := params.K * params.L
	f := prev
	if f == nil || f.dim != dim || f.params.K != params.K || f.params.L != params.L {
		f = &Family{
			lanes:   tensor.NewVector(tensor.PackLen(n, dim)),
			offsets: make([]float64, n),
		}
	}
	f.dim, f.params, f.seed = dim, params, seed
	var keys [tensor.LaneBlock]uint64
	for lo := 0; lo < n; lo += tensor.LaneBlock {
		lanes := keys[:min(tensor.LaneBlock, n-lo)]
		for l := range lanes {
			p := lo + l
			lanes[l] = tensor.KeyOf(uint64(seed), uint64(p/params.K), uint64(p%params.K))
			f.offsets[p] = params.R * tensor.UniformKeyed(lanes[l])
		}
		tensor.FillNormalKeyedBlock(f.lanes[lo*dim:(lo+tensor.LaneBlock)*dim], lanes, 1)
	}
	return f, nil
}

// Dim returns the vector dimension the family hashes.
func (f *Family) Dim() int { return f.dim }

// Params returns the family's {r, k, l}.
func (f *Family) Params() Params { return f.params }

// Seed returns the seed the family was derived from.
func (f *Family) Seed() int64 { return f.seed }

// Hash computes the digest of x: for each group, the k bucket indices
// ⌊(a·x+b)/r⌋ are folded through SHA-256 into one 8-byte group hash.
func (f *Family) Hash(x tensor.Vector) (Digest, error) {
	if len(x) != f.dim {
		return nil, fmt.Errorf("lsh: input %d, want %d: %w", len(x), f.dim, tensor.ErrShapeMismatch)
	}
	// The dot products sit on the stack at the usual budget of 16.
	n := len(f.offsets)
	var stack [16]float64
	dots := stack[:]
	if n > len(dots) {
		dots = make([]float64, n)
	}
	tensor.DotLanes(dots[:n], f.lanes, x)
	return f.digest(dots), nil
}

// digest turns the K·L dot products into the digest: for each group, the k
// bucket indices ⌊(a·x+b)/r⌋ folded through SHA-256 into 8 bytes.
func (f *Family) digest(dots []float64) Digest {
	k := f.params.K
	var stack [8 * 16]byte
	buf := stack[:]
	if need := 8 * k; need > len(buf) {
		buf = make([]byte, need)
	}
	buf = buf[:8*k]
	d := make(Digest, f.params.L)
	for g := range d {
		for fn := 0; fn < k; fn++ {
			p := g*k + fn
			b := int64(math.Floor((dots[p] + f.offsets[p]) / f.params.R))
			binary.LittleEndian.PutUint64(buf[8*fn:], uint64(b))
		}
		sum := sha256.Sum256(buf)
		d[g] = binary.LittleEndian.Uint64(sum[:8])
	}
	return d
}

// Match reports whether two digests agree in at least one group — the OR
// over l groups of the AND over k functions.
func Match(a, b Digest) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] == b[i] {
			return true
		}
	}
	return false
}
