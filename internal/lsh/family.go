package lsh

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"

	"rpol/internal/parallel"
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
	// projections[g][f] is the Gaussian vector a for group g, function f;
	// offsets[g][f] is the uniform shift b in [0, r).
	projections [][]tensor.Vector
	offsets     [][]float64
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
	f := prev
	if f == nil || f.dim != dim || f.params.K != params.K || f.params.L != params.L {
		f = &Family{
			projections: make([][]tensor.Vector, params.L),
			offsets:     make([][]float64, params.L),
		}
		for g := range f.projections {
			f.projections[g] = make([]tensor.Vector, params.K)
			f.offsets[g] = make([]float64, params.K)
			for fn := range f.projections[g] {
				f.projections[g][fn] = tensor.NewVector(dim)
			}
		}
	}
	f.dim, f.params, f.seed = dim, params, seed
	for g := 0; g < params.L; g++ {
		for fn := 0; fn < params.K; fn++ {
			key := tensor.KeyOf(uint64(seed), uint64(g), uint64(fn))
			tensor.FillNormalKeyed(f.projections[g][fn], key, 1)
			f.offsets[g][fn] = params.R * tensor.UniformKeyed(key)
		}
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
	return f.HashPool(nil, x)
}

// HashPool is Hash with the l groups chunked across the pool. Each group's
// 8-byte hash is a pure function of (x, that group's projections) written to
// its own digest slot, so the result is bit-identical to the serial Hash for
// any worker count. A nil pool runs serially.
func (f *Family) HashPool(p *parallel.Pool, x tensor.Vector) (Digest, error) {
	if len(x) != f.dim {
		return nil, fmt.Errorf("lsh: input %d, want %d: %w", len(x), f.dim, tensor.ErrShapeMismatch)
	}
	d := make(Digest, f.params.L)
	if p.Workers() <= 1 {
		// Serial fast path: one bucket buffer for all K·L projections, on
		// the stack at the usual budget of 16.
		var stack [8 * 16]byte
		buf := stack[:]
		if need := 8 * f.params.K * f.params.L; need > len(buf) {
			buf = make([]byte, need)
		}
		if err := f.hashGroups(d, buf, x, 0, f.params.L); err != nil {
			return nil, err
		}
		return d, nil
	}
	errs := make([]error, parallel.NumChunks(f.params.L, 1))
	p.ForChunks(f.params.L, 1, func(c, lo, hi int) {
		buf := make([]byte, 8*f.params.K)
		errs[c] = f.hashGroups(d, buf, x, lo, hi)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return d, nil
}

// hashGroups fills digest slots lo..hi; buf holds 8 bytes per projection of
// those groups. Every group writes only its own slot, and each group hash is
// a pure function of x and the family, so any partition of the groups yields
// identical digests.
//
// The projections of the range are taken four at a time: one pass over x
// advances four dot products, each still a single accumulation in ascending
// index order (the bits Vector.Dot produces), so four independent add chains
// overlap where one would wait out the adder's latency at every element.
func (f *Family) hashGroups(d Digest, buf []byte, x tensor.Vector, lo, hi int) error {
	k := f.params.K
	n := (hi - lo) * k
	proj := func(j int) tensor.Vector { return f.projections[lo+j/k][j%k] }
	bucket := func(j int, dot float64) {
		b := int64(math.Floor((dot + f.offsets[lo+j/k][j%k]) / f.params.R))
		binary.LittleEndian.PutUint64(buf[8*j:], uint64(b))
	}
	j := 0
	for ; j+4 <= n; j += 4 {
		a0, a1, a2, a3 := proj(j), proj(j+1), proj(j+2), proj(j+3)
		if len(a0) != len(x) || len(a1) != len(x) || len(a2) != len(x) || len(a3) != len(x) {
			return fmt.Errorf("lsh: projection of %d weights, input %d: %w", len(a0), len(x), tensor.ErrShapeMismatch)
		}
		// Equal lengths, restated so the loop indexes without bounds checks.
		a0, a1, a2, a3 = a0[:len(x)], a1[:len(x)], a2[:len(x)], a3[:len(x)]
		var s0, s1, s2, s3 float64
		for i, xi := range x {
			s0 += a0[i] * xi
			s1 += a1[i] * xi
			s2 += a2[i] * xi
			s3 += a3[i] * xi
		}
		bucket(j, s0)
		bucket(j+1, s1)
		bucket(j+2, s2)
		bucket(j+3, s3)
	}
	for ; j < n; j++ {
		dot, err := proj(j).Dot(x)
		if err != nil {
			return err
		}
		bucket(j, dot)
	}
	for g := lo; g < hi; g++ {
		sum := sha256.Sum256(buf[8*k*(g-lo) : 8*k*(g-lo+1)])
		d[g] = binary.LittleEndian.Uint64(sum[:8])
	}
	return nil
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
