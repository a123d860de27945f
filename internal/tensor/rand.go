package tensor

import (
	"math"
	"math/rand"
)

// RNG is a deterministic random source for tensor initialization and noise
// injection. It wraps math/rand with the distributions the repository needs.
// Every consumer of randomness in this codebase takes an explicit *RNG so
// that training runs, adversary behaviour, and LSH families are replayable
// from a seed.
type RNG struct {
	src *rand.Rand
}

// NewRNG returns a deterministic RNG seeded with seed.
func NewRNG(seed int64) *RNG {
	return &RNG{src: rand.New(rand.NewSource(seed))}
}

// Seed rewinds r to the stream NewRNG(seed) starts, without allocating.
func (r *RNG) Seed(seed int64) { r.src.Seed(seed) }

// Intn returns a uniform value in [0, n).
func (r *RNG) Intn(n int) int { return r.src.Intn(n) }

// Int63 returns a non-negative uniform 63-bit integer.
func (r *RNG) Int63() int64 { return r.src.Int63() }

// Uniform returns a value drawn uniformly from [lo, hi).
func (r *RNG) Uniform(lo, hi float64) float64 {
	return lo + float64((hi-lo)*r.src.Float64())
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int { return r.src.Perm(n) }

// Shuffle randomizes the order of n elements using swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) { r.src.Shuffle(n, swap) }

// NormalVector returns a vector of n normal variates with the given mean and
// standard deviation.
func (r *RNG) NormalVector(n int, mean, std float64) Vector {
	v := make(Vector, n)
	r.FillNormal(v, mean, std)
	return v
}

// FillNormal overwrites v with normal variates, the draws NormalVector makes
// for a vector of v's length.
func (r *RNG) FillNormal(v Vector, mean, std float64) {
	for i := range v {
		v[i] = mean + float64(std*r.src.NormFloat64())
	}
}

// UniformVector returns a vector of n uniform variates in [lo, hi).
func (r *RNG) UniformVector(n int, lo, hi float64) Vector {
	v := make(Vector, n)
	for i := range v {
		v[i] = r.Uniform(lo, hi)
	}
	return v
}

// XavierMatrix returns a rows×cols matrix initialized with the Glorot/Xavier
// uniform scheme, the default weight initialization for layers in
// internal/nn.
func (r *RNG) XavierMatrix(rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	limit := math.Sqrt(6.0 / float64(rows+cols))
	for i := range m.Data {
		m.Data[i] = r.Uniform(-limit, limit)
	}
	return m
}
