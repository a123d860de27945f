package tensor

import (
	"fmt"
	"math"
	"math/bits"
)

// Element-wise kernels of the dense training step: the momentum update and
// the ReLU mask. Each has a portable loop and an AVX-512 tier that computes
// every element with the same operations in the same order, so the tier
// chooses speed only.

// MomentumStep applies one SGD-with-momentum update in place:
// v[i] = mu·v[i] + g[i], then p[i] = p[i] − lr·v[i].
func MomentumStep(p, v, g Vector, mu, lr float64) error {
	if len(v) != len(p) || len(g) != len(p) {
		return fmt.Errorf("momentum %d, velocity %d, grad %d: %w", len(p), len(v), len(g), ErrShapeMismatch)
	}
	if useAVX512 && len(p) > 0 {
		momentum512(&p[0], &v[0], &g[0], len(p), mu, lr)
		return nil
	}
	v, g = v[:len(p)], g[:len(p)]
	for j := range p {
		vj := float64(mu*v[j]) + g[j]
		v[j] = vj
		p[j] -= float64(lr * vj)
	}
	return nil
}

// MaskPositive sets dst[i] = v[i] where by[i] > 0 and +0 elsewhere: ±0,
// every negative and every NaN in by select +0. With by = v it is the ReLU
// forward, with v the output gradient and by the input the ReLU backward.
// dst may alias v or by.
func MaskPositive(dst, v, by Vector) error {
	if len(v) != len(dst) || len(by) != len(dst) {
		return fmt.Errorf("mask %d by %d into %d: %w", len(v), len(by), len(dst), ErrShapeMismatch)
	}
	if useAVX512 && len(dst) > 0 {
		maskPositive512(&dst[0], &v[0], &by[0], len(dst))
		return nil
	}
	v, by = v[:len(dst)], by[:len(dst)]
	for i, b := range by {
		dst[i] = math.Float64frombits(math.Float64bits(v[i]) & positiveMask(math.Float64bits(b)))
	}
	return nil
}

// positiveMask returns all ones when b is the bit pattern of a float64 v
// with v > 0 and zero otherwise, without a branch: activations split about
// evenly around zero, so a compare-and-jump per element mispredicts half the
// time. v > 0 holds exactly for 0 < b ≤ bits(+Inf) — everything above is a
// NaN or carries the sign bit — i.e. for b−1 below bits(+Inf) as unsigned
// numbers (b = 0 wraps to the maximum), which is the borrow of one
// subtraction. So ±0, every negative and every NaN mask to +0, as `if v > 0`
// leaving a zeroed slot did.
func positiveMask(b uint64) uint64 {
	const inf = 0x7FF0000000000000
	_, borrow := bits.Sub64(b-1, inf, 0)
	return -borrow
}
