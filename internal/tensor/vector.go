// Package tensor provides the dense float64 vector and matrix kernels that
// the rest of the repository builds on: model weights, gradients, LSH
// projections, and checkpoint payloads are all tensor.Vector values.
//
// The package is deliberately minimal — it implements exactly the linear
// algebra the RPoL protocol and its neural-network substrate need, with
// deterministic seeded initialization so that training runs are replayable.
package tensor

import (
	"errors"
	"fmt"
	"math"
)

// Vector is a dense one-dimensional array of float64 values. It is the
// canonical representation of flattened model weights in this repository.
type Vector []float64

// ErrShapeMismatch is returned when an operation receives operands whose
// dimensions are incompatible.
var ErrShapeMismatch = errors.New("tensor: shape mismatch")

// NewVector returns a zero-initialized vector with n elements.
func NewVector(n int) Vector {
	return make(Vector, n)
}

// Clone returns a deep copy of v.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// Zero sets every element of v to 0 in place.
func (v Vector) Zero() {
	for i := range v {
		v[i] = 0
	}
}

// Fill sets every element of v to x in place.
func (v Vector) Fill(x float64) {
	for i := range v {
		v[i] = x
	}
}

// Add returns v + w as a new vector.
func (v Vector) Add(w Vector) (Vector, error) { return v.AddInto(nil, w) }

// AddInto writes v + w into dst's storage (allocated when nil or too small)
// and returns it; dst may be v or w. The elements are Add's bits.
func (v Vector) AddInto(dst, w Vector) (Vector, error) {
	if len(v) != len(w) {
		return nil, fmt.Errorf("add %d vs %d: %w", len(v), len(w), ErrShapeMismatch)
	}
	out := Resize(dst, len(v))
	for i := range v {
		out[i] = v[i] + w[i]
	}
	return out, nil
}

// Sub returns v - w as a new vector.
func (v Vector) Sub(w Vector) (Vector, error) { return v.SubInto(nil, w) }

// SubInto writes v - w into dst's storage (allocated when nil or too small)
// and returns it; dst may be v or w. The elements are Sub's bits.
func (v Vector) SubInto(dst, w Vector) (Vector, error) {
	if len(v) != len(w) {
		return nil, fmt.Errorf("sub %d vs %d: %w", len(v), len(w), ErrShapeMismatch)
	}
	out := Resize(dst, len(v))
	for i := range v {
		out[i] = v[i] - w[i]
	}
	return out, nil
}

// SameStorage reports whether a and b are non-empty and start at the same
// element. Owners of whole model vectors use it to recognise one of theirs
// handed back to them; it does not detect a partial overlap.
func SameStorage(a, b Vector) bool {
	return len(a) > 0 && len(b) > 0 && &a[0] == &b[0]
}

// Resize returns dst resliced to n elements, or a fresh zeroed vector when
// dst is nil or its capacity is short. A resliced dst keeps its contents.
func Resize(dst Vector, n int) Vector {
	if dst == nil || cap(dst) < n {
		return make(Vector, n)
	}
	return dst[:n]
}

// AXPY performs v += alpha*w in place. It is the hot-path update used by
// every optimizer in internal/nn.
func (v Vector) AXPY(alpha float64, w Vector) error {
	if len(v) != len(w) {
		return fmt.Errorf("axpy %d vs %d: %w", len(v), len(w), ErrShapeMismatch)
	}
	for i := range v {
		v[i] += float64(alpha * w[i])
	}
	return nil
}

// Scale multiplies every element of v by alpha in place.
func (v Vector) Scale(alpha float64) {
	for i := range v {
		v[i] *= alpha
	}
}

// Dot returns the inner product of v and w.
func (v Vector) Dot(w Vector) (float64, error) {
	if len(v) != len(w) {
		return 0, fmt.Errorf("dot %d vs %d: %w", len(v), len(w), ErrShapeMismatch)
	}
	var s float64
	for i := range v {
		s += float64(v[i] * w[i])
	}
	return s, nil
}

// Norm2 returns the Euclidean (L2) norm of v.
func (v Vector) Norm2() float64 {
	var s float64
	for _, x := range v {
		s += float64(x * x)
	}
	return math.Sqrt(s)
}

// Distance returns the Euclidean distance between v and w. This is the
// distance measure used throughout the paper for reproduction errors and
// spoof distances (Sec. VII-C).
func Distance(v, w Vector) (float64, error) {
	if len(v) != len(w) {
		return 0, fmt.Errorf("distance %d vs %d: %w", len(v), len(w), ErrShapeMismatch)
	}
	var s float64
	for i := range v {
		d := v[i] - w[i]
		s += float64(d * d)
	}
	return math.Sqrt(s), nil
}

// MaxAbs returns the largest absolute element of v, or 0 for an empty vector.
func (v Vector) MaxAbs() float64 {
	var m float64
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// Sum returns the sum of all elements of v.
func (v Vector) Sum() float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// Equal reports whether v and w have the same length and all elements are
// within tol of each other.
func (v Vector) Equal(w Vector, tol float64) bool {
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if math.Abs(v[i]-w[i]) > tol {
			return false
		}
	}
	return true
}

// IsFinite reports whether every element of v is a finite number.
func (v Vector) IsFinite() bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}
