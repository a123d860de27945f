package tensor

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix of float64 values.
type Matrix struct {
	Rows, Cols int
	Data       Vector // len == Rows*Cols, row-major
}

// NewMatrix returns a zero-initialized rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	return &Matrix{Rows: rows, Cols: cols, Data: NewVector(rows * cols)}
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 {
	return m.Data[i*m.Cols+j]
}

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, x float64) {
	m.Data[i*m.Cols+j] = x
}

// Row returns row i as a slice aliasing the matrix storage.
func (m *Matrix) Row(i int) Vector {
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	return &Matrix{Rows: m.Rows, Cols: m.Cols, Data: m.Data.Clone()}
}

// MulVec computes y = m·x. x must have length m.Cols; the result has length
// m.Rows.
func (m *Matrix) MulVec(x Vector) (Vector, error) {
	y := NewVector(m.Rows)
	if err := m.MulVecInto(y, x); err != nil {
		return nil, err
	}
	return y, nil
}

// MulVecInto computes y = m·x without allocating; y must have length m.Rows.
// It is the scratch-reusing form of MulVec: each output element is one
// left-to-right dot product.
func (m *Matrix) MulVecInto(y, x Vector) error {
	if len(x) != m.Cols || len(y) != m.Rows {
		return fmt.Errorf("mulvec into %dx%d by %d into %d: %w", m.Rows, m.Cols, len(x), len(y), ErrShapeMismatch)
	}
	m.mulVec(y, x)
	return nil
}

func (m *Matrix) mulVec(y, x Vector) {
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		var s float64
		for j, v := range row {
			s += float64(v * x[j])
		}
		y[i] = s
	}
}

// MulVecT computes y = mᵀ·x. x must have length m.Rows; the result has length
// m.Cols. Used for backpropagation through dense layers.
func (m *Matrix) MulVecT(x Vector) (Vector, error) {
	y := NewVector(m.Cols)
	if err := m.MulVecTInto(y, x); err != nil {
		return nil, err
	}
	return y, nil
}

// MulVecTInto computes y = mᵀ·x without allocating; y must have length
// m.Cols. It is the scratch-reusing form of MulVecT: each y[j] is one sum
// over the rows in ascending order.
func (m *Matrix) MulVecTInto(y, x Vector) error {
	if len(x) != m.Rows || len(y) != m.Cols {
		return fmt.Errorf("mulvecT into %dx%d by %d into %d: %w", m.Rows, m.Cols, len(x), len(y), ErrShapeMismatch)
	}
	m.mulVecT(y, x)
	return nil
}

func (m *Matrix) mulVecT(y, x Vector) {
	y.Zero()
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		xi := x[i]
		for j, v := range row {
			y[j] += float64(v * xi)
		}
	}
}

// AddOuter performs m += alpha * x·yᵀ in place, where x has length m.Rows and
// y has length m.Cols. This is the rank-1 gradient accumulation for dense
// layers.
func (m *Matrix) AddOuter(alpha float64, x, y Vector) error {
	if len(x) != m.Rows || len(y) != m.Cols {
		return fmt.Errorf("addouter %dx%d by %dx%d: %w", m.Rows, m.Cols, len(x), len(y), ErrShapeMismatch)
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		ax := alpha * x[i]
		for j := range row {
			row[j] += float64(ax * y[j])
		}
	}
	return nil
}

// SpectralNorm estimates the largest singular value of m using iters rounds
// of power iteration (Adams et al., as cited in Sec. V-A of the paper). The
// starting vector is derived deterministically from the matrix contents so
// the estimate is reproducible.
//
// Three scratch vectors are allocated once and reused across iterations (v
// and w swap roles after each round instead of reallocating). The arithmetic
// — element order and association — matches the historical
// per-iteration-allocation version exactly, so estimates are unchanged bit
// for bit.
func (m *Matrix) SpectralNorm(iters int) float64 {
	if m.Rows == 0 || m.Cols == 0 {
		return 0
	}
	// Deterministic non-zero start vector.
	v := NewVector(m.Cols)
	for j := range v {
		v[j] = math.Cos(float64(float64(j)*1.7) + 0.3)
	}
	norm := v.Norm2()
	if norm == 0 {
		return 0
	}
	v.Scale(1 / norm)
	u := NewVector(m.Rows)
	w := NewVector(m.Cols)
	var sigma float64
	for it := 0; it < iters; it++ {
		m.mulVec(u, v)
		un := u.Norm2()
		if un == 0 {
			return 0
		}
		u.Scale(1 / un)
		m.mulVecT(w, u)
		sigma = w.Norm2()
		if sigma == 0 {
			return 0
		}
		v, w = w, v
		v.Scale(1 / sigma)
	}
	return sigma
}
