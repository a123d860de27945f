package tensor

import (
	"errors"
	"math"
	"testing"
)

func TestMatrixAtSetRow(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Row(1)[2] = 7
	if got := m.Data[1*3+2]; got != 7 {
		t.Errorf("element (1,2) stored as %v, want 7: storage is row-major", got)
	}
	row := m.Row(1)
	if row[2] != 7 {
		t.Errorf("Row(1)[2] = %v, want 7", row[2])
	}
	row[0] = 5 // Row aliases storage.
	if m.Row(1)[0] != 5 {
		t.Error("Row must alias matrix storage")
	}
}

func TestMatrixClone(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Row(0)[0] = 1
	c := m.clone()
	c.Row(0)[0] = 9
	if m.Row(0)[0] != 1 {
		t.Error("Clone must not alias original")
	}
}

func TestMulVec(t *testing.T) {
	m := NewMatrix(2, 3)
	// [1 2 3; 4 5 6]
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			m.Row(i)[j] = float64(i*3 + j + 1)
		}
	}
	y := NewVector(2)
	if err := m.MulVecInto(y, Vector{1, 1, 1}); err != nil {
		t.Fatal(err)
	}
	if !y.Equal(Vector{6, 15}, 1e-12) {
		t.Errorf("MulVecInto = %v", y)
	}
	yt := NewVector(3)
	if err := m.MulVecTInto(yt, Vector{1, 1}); err != nil {
		t.Fatal(err)
	}
	if !yt.Equal(Vector{5, 7, 9}, 1e-12) {
		t.Errorf("MulVecTInto = %v", yt)
	}
}

func TestMulVecShapeErrors(t *testing.T) {
	m := NewMatrix(2, 3)
	if err := m.MulVecInto(NewVector(2), Vector{1, 1}); !errors.Is(err, ErrShapeMismatch) {
		t.Errorf("MulVecInto err = %v", err)
	}
	if err := m.MulVecTInto(NewVector(3), Vector{1, 1, 1}); !errors.Is(err, ErrShapeMismatch) {
		t.Errorf("MulVecTInto err = %v", err)
	}
	if err := m.AddOuter(1, Vector{1}, Vector{1, 1, 1}); !errors.Is(err, ErrShapeMismatch) {
		t.Errorf("AddOuter err = %v", err)
	}
}

func TestAddOuter(t *testing.T) {
	m := NewMatrix(2, 2)
	if err := m.AddOuter(2, Vector{1, 2}, Vector{3, 4}); err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{6, 8}, {12, 16}}
	for i := range want {
		for j := range want[i] {
			if got := m.Row(i)[j]; got != want[i][j] {
				t.Errorf("m[%d][%d] = %v, want %v", i, j, got, want[i][j])
			}
		}
	}
}

func TestSpectralNormDiagonal(t *testing.T) {
	m := NewMatrix(3, 3)
	m.Row(0)[0] = 2
	m.Row(1)[1] = 5
	m.Row(2)[2] = 1
	got := m.SpectralNorm(50)
	if math.Abs(got-5) > 1e-6 {
		t.Errorf("SpectralNorm = %v, want 5", got)
	}
}

func TestSpectralNormScaling(t *testing.T) {
	rng := NewRNG(42)
	m := rng.XavierMatrix(16, 16)
	s1 := m.SpectralNorm(60)
	m.Data.Scale(3)
	s3 := m.SpectralNorm(60)
	if math.Abs(s3-3*s1) > 1e-6*(1+s1) {
		t.Errorf("SpectralNorm scaling: got %v, want %v", s3, 3*s1)
	}
}

func TestSpectralNormEmpty(t *testing.T) {
	m := NewMatrix(0, 0)
	if got := m.SpectralNorm(10); got != 0 {
		t.Errorf("SpectralNorm(empty) = %v, want 0", got)
	}
	z := NewMatrix(3, 3) // all zeros
	if got := z.SpectralNorm(10); got != 0 {
		t.Errorf("SpectralNorm(zero) = %v, want 0", got)
	}
}

func TestSpectralNormUpperBoundsMulVec(t *testing.T) {
	rng := NewRNG(7)
	m := rng.XavierMatrix(10, 8)
	sigma := m.SpectralNorm(100)
	for trial := 0; trial < 20; trial++ {
		x := rng.NormalVector(8, 0, 1)
		y := NewVector(10)
		if err := m.MulVecInto(y, x); err != nil {
			t.Fatal(err)
		}
		if xn := x.Norm2(); xn > 0 {
			ratio := y.Norm2() / xn
			if ratio > sigma*(1+1e-6) {
				t.Errorf("‖Mx‖/‖x‖ = %v exceeds σ = %v", ratio, sigma)
			}
		}
	}
}
