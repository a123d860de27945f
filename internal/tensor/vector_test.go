package tensor

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestNewVectorZeroed(t *testing.T) {
	v := NewVector(5)
	if len(v) != 5 {
		t.Fatalf("len = %d, want 5", len(v))
	}
	for i, x := range v {
		if x != 0 {
			t.Errorf("v[%d] = %v, want 0", i, x)
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	v := Vector{1, 2, 3}
	w := v.Clone()
	w[0] = 99
	if v[0] != 1 {
		t.Errorf("clone aliases original: v[0] = %v", v[0])
	}
}

func TestAddSub(t *testing.T) {
	v := Vector{1, 2, 3}
	w := Vector{4, 5, 6}
	sum, err := v.Add(w)
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Equal(Vector{5, 7, 9}, 0) {
		t.Errorf("Add = %v", sum)
	}
	diff, err := w.Sub(v)
	if err != nil {
		t.Fatal(err)
	}
	if !diff.Equal(Vector{3, 3, 3}, 0) {
		t.Errorf("Sub = %v", diff)
	}
}

func TestShapeMismatchErrors(t *testing.T) {
	v := Vector{1, 2}
	w := Vector{1, 2, 3}
	if _, err := v.Add(w); !errors.Is(err, ErrShapeMismatch) {
		t.Errorf("Add err = %v, want ErrShapeMismatch", err)
	}
	if _, err := v.Sub(w); !errors.Is(err, ErrShapeMismatch) {
		t.Errorf("Sub err = %v, want ErrShapeMismatch", err)
	}
	if _, err := v.Dot(w); !errors.Is(err, ErrShapeMismatch) {
		t.Errorf("Dot err = %v, want ErrShapeMismatch", err)
	}
	if err := v.AXPY(1, w); !errors.Is(err, ErrShapeMismatch) {
		t.Errorf("AXPY err = %v, want ErrShapeMismatch", err)
	}
	if _, err := Distance(v, w); !errors.Is(err, ErrShapeMismatch) {
		t.Errorf("Distance err = %v, want ErrShapeMismatch", err)
	}
}

func TestAXPY(t *testing.T) {
	v := Vector{1, 1, 1}
	if err := v.AXPY(2, Vector{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if !v.Equal(Vector{3, 5, 7}, 0) {
		t.Errorf("AXPY = %v", v)
	}
}

func TestDotNorm(t *testing.T) {
	v := Vector{3, 4}
	d, err := v.Dot(v)
	if err != nil {
		t.Fatal(err)
	}
	if d != 25 {
		t.Errorf("Dot = %v, want 25", d)
	}
	if n := v.Norm2(); n != 5 {
		t.Errorf("Norm2 = %v, want 5", n)
	}
}

func TestDistance(t *testing.T) {
	d, err := Distance(Vector{0, 0}, Vector{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if d != 5 {
		t.Errorf("Distance = %v, want 5", d)
	}
}

func TestMaxAbsSumFill(t *testing.T) {
	v := Vector{-7, 2, 3}
	if m := v.maxAbs(); m != 7 {
		t.Errorf("MaxAbs = %v, want 7", m)
	}
	if s := v.Sum(); s != -2 {
		t.Errorf("Sum = %v, want -2", s)
	}
	v.Fill(1.5)
	if !v.Equal(Vector{1.5, 1.5, 1.5}, 0) {
		t.Errorf("Fill = %v", v)
	}
	v.Zero()
	if !v.Equal(Vector{0, 0, 0}, 0) {
		t.Errorf("Zero = %v", v)
	}
}

func TestIsFinite(t *testing.T) {
	if !(Vector{1, 2}).IsFinite() {
		t.Error("finite vector reported non-finite")
	}
	if (Vector{1, math.NaN()}).IsFinite() {
		t.Error("NaN vector reported finite")
	}
	if (Vector{math.Inf(1)}).IsFinite() {
		t.Error("Inf vector reported finite")
	}
}

func TestEqualTolerance(t *testing.T) {
	v := Vector{1.0, 2.0}
	w := Vector{1.0001, 2.0001}
	if v.Equal(w, 1e-6) {
		t.Error("Equal with tight tolerance should fail")
	}
	if !v.Equal(w, 1e-3) {
		t.Error("Equal with loose tolerance should pass")
	}
	if v.Equal(Vector{1}, 1) {
		t.Error("Equal must reject different lengths")
	}
}

// Property: distance is symmetric and satisfies d(v,v)=0.
func TestDistanceProperties(t *testing.T) {
	f := func(a, b []float64) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		v, w := Vector(a[:n]), Vector(b[:n])
		if !v.IsFinite() || !w.IsFinite() {
			return true
		}
		d1, err1 := Distance(v, w)
		d2, err2 := Distance(w, v)
		if err1 != nil || err2 != nil {
			return false
		}
		if d1 != d2 {
			return false
		}
		self, err := Distance(v, v)
		return err == nil && self == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: triangle inequality for Euclidean distance.
func TestDistanceTriangleInequality(t *testing.T) {
	f := func(a, b, c [8]float64) bool {
		v, w, u := Vector(a[:]), Vector(b[:]), Vector(c[:])
		for _, x := range [...]Vector{v, w, u} {
			if !x.IsFinite() || x.maxAbs() > 1e100 {
				return true
			}
		}
		dvw, _ := Distance(v, w)
		dvu, _ := Distance(v, u)
		duw, _ := Distance(u, w)
		return dvw <= dvu+duw+1e-9*(1+dvu+duw)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Add then Sub round-trips.
func TestAddSubRoundTrip(t *testing.T) {
	f := func(a, b [6]float64) bool {
		v, w := Vector(a[:]), Vector(b[:])
		if !v.IsFinite() || !w.IsFinite() || v.maxAbs() > 1e150 || w.maxAbs() > 1e150 {
			return true
		}
		sum, err := v.Add(w)
		if err != nil {
			return false
		}
		back, err := sum.Sub(w)
		if err != nil {
			return false
		}
		return back.Equal(v, 1e-9*(1+v.maxAbs()+w.maxAbs()))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestDotLanesMatchesDot: every lane-packed dot product equals Vector.Dot of
// the vector it packs, bit for bit, on the host's kernels and on the portable
// ones, for 1 to 17 vectors (every remainder of the four-block passes) and
// lengths around the kernel's.
func TestDotLanesMatchesDot(t *testing.T) {
	rng := NewRNG(17)
	for _, n := range []int{0, 1, 2, 7, 257, 5546} {
		x := rng.NormalVector(n, 0, 3)
		for vectors := 1; vectors <= 17; vectors++ {
			vs := make([]Vector, vectors)
			pack := NewVector(PackLen(vectors, n))
			for p := range vs {
				vs[p] = rng.NormalVector(n, 0, 1)
				for i, v := range vs[p] {
					pack[p/LaneBlock*LaneBlock*n+LaneBlock*i+p%LaneBlock] = v
				}
			}
			for _, portable := range []bool{false, true} {
				prev := SetPortable(portable)
				got := make([]float64, vectors)
				DotLanes(got, pack, x)
				SetPortable(prev)
				for p, v := range vs {
					want, err := v.Dot(x)
					if err != nil {
						t.Fatal(err)
					}
					if math.Float64bits(got[p]) != math.Float64bits(want) {
						t.Fatalf("n=%d, %d vectors, portable %v: dot %d = %v, Vector.Dot %v", n, vectors, portable, p, got[p], want)
					}
				}
			}
		}
	}
}

// TestSpares pins the free list's rules: Get hands back the newest spare of
// the asked length as it is, discards newer spares of another length on the
// way, allocates when none is left, and Drop removes a vector the owner must
// not refill.
func TestSpares(t *testing.T) {
	a, b, c := Vector{1, 2}, Vector{3, 4, 5}, Vector{6, 7}
	var s Spares
	s.Put(a, b, c)
	s.Drop(c[:1])
	if got := s.Get(2); !SameStorage(got, a) || got[0] != 1 {
		t.Fatalf("Get(2) = %v, want a, unchanged, past the dropped c and the discarded b", got)
	}
	if len(s) != 0 {
		t.Fatalf("%d spares left, want none", len(s))
	}
	if got := s.Get(3); len(got) != 3 || SameStorage(got, b) || got.Norm2() != 0 {
		t.Fatalf("Get(3) on an empty list = %v, want a fresh zeroed vector", got)
	}
	s.Put(c)
	if got := s.Copy(a); !SameStorage(got, c) || !got.Equal(a, 0) {
		t.Fatalf("Copy(a) = %v, want a's values in c's storage", got)
	}
}
