package tensor

import (
	"math"
	"testing"
)

// TestNormalKeyedIsAFunctionOfKeyAndIndex: element i depends on (key, i)
// alone — refilling reproduces it, a shorter fill is a prefix of a longer
// one, the std only scales it — and distinct keys share nothing.
func TestNormalKeyedIsAFunctionOfKeyAndIndex(t *testing.T) {
	key := KeyOf(1, 2, 3)
	long, short := NewVector(4096), NewVector(1000)
	FillNormalKeyed(long, key, 1)
	FillNormalKeyed(short, key, 1)
	if !short.Equal(long[:len(short)], 0) {
		t.Fatal("a shorter fill is not a prefix of a longer one under the same key")
	}
	again := NewVector(len(long))
	FillNormalKeyed(again, key, 1)
	if !again.Equal(long, 0) {
		t.Fatal("refilling under the same key drew different values")
	}
	scaled := NewVector(len(long))
	FillNormalKeyed(scaled, key, 0.25)
	for i := range long {
		if scaled[i] != 0.25*long[i] {
			t.Fatalf("element %d: std 0.25 gives %v, want %v", i, scaled[i], 0.25*long[i])
		}
	}
	other := NewVector(len(long))
	FillNormalKeyed(other, KeyOf(1, 2, 4), 1)
	for i := range long {
		if other[i] == long[i] {
			t.Fatalf("element %d equal under keys differing in one word", i)
		}
	}
	if KeyOf(1, 2) == KeyOf(2, 1) || KeyOf(0) == KeyOf(0, 0) {
		t.Error("KeyOf ignores word order or list length")
	}
}

// TestAddNormalKeyedSumsTermsFirst: AddNormalKeyed adds (std·x_i + offset[i])
// to dst, the two terms rounded together before they reach it, or std·x_i
// alone under a nil offset.
func TestAddNormalKeyedSumsTermsFirst(t *testing.T) {
	const n = 2048
	key := KeyOf(9)
	rng := NewRNG(5)
	dst, offset := rng.NormalVector(n, 0, 1), rng.NormalVector(n, 0, 1e-3)
	noise := NewVector(n)
	FillNormalKeyed(noise, key, 1e-4)
	want := dst.Clone()
	for i := range want {
		want[i] += noise[i] + offset[i]
	}
	AddNormalKeyed(dst, key, 1e-4, offset)
	if !dst.Equal(want, 0) {
		t.Fatal("AddNormalKeyed differs from dst += fill + offset")
	}
	plain := offset.Clone()
	AddNormalKeyed(plain, key, 1e-4, nil)
	for i := range plain {
		if want := offset[i] + noise[i]; plain[i] != want {
			t.Fatalf("element %d: nil offset adds %v, want %v", i, plain[i]-offset[i], noise[i])
		}
	}
}

// TestNormalKeyedTail: the draws outside the ziggurat's rectangles are taken
// (1 − mean(kn)/2^31 = 2.76 % of them, beyond the base strip's edge
// included) and stay finite.
func TestNormalKeyedTail(t *testing.T) {
	const n = 1 << 18
	v := NewVector(n)
	FillNormalKeyed(v, KeyOf(7), 1)
	tail, beyond := 0, 0
	for i := range v {
		if _, ok := ziggurat(mix64(KeyOf(7) + uint64(i+1)*golden)); !ok {
			tail++
		}
		if math.Abs(v[i]) > rn {
			beyond++
		}
		if math.IsNaN(v[i]) || math.IsInf(v[i], 0) {
			t.Fatalf("element %d is %v", i, v[i])
		}
	}
	if share := float64(tail) / n; share < 0.0256 || share > 0.0296 {
		t.Errorf("%.4f of draws left the fast path, want 0.0276", share)
	}
	// P(|z| > rn) ≈ 5.8e-4: about 150 of 2^18.
	if beyond < 75 || beyond > 300 {
		t.Errorf("%d of %d draws beyond ±%v, want about 150", beyond, n, rn)
	}
}

// benchDim is the flattened model size of the benchmark's proofs4 workload.
const benchDim = 5568

func BenchmarkFillNormalKeyed(b *testing.B) {
	v := NewVector(benchDim)
	b.SetBytes(8 * benchDim)
	for i := 0; i < b.N; i++ {
		FillNormalKeyed(v, uint64(i), 1)
	}
}

func BenchmarkFillNormalStream(b *testing.B) {
	v := NewVector(benchDim)
	rng := NewRNG(1)
	b.SetBytes(8 * benchDim)
	for i := 0; i < b.N; i++ {
		for j := range v {
			v[j] = rng.NormFloat64()
		}
	}
}
