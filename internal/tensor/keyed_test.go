package tensor

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
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

// TestNormalKeyedSIMDMatchesPortable holds the AVX-512 kernel to the
// portable loop bit for bit: lengths on both sides of the 16-lane groups and
// of the kernel's chunks, nil and non-nil offsets, several scales, and more
// than 10⁷ draws in all, through AddNormalKeyed, FillNormalKeyed and the
// block fill.
func TestNormalKeyedSIMDMatchesPortable(t *testing.T) {
	if !hasAVX512 {
		t.Skip("no AVX-512 kernel on this host")
	}
	var lengths []int
	for _, edge := range []int{0, 16, 32, keyedChunk, keyedChunk + 16, 2 * keyedChunk, 3*keyedChunk + 16} {
		for d := -1; d <= 1; d++ {
			if edge+d >= 0 {
				lengths = append(lengths, edge+d)
			}
		}
	}
	lengths = append(lengths, benchDim, 1<<20, 1<<20+7, 1<<20+15)
	draws := 0
	for li, n := range lengths {
		for _, std := range []float64{1, 1e-3, -0.7} {
			for _, withOffset := range []bool{false, true} {
				key := KeyOf(uint64(li), math.Float64bits(std))
				rng := NewRNG(int64(n))
				base := rng.NormalVector(n, 0, 1)
				var offset Vector
				if withOffset {
					offset = rng.NormalVector(n+3, 0, 0.1) // longer than dst
				}
				simd, portable := base.Clone(), base.Clone()
				AddNormalKeyed(simd, key, std, offset)
				prev := SetPortable(true)
				AddNormalKeyed(portable, key, std, offset)
				SetPortable(prev)
				if i := firstBitDiff(simd, portable); i >= 0 {
					t.Fatalf("AddNormalKeyed n=%d std=%v offset=%v: element %d is %v on AVX-512, %v portable", n, std, withOffset, i, simd[i], portable[i])
				}
				draws += n
			}
		}
		if n > 1<<16 {
			continue
		}
		// A block with 1 to 4 lanes drawn, the rest holding a sentinel.
		keys := []uint64{KeyOf(uint64(n)), KeyOf(uint64(n), 1), KeyOf(uint64(n), 2), KeyOf(uint64(n), 3)}[:1+n%LaneBlock]
		block := NewVector(LaneBlock * n)
		block.Fill(7)
		FillNormalKeyedBlock(block, keys, 2)
		for l := 0; l < LaneBlock; l++ {
			want := NewVector(n)
			if l < len(keys) {
				prev := SetPortable(true)
				FillNormalKeyed(want, keys[l], 2)
				SetPortable(prev)
				simd := NewVector(n)
				FillNormalKeyed(simd, keys[l], 2)
				if i := firstBitDiff(simd, want); i >= 0 {
					t.Fatalf("FillNormalKeyed n=%d: element %d is %v on AVX-512, %v portable", n, i, simd[i], want[i])
				}
			} else {
				want.Fill(7)
			}
			for i, w := range want {
				if got := block[LaneBlock*i+l]; math.Float64bits(got) != math.Float64bits(w) {
					t.Fatalf("FillNormalKeyedBlock n=%d, %d lanes: lane %d element %d is %v, want %v", n, len(keys), l, i, got, w)
				}
			}
		}
	}
	if draws < 1e7 {
		t.Fatalf("compared %d draws, want at least 10⁷", draws)
	}
}

// firstBitDiff returns the first index where a and b differ in any bit, or -1.
func firstBitDiff(a, b Vector) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// normalTailExp is normalTail as math/rand.NormFloat64 runs it, math.Exp in
// every wedge test. It also asks the squeeze about each test it makes,
// counting the tests and the ones the squeeze left undecided, and reports
// the first test the squeeze decided differently.
func normalTailExp(z uint64, tests, undecided *int) (float64, error) {
	state := z
	next := func() uint64 {
		state += golden
		return mix64(state)
	}
	for j := int32(z); ; j = int32(next()) {
		i := j & 0x7F
		x := float64(j) * float64(wn[i])
		m := j >> 31
		if uint32((j^m)-m) < kn[i] {
			return x, nil
		}
		if i == 0 {
			for {
				x = -math.Log(unit(next())) * (1.0 / rn)
				y := -math.Log(unit(next()))
				if y+y >= x*x {
					break
				}
			}
			if j > 0 {
				return rn + x, nil
			}
			return -rn - x, nil
		}
		y := fn[i] + float32(float32(unit(next()))*(fn[i-1]-fn[i]))
		exact := y < float32(math.Exp(-.5*x*x))
		*tests++
		if accept, ok := wedgeSqueeze(i, -.5*x*x, y); !ok {
			*undecided++
		} else if accept != exact {
			return 0, fmt.Errorf("strip %d, x %v, y %v: squeeze says %v, math.Exp %v", i, x, y, accept, exact)
		}
		if exact {
			return x, nil
		}
	}
}

// TestNormalKeyedSqueezeMatchesExp: over 10⁸ keyed draws every wedge test
// the squeeze decides, it decides as math.Exp does, the tail returns what
// the unsqueezed tail returns, and math.Exp runs in at most 1 % of the
// tests.
func TestNormalKeyedSqueezeMatchesExp(t *testing.T) {
	draws := uint64(1e8)
	if raceEnabled {
		draws = 1e7 // the race detector slows every table load
	}
	key := KeyOf(37)
	tests, undecided := 0, 0
	for i := uint64(1); i <= draws; i++ {
		z := mix64(key + i*golden)
		if _, ok := ziggurat(z); ok {
			continue
		}
		want, err := normalTailExp(z, &tests, &undecided)
		if err != nil {
			t.Fatal(err)
		}
		if got := normalTail(z); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("draw %d: squeezed tail %v, unsqueezed %v", i, got, want)
		}
	}
	share := float64(undecided) / float64(tests)
	t.Logf("%d draws, %d wedge tests, math.Exp in %d (%.3f %%)", draws, tests, undecided, 100*share)
	if share > 0.01 {
		t.Errorf("math.Exp ran in %.3f %% of wedge tests, want at most 1 %%", 100*share)
	}
}

// TestNormalKeyedPinnedDigest pins the SHA-256 of 10⁶ keyed draws. Every
// build must produce these bits: amd64 with and without AVX-512, 386, and
// GOAMD64=v3, where a fused multiply-add would show.
func TestNormalKeyedPinnedDigest(t *testing.T) {
	const want = "52559f1df1cb96626849b808c77530af44ee47e337a217beee3f570f63656e1f"
	v := NewVector(1_000_000)
	for _, portable := range []bool{false, true} {
		prev := SetPortable(portable)
		clear(v)
		AddNormalKeyed(v, KeyOf(2023, 6), 0.5, nil)
		SetPortable(prev)
		h := sha256.New()
		var b [8]byte
		for _, x := range v {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			h.Write(b[:])
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want {
			t.Errorf("portable %v: digest of 10⁶ keyed draws %s, pinned %s", portable, got, want)
		}
	}
}

// benchDim is the flattened model size of the benchmark's proofs4 workload.
const benchDim = 5568

func BenchmarkFillNormalKeyed(b *testing.B) {
	for _, path := range []struct {
		name     string
		portable bool
	}{{"portable", true}, {"simd", false}} {
		b.Run(path.name, func(b *testing.B) {
			defer SetPortable(SetPortable(path.portable))
			v := NewVector(benchDim)
			b.SetBytes(8 * benchDim)
			for i := 0; i < b.N; i++ {
				FillNormalKeyed(v, uint64(i), 1)
			}
		})
	}
}

func BenchmarkFillNormalStream(b *testing.B) {
	v := NewVector(benchDim)
	rng := NewRNG(1)
	b.SetBytes(8 * benchDim)
	for i := 0; i < b.N; i++ {
		rng.FillNormal(v, 0, 1)
	}
}
