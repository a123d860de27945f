package tensor

import (
	"math"
	"testing"

	"rpol/internal/parallel"
)

// randMatrix fills a rows×cols matrix with deterministic normal draws.
func randMatrix(rng *RNG, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	m.Data = rng.NormalVector(rows*cols, 0, 1)
	return m
}

// bitEqual reports element-wise bit equality (NaN-safe, unlike ==).
func bitEqual(a, b Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// The shapes exercise every tile/remainder combination: batch and rows both
// below, at, and off the gemmTile multiple.
var gemmShapes = []struct{ batch, rows, cols int }{
	{1, 1, 1},
	{2, 3, 5},
	{4, 4, 8},
	{5, 7, 3},
	{8, 16, 32},
	{13, 9, 17},
	{32, 20, 64},
}

func TestMulMatIntoMatchesPerExample(t *testing.T) {
	rng := NewRNG(11)
	for _, s := range gemmShapes {
		m := randMatrix(rng, s.rows, s.cols)
		x := randMatrix(rng, s.batch, s.cols)
		got := NewMatrix(s.batch, s.rows)
		if err := m.MulMatPoolScratch(nil, got, x, nil, nil); err != nil {
			t.Fatalf("%+v: %v", s, err)
		}
		want := NewMatrix(s.batch, s.rows)
		for b := 0; b < s.batch; b++ {
			if err := m.MulVecInto(want.Row(b), x.Row(b)); err != nil {
				t.Fatal(err)
			}
		}
		if !bitEqual(got.Data, want.Data) {
			t.Errorf("%+v: batched result differs from per-example MulVecInto", s)
		}
	}
}

// mulMatTCases spans the column vector/tail split of the SIMD row kernel
// (cols below, at and past one and several vectors) against batch sizes
// around the portable kernel's row tile, with the values whose arithmetic is
// easiest to get wrong — ±0, ±Inf (whose products with 0 are NaN) and
// denormals — planted in both operands.
func mulMatTCases(f func(m, x *Matrix)) {
	rng := NewRNG(12)
	special := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1030,
	}
	plant := func(v Vector) {
		for i, s := range special {
			v[(i*7+len(v)/3)%len(v)] = s
		}
	}
	for _, rows := range []int{1, 6} {
		for _, cols := range []int{1, 3, 4, 5, 16, 17, 33} {
			for _, batch := range []int{1, 3, 4, 8, 9} {
				m, x := randMatrix(rng, rows, cols), randMatrix(rng, batch, rows)
				f(m, x)
				plant(m.Data)
				plant(x.Data)
				f(m, x)
			}
		}
	}
	for _, s := range gemmShapes {
		f(randMatrix(rng, s.rows, s.cols), randMatrix(rng, s.batch, s.rows))
	}
}

func TestMulMatTIntoMatchesPerExample(t *testing.T) {
	mulMatTCases(func(m, x *Matrix) {
		got := NewMatrix(x.Rows, m.Cols)
		// Stale contents must not leak into the zero-started chains.
		for i := range got.Data {
			got.Data[i] = math.NaN()
		}
		if err := m.MulMatTPool(nil, got, x); err != nil {
			t.Fatalf("%dx%d by batch %d: %v", m.Rows, m.Cols, x.Rows, err)
		}
		want := NewMatrix(x.Rows, m.Cols)
		for b := 0; b < x.Rows; b++ {
			if err := m.MulVecTInto(want.Row(b), x.Row(b)); err != nil {
				t.Fatal(err)
			}
		}
		if !bitEqual(got.Data, want.Data) {
			t.Errorf("%dx%d by batch %d: batched result differs from per-example MulVecTInto", m.Rows, m.Cols, x.Rows)
		}
	})
}

// TestMulMatTPortableVsSIMD holds the SIMD row kernel against the portable
// tiled kernel it replaces on AVX hosts, bit for bit.
func TestMulMatTPortableVsSIMD(t *testing.T) {
	if !useAVX {
		t.Skip("no SIMD kernels on this host")
	}
	mulMatTCases(func(m, x *Matrix) {
		simd := NewMatrix(x.Rows, m.Cols)
		if err := m.MulMatTPool(nil, simd, x); err != nil {
			t.Fatal(err)
		}
		portable := NewMatrix(x.Rows, m.Cols)
		m.mulMatTRange(portable, x, 0, x.Rows)
		if !bitEqual(simd.Data, portable.Data) {
			t.Errorf("%dx%d by batch %d: SIMD result differs from portable kernel", m.Rows, m.Cols, x.Rows)
		}
	})
}

func TestAddOuterBatchMatchesPerExample(t *testing.T) {
	rng := NewRNG(13)
	for _, s := range gemmShapes {
		base := randMatrix(rng, s.rows, s.cols)
		x := randMatrix(rng, s.batch, s.rows)
		y := randMatrix(rng, s.batch, s.cols)
		got := base.clone()
		if err := got.AddOuterBatchPool(nil, 0.25, x, y); err != nil {
			t.Fatalf("%+v: %v", s, err)
		}
		want := base.clone()
		for b := 0; b < s.batch; b++ {
			if err := want.AddOuter(0.25, x.Row(b), y.Row(b)); err != nil {
				t.Fatal(err)
			}
		}
		if !bitEqual(got.Data, want.Data) {
			t.Errorf("%+v: batched accumulation differs from per-example AddOuter", s)
		}
	}
}

// TestGEMMPoolBitIdentical runs each pooled kernel at several worker counts
// (including nil = serial) and requires bit-identical results everywhere —
// the determinism contract the training hot path depends on.
func TestGEMMPoolBitIdentical(t *testing.T) {
	rng := NewRNG(14)
	const batch, rows, cols = 19, 23, 37
	m := randMatrix(rng, rows, cols)
	x := randMatrix(rng, batch, cols)
	g := randMatrix(rng, batch, rows)
	grad := randMatrix(rng, rows, cols)

	type result struct{ fwd, bwd, acc Vector }
	run := func(p *parallel.Pool) result {
		fwd := NewMatrix(batch, rows)
		if err := m.MulMatPoolScratch(p, fwd, x, nil, nil); err != nil {
			t.Fatal(err)
		}
		bwd := NewMatrix(batch, cols)
		if err := m.MulMatTPool(p, bwd, g); err != nil {
			t.Fatal(err)
		}
		acc := grad.clone()
		if err := acc.AddOuterBatchPool(p, 1, g, x); err != nil {
			t.Fatal(err)
		}
		return result{fwd.Data, bwd.Data, acc.Data}
	}

	base := run(nil)
	for _, workers := range []int{1, 2, 3, 4, 8} {
		got := run(parallel.New(workers))
		if !bitEqual(got.fwd, base.fwd) {
			t.Errorf("workers=%d: MulMatPool differs from serial", workers)
		}
		if !bitEqual(got.bwd, base.bwd) {
			t.Errorf("workers=%d: MulMatTPool differs from serial", workers)
		}
		if !bitEqual(got.acc, base.acc) {
			t.Errorf("workers=%d: AddOuterBatchPool differs from serial", workers)
		}
	}
	// The backward kernel again across its vector/tail and tile/remainder
	// splits, special values included.
	mulMatTCases(func(m, x *Matrix) {
		serial := NewMatrix(x.Rows, m.Cols)
		if err := m.MulMatTPool(nil, serial, x); err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4} {
			pooled := NewMatrix(x.Rows, m.Cols)
			if err := m.MulMatTPool(parallel.New(workers), pooled, x); err != nil {
				t.Fatal(err)
			}
			if !bitEqual(pooled.Data, serial.Data) {
				t.Errorf("%dx%d by batch %d: MulMatTPool at %d workers differs from serial", m.Rows, m.Cols, x.Rows, workers)
			}
		}
	})
}

// TestMulMatScratchSIMDBitIdentical drives the pack-scratch (SIMD) forward
// kernel across every shape and compares bits against both the portable
// batched kernel and the per-example matvec. On hosts without SIMD support
// the scratch path degrades to the portable kernel and the test still holds.
func TestMulMatScratchSIMDBitIdentical(t *testing.T) {
	if !useAVX {
		t.Log("no SIMD support on this host; exercising the fallback dispatch")
	}
	rng := NewRNG(17)
	for _, s := range gemmShapes {
		m := randMatrix(rng, s.rows, s.cols)
		x := randMatrix(rng, s.batch, s.cols)
		pack := NewVector(MulMatPackSize(s.batch, s.cols))
		got := NewMatrix(s.batch, s.rows)
		if err := m.MulMatPoolScratch(nil, got, x, nil, pack); err != nil {
			t.Fatalf("%+v: %v", s, err)
		}
		want := NewMatrix(s.batch, s.rows)
		for b := 0; b < s.batch; b++ {
			if err := m.MulVecInto(want.Row(b), x.Row(b)); err != nil {
				t.Fatal(err)
			}
		}
		if !bitEqual(got.Data, want.Data) {
			t.Errorf("%+v: scratch kernel differs from per-example MulVecInto", s)
		}
		for _, workers := range []int{1, 3, 8} {
			pooled := NewMatrix(s.batch, s.rows)
			if err := m.MulMatPoolScratch(parallel.New(workers), pooled, x, nil, pack); err != nil {
				t.Fatal(err)
			}
			if !bitEqual(pooled.Data, want.Data) {
				t.Errorf("%+v workers=%d: pooled scratch kernel differs", s, workers)
			}
		}
	}
}

// TestAddOuterBatchPortableVsSIMD pins the portable and SIMD accumulation
// kernels against each other directly (the per-example tests above cover
// whichever one the dispatch picks; this covers the other).
func TestAddOuterBatchPortableVsSIMD(t *testing.T) {
	if !useAVX {
		t.Skip("no SIMD kernels on this host")
	}
	rng := NewRNG(18)
	for _, s := range gemmShapes {
		base := randMatrix(rng, s.rows, s.cols)
		x := randMatrix(rng, s.batch, s.rows)
		y := randMatrix(rng, s.batch, s.cols)
		simd := base.clone()
		if err := simd.AddOuterBatchPool(nil, 0.5, x, y); err != nil {
			t.Fatal(err)
		}
		portable := base.clone()
		portable.addOuterBatchRange(0.5, x, y, 0, s.rows)
		if !bitEqual(simd.Data, portable.Data) {
			t.Errorf("%+v: SIMD accumulation differs from portable kernel", s)
		}
	}
}

func TestGEMMShapeErrors(t *testing.T) {
	m := NewMatrix(3, 4)
	bad := NewMatrix(2, 5)
	ok4 := NewMatrix(2, 4)
	ok3 := NewMatrix(2, 3)
	if err := m.MulMatPoolScratch(nil, ok3, bad, nil, nil); err == nil {
		t.Error("MulMatPoolScratch accepted mismatched x columns")
	}
	if err := m.MulMatPoolScratch(nil, bad, ok4, nil, nil); err == nil {
		t.Error("MulMatPoolScratch accepted mismatched dst columns")
	}
	if err := m.MulMatTPool(nil, ok4, bad); err == nil {
		t.Error("MulMatTPool accepted mismatched x columns")
	}
	if err := m.AddOuterBatchPool(nil, 1, bad, ok4); err == nil {
		t.Error("AddOuterBatch accepted mismatched x columns")
	}
	if err := m.AddOuterBatchPool(nil, 1, ok3, NewMatrix(3, 4)); err == nil {
		t.Error("AddOuterBatch accepted mismatched batch sizes")
	}
}

func TestTileGrainWholeTiles(t *testing.T) {
	for _, n := range []int{1, 3, 4, 5, 16, 100, 1000} {
		g := tileGrain(n, 4096)
		if g < 1 || g > n {
			t.Errorf("tileGrain(%d) = %d out of range", n, g)
		}
		if g%laneTile != 0 && g != n {
			t.Errorf("tileGrain(%d) = %d is neither a whole lane-tile multiple nor n", n, g)
		}
	}
}

// benchTiers runs bench once per kernel tier as a sub-benchmark named after
// the tier; a tier the host lacks is skipped, so its absence shows.
func benchTiers(b *testing.B, prefix string, bench func(b *testing.B)) {
	host := hostTiers()
	for _, tier := range allTiers {
		b.Run(prefix+tier.String(), func(b *testing.B) {
			if int(tier) >= len(host) {
				b.Skipf("no %v kernels on this host", tier)
			}
			withTier(tier, func() { bench(b) })
		})
	}
}

// BenchmarkGEMMForward compares one whole-batch forward GEMM, on each
// kernel tier, against the per-example matvec loop it replaces, at the
// training benchmark's dense shape (512×256, batch 32).
func BenchmarkGEMMForward(b *testing.B) {
	rng := NewRNG(15)
	const batch, rows, cols = 32, 512, 256
	m := randMatrix(rng, rows, cols)
	x := randMatrix(rng, batch, cols)
	dst := NewMatrix(batch, rows)
	b.Run("pervec", func(b *testing.B) {
		b.SetBytes(int64(8 * batch * rows * cols))
		for i := 0; i < b.N; i++ {
			for r := 0; r < batch; r++ {
				if err := m.MulVecInto(dst.Row(r), x.Row(r)); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	benchTiers(b, "gemm/", func(b *testing.B) {
		pack := NewVector(MulMatPackSize(batch, cols))
		b.SetBytes(int64(8 * batch * rows * cols))
		for i := 0; i < b.N; i++ {
			if err := m.MulMatPoolScratch(nil, dst, x, nil, pack); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkGEMMBackward covers the two backward kernels at the same shape,
// each on every kernel tier.
func BenchmarkGEMMBackward(b *testing.B) {
	rng := NewRNG(16)
	const batch, rows, cols = 32, 512, 256
	m := randMatrix(rng, rows, cols)
	g := randMatrix(rng, batch, rows)
	x := randMatrix(rng, batch, cols)
	dst := NewMatrix(batch, cols)
	acc := m.clone()
	for _, bench := range []struct {
		name string
		fn   func() error
	}{
		{"mulmatT/pervec", func() error {
			for r := 0; r < batch; r++ {
				if err := m.MulVecTInto(dst.Row(r), g.Row(r)); err != nil {
					return err
				}
			}
			return nil
		}},
		{"addouter/pervec", func() error {
			for r := 0; r < batch; r++ {
				if err := acc.AddOuter(1, g.Row(r), x.Row(r)); err != nil {
					return err
				}
			}
			return nil
		}},
	} {
		b.Run(bench.name, func(b *testing.B) {
			b.SetBytes(int64(8 * batch * rows * cols))
			for i := 0; i < b.N; i++ {
				if err := bench.fn(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	benchTiers(b, "mulmatT/", func(b *testing.B) {
		b.SetBytes(int64(8 * batch * rows * cols))
		for i := 0; i < b.N; i++ {
			if err := m.MulMatTPool(nil, dst, g); err != nil {
				b.Fatal(err)
			}
		}
	})
	benchTiers(b, "addouter/", func(b *testing.B) {
		b.SetBytes(int64(8 * batch * rows * cols))
		for i := 0; i < b.N; i++ {
			if err := acc.AddOuterBatchPool(nil, 1, g, x); err != nil {
				b.Fatal(err)
			}
		}
	})
}
