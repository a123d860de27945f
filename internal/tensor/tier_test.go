package tensor

import (
	"math"
	"testing"

	"rpol/internal/parallel"
)

// allTiers is every kernel tier, in the order hostTiers lists them.
var allTiers = []kernelTier{tierPortable, tierAVX, tierAVX512}

func (t kernelTier) String() string {
	return [...]string{"portable", "avx2", "avx512"}[t]
}

// logTiers records which tiers a tier test covered and which this host
// skipped, so a runner without AVX-512 shows what it did not check.
func logTiers(t *testing.T) []kernelTier {
	t.Helper()
	tiers := hostTiers()
	var skipped []kernelTier
	for _, k := range allTiers[len(tiers):] {
		skipped = append(skipped, k)
	}
	t.Logf("tiers covered %v, skipped on this host %v", tiers, skipped)
	return tiers
}

// sameBits is bitEqual that also accepts any NaN for any NaN. Go does not
// define which operand's payload a NaN result carries, and the compiler may
// commute a product's operands, so only NaN-ness is part of the contract.
func sameBits(a, b Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) && !(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
			return false
		}
	}
	return true
}

// tierShapeDims are the out/in extents of the tier tables: every width up to
// two 8-lane vectors and one past, plus the wide shapes whose passes and
// column tails the kernels split differently.
var tierShapeDims = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 33, 48, 64, 70}

// tierBatches are the batch sizes: below, at and past one 8-row tile, and
// around four of them.
var tierBatches = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 31, 32, 33}

// tierSpecials are the values whose arithmetic is easiest to get wrong.
var tierSpecials = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1030,
}

// plantSpecials overwrites a few entries of v with tierSpecials, at
// positions that depend on salt.
func plantSpecials(v Vector, salt int) {
	if len(v) == 0 {
		return
	}
	for i, s := range tierSpecials {
		v[(i*11+salt+len(v)/3)%len(v)] = s
	}
}

// gemmTierRun is every GEMM result for one shape on the current tier:
// forward with and without bias (serial and pooled), ∂x, ∂W and ∂b.
type gemmTierRun struct{ fwd, fwdBias, fwdPool, dx, dw, db Vector }

func runGEMMTier(t *testing.T, w, x, g, acc *Matrix, bias Vector, pool *parallel.Pool) gemmTierRun {
	t.Helper()
	batch := x.Rows
	pack := NewVector(MulMatPackSize(batch, w.Cols))
	fwd := NewMatrix(batch, w.Rows)
	if err := w.MulMatScratch(fwd, x, pack); err != nil {
		t.Fatal(err)
	}
	fwdBias := NewMatrix(batch, w.Rows)
	if err := w.MulMatPoolScratch(nil, fwdBias, x, bias, pack); err != nil {
		t.Fatal(err)
	}
	fwdPool := NewMatrix(batch, w.Rows)
	if err := w.MulMatPoolScratch(pool, fwdPool, x, bias, pack); err != nil {
		t.Fatal(err)
	}
	dx := NewMatrix(batch, w.Cols)
	for i := range dx.Data {
		dx.Data[i] = math.NaN() // stale contents must not leak into the chains
	}
	if err := w.MulMatTInto(dx, g); err != nil {
		t.Fatal(err)
	}
	dw := acc.Clone()
	if err := dw.AddOuterBatch(0.75, g, x); err != nil {
		t.Fatal(err)
	}
	db := acc.Data[:w.Rows].Clone()
	if err := db.AddRows(g); err != nil {
		t.Fatal(err)
	}
	return gemmTierRun{fwd.Data, fwdBias.Data, fwdPool.Data, dx.Data, dw.Data, db}
}

// TestGEMMTiersBitIdentical holds the AVX2 and AVX-512 tiers of every GEMM
// kernel — forward with and without the fused bias, ∂x, ∂W and the ∂b row
// sum — against the portable kernels, bit for bit, across out/in 1–17, 33,
// 48, 64 and 70 and batch 1–9 and 31–33, once on normal draws and once with
// ±0, ±Inf, NaN and denormals planted in every operand.
func TestGEMMTiersBitIdentical(t *testing.T) {
	tiers := logTiers(t)
	rng := NewRNG(39)
	pool := parallel.New(3)
	for _, out := range tierShapeDims {
		for _, in := range tierShapeDims {
			for _, batch := range tierBatches {
				w, x := randMatrix(rng, out, in), randMatrix(rng, batch, in)
				g, acc := randMatrix(rng, batch, out), randMatrix(rng, out, in)
				bias := rng.NormalVector(out, 0, 1)
				for _, special := range []bool{false, true} {
					if special {
						for i, v := range []Vector{w.Data, x.Data, g.Data, acc.Data, bias} {
							plantSpecials(v, i+batch)
						}
					}
					var want gemmTierRun
					for _, tier := range tiers {
						var got gemmTierRun
						withTier(tier, func() { got = runGEMMTier(t, w, x, g, acc, bias, pool) })
						if tier == tierPortable {
							want = got
							continue
						}
						for _, c := range []struct {
							name      string
							got, want Vector
						}{
							{"forward", got.fwd, want.fwd},
							{"forward+bias", got.fwdBias, want.fwdBias},
							{"pooled forward+bias", got.fwdPool, want.fwdBias},
							{"∂x", got.dx, want.dx},
							{"∂W", got.dw, want.dw},
							{"∂b", got.db, want.db},
						} {
							if !sameBits(c.got, c.want) {
								t.Errorf("%v out %d in %d batch %d special %v: %s differs from portable", tier, out, in, batch, special, c.name)
							}
						}
					}
				}
			}
		}
	}
}

// TestGEMMZeroShapes runs every GEMM kernel on every tier over empty
// operands — no w rows, no reduction, no batch — and requires each to return
// without panicking and with the portable tier's result.
func TestGEMMZeroShapes(t *testing.T) {
	tiers := logTiers(t)
	for _, out := range []int{0, 3} {
		for _, in := range []int{0, 5} {
			for _, batch := range []int{0, 4, 8, 9} {
				w, x := NewMatrix(out, in), NewMatrix(batch, in)
				g, acc := NewMatrix(batch, out), NewMatrix(out, in)
				x.Data.Fill(1.5)
				g.Data.Fill(-2)
				bias := NewVector(out)
				bias.Fill(0.25)
				var want gemmTierRun
				for _, tier := range tiers {
					var got gemmTierRun
					withTier(tier, func() {
						// Pass a zero-length bias as the empty bias it is.
						b := bias
						if out == 0 {
							b = nil
						}
						fwd := NewMatrix(batch, out)
						if err := w.MulMatScratch(fwd, x, NewVector(MulMatPackSize(batch, in))); err != nil {
							t.Fatal(err)
						}
						fwdBias := NewMatrix(batch, out)
						if err := w.MulMatPoolScratch(nil, fwdBias, x, b, NewVector(MulMatPackSize(batch, in))); err != nil {
							t.Fatal(err)
						}
						dx := NewMatrix(batch, in)
						if err := w.MulMatTInto(dx, g); err != nil {
							t.Fatal(err)
						}
						dw := acc.Clone()
						if err := dw.AddOuterBatch(1, g, x); err != nil {
							t.Fatal(err)
						}
						db := NewVector(out)
						if err := db.AddRows(g); err != nil {
							t.Fatal(err)
						}
						got = gemmTierRun{fwd: fwd.Data, fwdBias: fwdBias.Data, dx: dx.Data, dw: dw.Data, db: db}
					})
					if tier == tierPortable {
						want = got
						continue
					}
					for name, pair := range map[string][2]Vector{
						"forward": {got.fwd, want.fwd}, "forward+bias": {got.fwdBias, want.fwdBias},
						"∂x": {got.dx, want.dx}, "∂W": {got.dw, want.dw}, "∂b": {got.db, want.db},
					} {
						if !bitEqual(pair[0], pair[1]) {
							t.Errorf("%v out %d in %d batch %d: %s differs from portable", tier, out, in, batch, name)
						}
					}
				}
			}
		}
	}
}

// TestStepKernelsTiersBitIdentical holds MomentumStep and MaskPositive on
// every tier against the portable loops, bit for bit, at every length up to
// 70 with ±0, ±Inf, NaN and denormals planted in each operand.
func TestStepKernelsTiersBitIdentical(t *testing.T) {
	tiers := logTiers(t)
	rng := NewRNG(40)
	for n := 0; n <= 70; n++ {
		p0, v0, g0 := rng.NormalVector(n, 0, 1), rng.NormalVector(n, 0, 1), rng.NormalVector(n, 0, 1)
		plantSpecials(p0, 1)
		plantSpecials(v0, 2)
		plantSpecials(g0, 3)
		type result struct{ p, v, relu, mask Vector }
		var want result
		for _, tier := range tiers {
			var got result
			withTier(tier, func() {
				p, v := p0.Clone(), v0.Clone()
				if err := MomentumStep(p, v, g0, 0.9, 0.05); err != nil {
					t.Fatal(err)
				}
				relu := g0.Clone() // in place, as a layer may run it
				if err := MaskPositive(relu, relu, relu); err != nil {
					t.Fatal(err)
				}
				mask := NewVector(n)
				mask.Fill(7)
				if err := MaskPositive(mask, v0, g0); err != nil {
					t.Fatal(err)
				}
				got = result{p, v, relu, mask}
			})
			if tier == tierPortable {
				want = got
				continue
			}
			if !sameBits(got.p, want.p) || !sameBits(got.v, want.v) {
				t.Errorf("%v n %d: momentum step differs from portable", tier, n)
			}
			if !bitEqual(got.relu, want.relu) || !bitEqual(got.mask, want.mask) {
				t.Errorf("%v n %d: positive mask differs from portable", tier, n)
			}
		}
	}
}

// TestMaskPositiveSelectsPlusZero pins the mask's contract on the values
// that decide it: only a positive selector keeps the value; ±0, negatives
// and NaN give +0.
func TestMaskPositiveSelectsPlusZero(t *testing.T) {
	by := Vector{1, 0x1p-1074, math.Inf(1), 0, math.Copysign(0, -1), -1, math.Inf(-1), math.NaN(), -math.NaN()}
	v := Vector{-3, -3, -3, -3, -3, -3, -3, -3, -3}
	want := Vector{-3, -3, -3, 0, 0, 0, 0, 0, 0}
	for _, tier := range logTiers(t) {
		withTier(tier, func() {
			dst := NewVector(len(v))
			if err := MaskPositive(dst, v, by); err != nil {
				t.Fatal(err)
			}
			if !bitEqual(dst, want) {
				t.Errorf("%v: got %v, want %v", tier, dst, want)
			}
		})
	}
	if err := MaskPositive(NewVector(2), NewVector(2), NewVector(3)); err == nil {
		t.Error("MaskPositive accepted mismatched lengths")
	}
	if err := MomentumStep(NewVector(2), NewVector(3), NewVector(2), 0.9, 0.1); err == nil {
		t.Error("MomentumStep accepted mismatched lengths")
	}
}
