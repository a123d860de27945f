package gpu

import (
	"errors"
	"math"
	"testing"
	"time"

	"rpol/internal/tensor"
)

func TestNewDeviceValidation(t *testing.T) {
	if _, err := NewDevice(Profile{Name: "bad", TFLOPS: 0}, 1); !errors.Is(err, ErrBadProfile) {
		t.Errorf("err = %v, want ErrBadProfile", err)
	}
}

func TestProfilesOrdering(t *testing.T) {
	ps := Profiles()
	if len(ps) != 4 {
		t.Fatalf("profiles = %d", len(ps))
	}
	for i := 1; i < len(ps); i++ {
		if ps[i].TFLOPS >= ps[i-1].TFLOPS {
			t.Errorf("profiles not descending at %d", i)
		}
	}
}

// reproDistance trains nothing; it simply accumulates the per-step noise of
// two devices over `steps` steps and measures the divergence — the pure
// hardware component of the reproduction error.
func reproDistance(t *testing.T, a, b *Device, dim, steps int) float64 {
	t.Helper()
	wa, wb := tensor.NewVector(dim), tensor.NewVector(dim)
	for s := 0; s < steps; s++ {
		a.Perturb(wa)
		b.Perturb(wb)
	}
	d, err := tensor.Distance(wa, wb)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestSameGPUHasNonzeroError(t *testing.T) {
	a, err := NewDevice(G3090, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewDevice(G3090, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d := reproDistance(t, a, b, 256, 10); d == 0 {
		t.Error("same-GPU reproduction must still diverge (paper Sec. VII-C)")
	}
}

func TestCrossGPUErrorLargerThanSame(t *testing.T) {
	mean := func(pa, pb Profile) float64 {
		var sum float64
		const trials = 10
		for i := 0; i < trials; i++ {
			a, err := NewDevice(pa, int64(100+i))
			if err != nil {
				t.Fatal(err)
			}
			b, err := NewDevice(pb, int64(200+i))
			if err != nil {
				t.Fatal(err)
			}
			sum += reproDistance(t, a, b, 256, 10)
		}
		return sum / trials
	}
	same := mean(G3090, G3090)
	cross := mean(G3090, GA10)
	if cross <= same {
		t.Errorf("cross-GPU error %v must exceed same-GPU %v", cross, same)
	}
}

func TestTopPairHasLargestCrossError(t *testing.T) {
	mean := func(pa, pb Profile) float64 {
		var sum float64
		const trials = 8
		for i := 0; i < trials; i++ {
			a, err := NewDevice(pa, int64(300+i))
			if err != nil {
				t.Fatal(err)
			}
			b, err := NewDevice(pb, int64(400+i))
			if err != nil {
				t.Fatal(err)
			}
			sum += reproDistance(t, a, b, 256, 10)
		}
		return sum / trials
	}
	top := mean(G3090, GA10)
	slow := mean(GP100, GT4)
	if top <= slow {
		t.Errorf("top-2 pair error %v must exceed slow pair %v", top, slow)
	}
}

func TestErrorGrowsWithGPUPerformance(t *testing.T) {
	mean := func(p Profile) float64 {
		var sum float64
		const trials = 8
		for i := 0; i < trials; i++ {
			a, err := NewDevice(p, int64(500+i))
			if err != nil {
				t.Fatal(err)
			}
			b, err := NewDevice(p, int64(600+i))
			if err != nil {
				t.Fatal(err)
			}
			sum += reproDistance(t, a, b, 256, 10)
		}
		return sum / trials
	}
	fast := mean(G3090)
	slow := mean(GT4)
	if fast <= slow {
		t.Errorf("fast-GPU error %v must exceed slow-GPU %v", fast, slow)
	}
}

func TestErrorGrowsWithInterval(t *testing.T) {
	// Paper: reproduction errors increase roughly linearly with checkpoint
	// interval. Verify monotone growth and rough linearity.
	dist := func(steps int) float64 {
		a, err := NewDevice(G3090, 11)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewDevice(G3090, 22)
		if err != nil {
			t.Fatal(err)
		}
		return reproDistance(t, a, b, 256, steps)
	}
	d5, d10, d20 := dist(5), dist(10), dist(20)
	if !(d5 < d10 && d10 < d20) {
		t.Errorf("error not monotone in interval: %v %v %v", d5, d10, d20)
	}
	ratio := d20 / d5
	if ratio < 2 || ratio > 8 {
		t.Errorf("interval scaling ratio %v outside rough-linear band", ratio)
	}
}

func TestExecTime(t *testing.T) {
	d, err := NewDevice(G3090, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.ExecTime(0); got != 0 {
		t.Errorf("ExecTime(0) = %v", got)
	}
	one := d.ExecTime(1e12)
	if one <= 0 {
		t.Errorf("ExecTime(1e12) = %v", one)
	}
	// Linear in FLOPs.
	two := d.ExecTime(2e12)
	if two < one*2-time.Nanosecond || two > one*2+time.Nanosecond {
		t.Errorf("ExecTime not linear: %v vs %v", one, two)
	}
	// Faster device is faster.
	slow, err := NewDevice(GT4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if slow.ExecTime(1e12) <= one {
		t.Error("GT4 must be slower than G3090")
	}
}

func TestTopTwo(t *testing.T) {
	first, second, err := TopTwo([]Profile{GT4, GP100, G3090, GA10})
	if err != nil {
		t.Fatal(err)
	}
	if first.Name != "G3090" || second.Name != "GA10" {
		t.Errorf("TopTwo = %s, %s", first.Name, second.Name)
	}
	// Order of the first two inputs must not matter.
	first, second, err = TopTwo([]Profile{GP100, G3090, GT4})
	if err != nil {
		t.Fatal(err)
	}
	if first.Name != "G3090" || second.Name != "GP100" {
		t.Errorf("TopTwo = %s, %s", first.Name, second.Name)
	}
	if _, _, err := TopTwo([]Profile{G3090}); err == nil {
		t.Error("want error for short list")
	}
}

func TestPerturbChangesWeights(t *testing.T) {
	d, err := NewDevice(GA10, 5)
	if err != nil {
		t.Fatal(err)
	}
	w := tensor.NewVector(64)
	d.Perturb(w)
	if w.Norm2() == 0 {
		t.Error("Perturb must inject noise")
	}
	for _, x := range w {
		if math.Abs(x) > 1e-2 {
			t.Errorf("noise implausibly large: %v", x)
		}
	}
}

func TestRunSeedIndividualizesRuns(t *testing.T) {
	a, err := NewDevice(G3090, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewDevice(G3090, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Identical run seeds replay identically (determinism of the simulator).
	wa, wb := tensor.NewVector(32), tensor.NewVector(32)
	a.Perturb(wa)
	b.Perturb(wb)
	if !wa.Equal(wb, 0) {
		t.Error("same run seed must replay identically")
	}
}

func TestSkipPerturbMatchesPerturbStream(t *testing.T) {
	// Seek is O(1) and exact: a device placed at step s draws what one that
	// perturbed from step 0 draws at its (s+1)-th call — the property that
	// leaves a resumed worker nothing to replay.
	const (
		key   = 0x5eed
		dim   = 48
		steps = 7
	)
	live, err := NewDevice(GA10, 77)
	if err != nil {
		t.Fatal(err)
	}
	live.Seek(key, 0, 2)
	var last tensor.Vector
	for s := 0; s <= steps; s++ {
		last = tensor.NewVector(dim)
		live.Perturb(last)
	}
	resumed, err := NewDevice(GA10, 77)
	if err != nil {
		t.Fatal(err)
	}
	resumed.Seek(key, steps, 2)
	w := tensor.NewVector(dim)
	resumed.Perturb(w)
	if !w.Equal(last, 0) {
		t.Errorf("Seek(key, %d, 2) then Perturb differs from %d sequential Perturb calls", steps, steps+1)
	}
}

// alternatingDims is the rotation a trainer perturbs in: each layer's weight
// matrix, then its bias (W, b, W, b, …), every step. The last two tensors have
// equal lengths.
var alternatingDims = []int{48 * 64, 64, 64 * 32, 32, 32 * 10, 10, 10}

// decomposed returns the three components of ε at the device's current
// position over n weights, each drawn directly from its key.
func decomposed(d *Device, n int) (white, dev, run tensor.Vector) {
	white, dev, run = tensor.NewVector(n), tensor.NewVector(n), tensor.NewVector(n)
	tensor.FillNormalKeyed(white, d.whiteKey(), d.runScale*whiteFraction)
	tensor.FillNormalKeyed(dev, d.deviceBiasKey(d.ordinal), d.devScale)
	tensor.FillNormalKeyed(run, d.runBiasKey(d.ordinal), d.runScale)
	return white, dev, run
}

func TestPerturbMatchesStepNoiseAcrossAlternatingDims(t *testing.T) {
	// Over a W, b, W, b rotation, each Perturb adds exactly
	// white + (device bias + run bias) for its (step, tensor).
	const key = 0xfeed
	d, err := NewDevice(G3090, 11)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 3; step++ {
		for ord, dim := range alternatingDims {
			d.Seek(key, step, ord)
			white, dev, run := decomposed(d, dim)
			got := tensor.NewVector(dim)
			d.Perturb(got)
			for i := range got {
				if want := white[i] + (dev[i] + run[i]); got[i] != want {
					t.Fatalf("step %d tensor %d element %d: Perturb added %v, want white+dev+run %v", step, ord, i, got[i], want)
				}
			}
		}
	}
	// The last two tensors have equal lengths but biases of their own.
	last := len(alternatingDims) - 1
	a, b := d.biasFor(last-1, alternatingDims[last]), d.biasFor(last, alternatingDims[last])
	for i := range a {
		if a[i] == b[i] {
			t.Fatalf("equal-length tensors %d and %d share bias element %d", last-1, last, i)
		}
	}
}

func TestPerturbAllocFreeAcrossAlternatingDims(t *testing.T) {
	d, err := NewDevice(G3090, 12)
	if err != nil {
		t.Fatal(err)
	}
	weights := make([]tensor.Vector, len(alternatingDims))
	for i, dim := range alternatingDims {
		weights[i] = tensor.NewVector(dim)
	}
	step := 0
	perturbStep := func() {
		for ord, w := range weights {
			d.Seek(0xabc, step, ord)
			d.Perturb(w)
		}
		step++
	}
	perturbStep() // first sight of each ordinal builds its biases
	if allocs := testing.AllocsPerRun(20, perturbStep); allocs != 0 {
		t.Errorf("Seek/Perturb allocate %.0f times per step over alternating dimensions, want 0", allocs)
	}
}

// TestResetMatchesNewDevice pins Device.Reset: a device reset to (profile,
// seed) perturbs exactly as NewDevice(profile, seed) does — biases, white
// noise and position alike — while refilling the bias vectors it already
// holds instead of allocating them; an invalid profile leaves it unchanged.
func TestResetMatchesNewDevice(t *testing.T) {
	perturb := func(d *Device, weights []tensor.Vector) {
		for step := 0; step < 3; step++ {
			for ord, w := range weights {
				d.Seek(0xabc, step, ord)
				d.Perturb(w)
			}
		}
	}
	fresh := func() []tensor.Vector {
		weights := make([]tensor.Vector, len(alternatingDims))
		for i, dim := range alternatingDims {
			weights[i] = tensor.NewVector(dim)
		}
		return weights
	}
	d, err := NewDevice(G3090, 12)
	if err != nil {
		t.Fatal(err)
	}
	perturb(d, fresh())
	if err := d.Reset(Profile{Name: "bad"}, 1); !errors.Is(err, ErrBadProfile) {
		t.Fatalf("err = %v, want ErrBadProfile", err)
	}
	if d.profile != G3090 {
		t.Fatal("a failed Reset changed the device")
	}
	biases := append([]tensor.Vector(nil), d.bias...)
	for _, next := range []struct {
		profile Profile
		seed    int64
	}{{GA10, 13}, {G3090, 12}, {GT4, 99}} {
		if err := d.Reset(next.profile, next.seed); err != nil {
			t.Fatal(err)
		}
		want, err := NewDevice(next.profile, next.seed)
		if err != nil {
			t.Fatal(err)
		}
		got, exp := fresh(), fresh()
		perturb(d, got)
		perturb(want, exp)
		for i := range got {
			if !got[i].Equal(exp[i], 0) {
				t.Errorf("%s/%d: tensor %d perturbed unlike a new device", next.profile.Name, next.seed, i)
			}
			if !tensor.SameStorage(d.bias[i], biases[i]) {
				t.Errorf("%s/%d: tensor %d's bias was reallocated", next.profile.Name, next.seed, i)
			}
		}
	}
}
