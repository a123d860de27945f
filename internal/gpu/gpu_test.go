package gpu

import (
	"errors"
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
	if w.MaxAbs() > 1e-2 {
		t.Errorf("noise implausibly large: %v", w.MaxAbs())
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
	// Two devices with the same run seed: one perturbs three times, the
	// other skips two and perturbs once. The third draws must coincide
	// bit-for-bit — this is what makes crash-recovery fast-forward exact.
	live, err := NewDevice(GA10, 77)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := NewDevice(GA10, 77)
	if err != nil {
		t.Fatal(err)
	}
	const dim = 48
	var third tensor.Vector
	for i := 0; i < 3; i++ {
		w := tensor.NewVector(dim)
		live.Perturb(w)
		third = w
	}
	resumed.SkipPerturb(dim)
	resumed.SkipPerturb(dim)
	w := tensor.NewVector(dim)
	resumed.Perturb(w)
	if !w.Equal(third, 0) {
		t.Error("SkipPerturb desynchronized the noise stream")
	}
}

// alternatingDims is the rotation a trainer perturbs in: each layer's weight
// matrix, then its bias (W, b, W, b, …), every step.
var alternatingDims = []int{48 * 64, 64, 64 * 32, 32, 32 * 10, 10}

func TestPerturbMatchesStepNoiseAcrossAlternatingDims(t *testing.T) {
	// The reused scratch must not move a bit of the noise stream: Perturb
	// over a rotation of tensor sizes adds exactly what StepNoise returns.
	a, err := NewDevice(G3090, 11)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewDevice(G3090, 11)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 3; step++ {
		for _, dim := range alternatingDims {
			got := tensor.NewVector(dim)
			a.Perturb(got)
			if want := b.StepNoise(dim); !got.Equal(want, 0) {
				t.Fatalf("step %d dim %d: Perturb diverged from StepNoise", step, dim)
			}
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
	step := func() {
		for _, w := range weights {
			d.Perturb(w)
		}
		for _, w := range weights {
			d.SkipPerturb(len(w))
		}
	}
	step() // first sight of each dimension builds its bias vectors
	if allocs := testing.AllocsPerRun(20, step); allocs != 0 {
		t.Errorf("Perturb/SkipPerturb allocate %.0f times per step over alternating dimensions, want 0", allocs)
	}
}
