package gpu

import (
	"math"
	"slices"
	"testing"

	"rpol/internal/tensor"
)

// moments returns the mean, variance and excess kurtosis of v.
func moments(v tensor.Vector) (mean, variance, kurtosis float64) {
	n := float64(len(v))
	for _, x := range v {
		mean += x
	}
	mean /= n
	var m2, m4 float64
	for _, x := range v {
		d := (x - mean) * (x - mean)
		m2 += d
		m4 += d * d
	}
	m2, m4 = m2/n, m4/n
	return mean, m2, m4/(m2*m2) - 3
}

// correlation returns Pearson's ρ between a and b.
func correlation(a, b tensor.Vector) float64 {
	ma, va, _ := moments(a)
	mb, vb, _ := moments(b)
	var c float64
	for i := range a {
		c += (a[i] - ma) * (b[i] - mb)
	}
	return c / float64(len(a)) / math.Sqrt(va*vb)
}

// ksStatistic is the two-sample Kolmogorov–Smirnov D: the largest gap between
// the empirical distribution functions of a and b.
func ksStatistic(a, b []float64) float64 {
	a, b = slices.Clone(a), slices.Clone(b)
	slices.Sort(a)
	slices.Sort(b)
	var d float64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		x := min(a[i], b[j])
		for i < len(a) && a[i] == x {
			i++
		}
		for j < len(b) && b[j] == x {
			j++
		}
		d = max(d, math.Abs(float64(i)/float64(len(a))-float64(j)/float64(len(b))))
	}
	return d
}

// TestNoiseStatistics holds the keyed noise to the stream it replaced: the
// generator's distribution is math/rand's normal, ε decomposes into white,
// run and device components at the scales the old device drew them with, and
// no two coordinates share anything.
func TestNoiseStatistics(t *testing.T) {
	t.Run("generator", func(t *testing.T) {
		// Two-sample KS against tensor.RNG.NormFloat64 at n = 10⁶ each; the
		// critical D at α = 0.001 is 1.95·√(2/n).
		const n = 1_000_000
		keyed := tensor.NewVector(n)
		tensor.FillNormalKeyed(keyed, tensor.KeyOf(2023), 1)
		stream := tensor.NewRNG(2023).NormalVector(n, 0, 1)
		if d, crit := ksStatistic(keyed, stream), 1.95*math.Sqrt(2.0/n); d > crit {
			t.Errorf("KS D = %.5f against math/rand's normal, critical %.5f", d, crit)
		}
		// Five standard errors on each moment.
		mean, variance, kurtosis := moments(keyed)
		if math.Abs(mean) > 5/math.Sqrt(n) {
			t.Errorf("mean %.5f", mean)
		}
		if math.Abs(variance-1) > 5*math.Sqrt(2.0/n) {
			t.Errorf("variance %.5f", variance)
		}
		if math.Abs(kurtosis) > 5*math.Sqrt(24.0/n) {
			t.Errorf("excess kurtosis %.5f", kurtosis)
		}
	})

	// The decomposition, measured through Perturb alone on zero weights. The
	// scales are the old stream device's constants, written out so that a
	// change to the model's noise constants fails here: per-element std
	// 3e-6 (device), 1e-6 (run) and 0.2e-6 (white) at 35.7 TFLOPS, each
	// proportional to throughput.
	const n = 1 << 17
	noise := func(d *Device, key uint64, step, ordinal int) tensor.Vector {
		w := tensor.NewVector(n)
		d.Seek(key, step, ordinal)
		d.Perturb(w)
		return w
	}
	diff := func(a, b tensor.Vector) tensor.Vector {
		out, err := a.Sub(b)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	std := func(v tensor.Vector) float64 {
		_, variance, _ := moments(v)
		return math.Sqrt(variance)
	}
	near := func(what string, got, want float64) {
		t.Helper()
		// The std of 2^17 normals has a relative standard error of 0.2 %.
		if math.Abs(got/want-1) > 0.02 {
			t.Errorf("%s std %.4g, want %.4g", what, got, want)
		}
	}
	for _, p := range []Profile{G3090, GT4} {
		t.Run("decomposition/"+p.Name, func(t *testing.T) {
			perf := p.TFLOPS / 35.7
			wantDev, wantRun, wantWhite := 3e-6*perf, 1e-6*perf, 0.2e-6*perf
			a, err := NewDevice(p, 41)
			if err != nil {
				t.Fatal(err)
			}
			b, err := NewDevice(p, 42)
			if err != nil {
				t.Fatal(err)
			}
			// Two steps of one device differ by their white draws alone; two
			// run seeds at one position by white and run draws (the device
			// bias cancels); one draw holds all three.
			near("white", std(diff(noise(a, 1, 0, 0), noise(a, 1, 1, 0)))/math.Sqrt2, wantWhite)
			sameStep := std(diff(noise(a, 1, 0, 0), noise(b, 1, 0, 0))) / math.Sqrt2
			near("run bias", math.Sqrt(sameStep*sameStep-wantWhite*wantWhite), wantRun)
			total := std(noise(a, 1, 0, 0))
			near("device bias", math.Sqrt(total*total-wantRun*wantRun-wantWhite*wantWhite), wantDev)
			// Devices on one profile share the device bias exactly; different
			// run seeds share neither white noise nor run bias.
			_, devA, runA := decomposed(a, n)
			_, devB, runB := decomposed(b, n)
			if !devA.Equal(devB, 0) {
				t.Error("two devices on one profile drew different device biases")
			}
			a.Seek(1, 0, 0)
			b.Seek(1, 0, 0)
			whiteA, _, _ := decomposed(a, n)
			whiteB, _, _ := decomposed(b, n)
			for i := range runA {
				if runA[i] == runB[i] || whiteA[i] == whiteB[i] {
					t.Fatalf("run seeds 41 and 42 share element %d", i)
				}
			}
		})
	}
	t.Run("independence", func(t *testing.T) {
		// |ρ| below four standard errors between the components of
		// neighbouring coordinates.
		d, err := NewDevice(G3090, 43)
		if err != nil {
			t.Fatal(err)
		}
		at := func(key uint64, step, ordinal int) (white, dev, run tensor.Vector) {
			d.Seek(key, step, ordinal)
			return decomposed(d, n)
		}
		w00, dev0, run0 := at(7, 0, 0)
		w10, _, _ := at(7, 1, 0)
		w01, dev1, run1 := at(7, 0, 1)
		wOther, _, _ := at(8, 0, 0)
		bound := 4 / math.Sqrt(n)
		for _, c := range []struct {
			what string
			a, b tensor.Vector
		}{
			{"white at adjacent steps", w00, w10},
			{"white at adjacent ordinals", w00, w01},
			{"white under different nonces", w00, wOther},
			{"device bias of equal-length tensors", dev0, dev1},
			{"run bias of equal-length tensors", run0, run1},
			{"device and run bias of one tensor", dev0, run0},
		} {
			if rho := correlation(c.a, c.b); math.Abs(rho) >= bound {
				t.Errorf("%s: ρ = %.4f, want |ρ| < %.4f", c.what, rho, bound)
			}
		}
	})
}
