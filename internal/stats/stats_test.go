package stats

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMeanStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	m, err := Mean(xs)
	if err != nil {
		t.Fatal(err)
	}
	if m != 5 {
		t.Errorf("Mean = %v, want 5", m)
	}
	sd, err := Std(xs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sd-2) > 1e-12 {
		t.Errorf("Std = %v, want 2", sd)
	}
}

func TestEmptySampleErrors(t *testing.T) {
	if _, err := Mean(nil); !errors.Is(err, ErrEmptySample) {
		t.Errorf("Mean err = %v", err)
	}
	if _, err := Std(nil); !errors.Is(err, ErrEmptySample) {
		t.Errorf("Std err = %v", err)
	}
	if _, _, err := MinMax(nil); !errors.Is(err, ErrEmptySample) {
		t.Errorf("MinMax err = %v", err)
	}
	if _, err := Summarize(nil); !errors.Is(err, ErrEmptySample) {
		t.Errorf("Summarize err = %v", err)
	}
}

func TestMinMax(t *testing.T) {
	lo, hi, err := MinMax([]float64{3, -1, 7, 2})
	if err != nil {
		t.Fatal(err)
	}
	if lo != -1 || hi != 7 {
		t.Errorf("MinMax = (%v, %v), want (-1, 7)", lo, hi)
	}
}

func TestSummarize(t *testing.T) {
	s, err := Summarize([]float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 3 || s.Mean != 2 || s.Min != 1 || s.Max != 3 {
		t.Errorf("Summary = %+v", s)
	}
	if math.Abs(s.MeanPlusSD-(2+s.Std)) > 1e-12 {
		t.Errorf("MeanPlusSD = %v", s.MeanPlusSD)
	}
}

func TestNormalPDFPeak(t *testing.T) {
	peak := NormalPDF(0, 0, 1)
	want := 1 / math.Sqrt(2*math.Pi)
	if math.Abs(peak-want) > 1e-12 {
		t.Errorf("PDF(0) = %v, want %v", peak, want)
	}
	if NormalPDF(1, 0, 1) >= peak {
		t.Error("PDF must be maximal at the mean")
	}
	if NormalPDF(0, 0, 0) != 0 {
		t.Error("PDF with zero std must be 0")
	}
}

func TestNormalCDFKnownValues(t *testing.T) {
	cases := []struct {
		z, want float64
	}{
		{0, 0.5},
		{1.0, 0.8413447460685429},
		{-1.0, 0.15865525393145707},
		{1.959963985, 0.975},
	}
	for _, c := range cases {
		if got := StdNormalCDF(c.z); math.Abs(got-c.want) > 1e-6 {
			t.Errorf("Φ(%v) = %v, want %v", c.z, got, c.want)
		}
	}
}

func TestNormalCDFDegenerate(t *testing.T) {
	if NormalCDF(1, 2, 0) != 0 {
		t.Error("CDF below point mass must be 0")
	}
	if NormalCDF(3, 2, 0) != 1 {
		t.Error("CDF above point mass must be 1")
	}
}

func TestNormalQuantileInvertsCDF(t *testing.T) {
	for _, p := range []float64{0.01, 0.05, 0.5, 0.95, 0.99} {
		z, err := normalQuantile(p, 3, 2)
		if err != nil {
			t.Fatal(err)
		}
		if got := NormalCDF(z, 3, 2); math.Abs(got-p) > 1e-9 {
			t.Errorf("CDF(Quantile(%v)) = %v", p, got)
		}
	}
	if _, err := normalQuantile(0, 0, 1); err == nil {
		t.Error("want error for p=0")
	}
	if _, err := normalQuantile(1, 0, 1); err == nil {
		t.Error("want error for p=1")
	}
}

func TestKSTestAcceptsNormal(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = 5 + 2*rng.NormFloat64()
	}
	res, err := KSTestNormal(xs)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Normal {
		t.Errorf("KS rejected genuine normal sample: %+v", res)
	}
	if math.Abs(res.Mean-5) > 0.3 || math.Abs(res.Std-2) > 0.3 {
		t.Errorf("fitted parameters off: %+v", res)
	}
}

func TestKSTestRejectsUniformTail(t *testing.T) {
	// A strongly bimodal sample is far from normal.
	xs := make([]float64, 400)
	for i := range xs {
		if i%2 == 0 {
			xs[i] = -10
		} else {
			xs[i] = 10
		}
	}
	res, err := KSTestNormal(xs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Normal {
		t.Errorf("KS accepted bimodal sample: %+v", res)
	}
}

func TestKSTestSmallSample(t *testing.T) {
	if _, err := KSTestNormal([]float64{1, 2}); err == nil {
		t.Error("want error for tiny sample")
	}
	res, err := KSTestNormal([]float64{3, 3, 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Normal {
		t.Error("constant sample must not be declared normal")
	}
}

func TestHistogram(t *testing.T) {
	edges, counts, err := histogram([]float64{0, 0.5, 1, 1.5, 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(edges) != 3 || len(counts) != 2 {
		t.Fatalf("edges=%v counts=%v", edges, counts)
	}
	if counts[0]+counts[1] != 5 {
		t.Errorf("histogram loses mass: %v", counts)
	}
	if _, _, err := histogram(nil, 2); err == nil {
		t.Error("want error for empty sample")
	}
	if _, _, err := histogram([]float64{1}, 0); err == nil {
		t.Error("want error for zero buckets")
	}
}

func TestHistogramConstantSample(t *testing.T) {
	_, counts, err := histogram([]float64{2, 2, 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 3 {
		t.Errorf("constant sample histogram mass = %d", total)
	}
}

// Property: CDF is monotone non-decreasing and bounded in [0,1].
func TestNormalCDFMonotone(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		if a > b {
			a, b = b, a
		}
		ca, cb := StdNormalCDF(a), StdNormalCDF(b)
		return ca <= cb && ca >= 0 && cb <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: mean lies within [min, max] and std is non-negative.
func TestSummaryInvariants(t *testing.T) {
	f := func(a []float64) bool {
		if len(a) == 0 {
			return true
		}
		for _, x := range a {
			// Skip values whose squares overflow float64.
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e150 {
				return true
			}
		}
		s, err := Summarize(a)
		if err != nil {
			return false
		}
		return s.Mean >= s.Min-1e-9 && s.Mean <= s.Max+1e-9 && s.Std >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPearson(t *testing.T) {
	// Perfectly linear.
	r, err := Pearson([]float64{1, 2, 3, 4}, []float64{2, 4, 6, 8})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-1) > 1e-12 {
		t.Errorf("r = %v, want 1", r)
	}
	// Perfectly anti-linear.
	r, err = Pearson([]float64{1, 2, 3}, []float64{3, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r+1) > 1e-12 {
		t.Errorf("r = %v, want -1", r)
	}
	// Errors.
	if _, err := Pearson([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := Pearson([]float64{1}, []float64{1}); err == nil {
		t.Error("single pair accepted")
	}
	if _, err := Pearson([]float64{1, 1}, []float64{1, 2}); err == nil {
		t.Error("zero variance accepted")
	}
}

func TestPearsonBounded(t *testing.T) {
	f := func(a, b [6]float64) bool {
		for i := range a {
			if math.IsNaN(a[i]) || math.IsInf(a[i], 0) || math.Abs(a[i]) > 1e100 ||
				math.IsNaN(b[i]) || math.IsInf(b[i], 0) || math.Abs(b[i]) > 1e100 {
				return true
			}
		}
		r, err := Pearson(a[:], b[:])
		if err != nil {
			return true // degenerate variance
		}
		return r >= -1-1e-9 && r <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
