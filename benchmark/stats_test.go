package main

import (
	"math"
	"testing"
)

func TestSupportedTail(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99},
	}
	for _, c := range cases {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = p%d, want p%d", c.n, got, c.want)
		}
	}
	// The rule itself: at least ten samples lie beyond the chosen percentile,
	// and the next higher candidate would leave fewer.
	for n := 40; n <= 2000; n += 7 {
		p := supportedTail(n)
		if beyond := float64(n) * float64(100-p) / 100; beyond < 10 {
			t.Fatalf("n=%d: p%d has only %.1f samples beyond it", n, p, beyond)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	for q, want := range map[float64]float64{0: 1, 0.25: 2, 0.5: 3, 0.9: 4.6, 1: 5} {
		if got := quantile(xs, q); math.Abs(got-want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
}

// TestSpreadMatchesPython pins spreadOf to statistics.quantiles(v, n=4), the
// rule the driver judges run-to-run spread by.
func TestSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	s := spreadOf([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", s.Q1, s.Median, s.Q3)
	}
	if want := 5.5 / 5.5; math.Abs(s.IQRShare-want) > 1e-12 {
		t.Errorf("IQRShare = %v, want %v", s.IQRShare, want)
	}
	if want := 4.5 / 5.5; math.Abs(s.MaxShare-want) > 1e-12 {
		t.Errorf("MaxShare = %v, want %v", s.MaxShare, want)
	}
}
