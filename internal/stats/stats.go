// Package stats implements the descriptive statistics and distribution tests
// that RPoL's adaptive LSH calibration depends on: the manager estimates
// α = mean + std of measured reproduction errors (Sec. V-C), and the paper
// establishes with a Kolmogorov–Smirnov test that reproduction errors follow
// a normal distribution per (GPU pair, epoch, optimizer) (Sec. VII-C).
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmptySample is returned when a statistic is requested over no data.
var ErrEmptySample = errors.New("stats: empty sample")

// Mean returns the arithmetic mean of xs.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmptySample
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs)), nil
}

// Variance returns the population variance of xs.
func Variance(xs []float64) (float64, error) {
	m, err := Mean(xs)
	if err != nil {
		return 0, err
	}
	var s float64
	for _, x := range xs {
		d := x - m
		s += float64(d * d)
	}
	return s / float64(len(xs)), nil
}

// Std returns the population standard deviation of xs.
func Std(xs []float64) (float64, error) {
	v, err := Variance(xs)
	if err != nil {
		return 0, err
	}
	return math.Sqrt(v), nil
}

// MinMax returns the smallest and largest values in xs.
func MinMax(xs []float64) (lo, hi float64, err error) {
	if len(xs) == 0 {
		return 0, 0, ErrEmptySample
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi, nil
}

// Summary bundles the descriptive statistics the experiment harness reports
// for a sample of reproduction errors or spoof distances.
type Summary struct {
	N          int
	Mean, Std  float64
	Min, Max   float64
	MeanPlusSD float64 // the paper's "maximum value": mean + std (Sec. VII-C)
}

// Summarize computes a Summary of xs.
func Summarize(xs []float64) (Summary, error) {
	m, err := Mean(xs)
	if err != nil {
		return Summary{}, err
	}
	sd, err := Std(xs)
	if err != nil {
		return Summary{}, err
	}
	lo, hi, err := MinMax(xs)
	if err != nil {
		return Summary{}, err
	}
	return Summary{
		N:          len(xs),
		Mean:       m,
		Std:        sd,
		Min:        lo,
		Max:        hi,
		MeanPlusSD: m + sd,
	}, nil
}

// NormalPDF returns the density of N(mean, std²) at x.
func NormalPDF(x, mean, std float64) float64 {
	if std <= 0 {
		return 0
	}
	z := (x - mean) / std
	return math.Exp(-0.5*z*z) / (std * math.Sqrt(2*math.Pi))
}

// NormalCDF returns P(X ≤ x) for X ~ N(mean, std²).
func NormalCDF(x, mean, std float64) float64 {
	if std <= 0 {
		if x < mean {
			return 0
		}
		return 1
	}
	return 0.5 * math.Erfc(-(x-mean)/(std*math.Sqrt2))
}

// StdNormalCDF returns Φ(z), the standard normal CDF.
func StdNormalCDF(z float64) float64 { return NormalCDF(z, 0, 1) }

// NormalQuantile returns the z with NormalCDF(z, mean, std) = p, computed by
// bisection. p must lie strictly in (0, 1).
func NormalQuantile(p, mean, std float64) (float64, error) {
	if p <= 0 || p >= 1 {
		return 0, errors.New("stats: quantile probability out of (0,1)")
	}
	lo, hi := mean-float64(12*std), mean+float64(12*std)
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if NormalCDF(mid, mean, std) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, nil
}

// KSResult reports a one-sample Kolmogorov–Smirnov test against a fitted
// normal distribution.
type KSResult struct {
	Statistic float64 // D_n, the sup-norm distance between empirical and model CDF
	PValue    float64 // asymptotic p-value via the Kolmogorov distribution
	Mean, Std float64 // fitted parameters
	Normal    bool    // PValue ≥ 0.05
}

// KSTestNormal fits a normal distribution to xs and runs a one-sample
// Kolmogorov–Smirnov test against it. It mirrors the check the paper uses to
// establish that reproduction errors are normally distributed (Sec. VII-C).
func KSTestNormal(xs []float64) (KSResult, error) {
	if len(xs) < 3 {
		return KSResult{}, errors.New("stats: KS test needs at least 3 samples")
	}
	m, err := Mean(xs)
	if err != nil {
		return KSResult{}, err
	}
	sd, err := Std(xs)
	if err != nil {
		return KSResult{}, err
	}
	if sd == 0 {
		return KSResult{Statistic: 1, PValue: 0, Mean: m, Std: sd}, nil
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	n := float64(len(sorted))
	var d float64
	for i, x := range sorted {
		f := NormalCDF(x, m, sd)
		upper := (float64(i)+1)/n - f
		lower := f - float64(i)/n
		if upper > d {
			d = upper
		}
		if lower > d {
			d = lower
		}
	}
	p := ksPValue(d, len(sorted))
	return KSResult{Statistic: d, PValue: p, Mean: m, Std: sd, Normal: p >= 0.05}, nil
}

// ksPValue returns the asymptotic Kolmogorov p-value
// P(D_n > d) ≈ 2 Σ_{k≥1} (-1)^{k-1} exp(-2 k² λ²) with the small-sample
// correction λ = d(√n + 0.12 + 0.11/√n) (Stephens 1970).
func ksPValue(d float64, n int) float64 {
	sqrtN := math.Sqrt(float64(n))
	lambda := d * (sqrtN + 0.12 + 0.11/sqrtN)
	if lambda < 1e-6 {
		return 1
	}
	var sum float64
	for k := 1; k <= 100; k++ {
		term := math.Exp(-2 * float64(k*k) * lambda * lambda)
		if k%2 == 1 {
			sum += term
		} else {
			sum -= term
		}
		if term < 1e-12 {
			break
		}
	}
	p := 2 * sum
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	return p
}

// Pearson returns the linear correlation coefficient of the paired samples
// xs and ys. It quantifies claims like "reproduction error grows linearly
// with the checkpoint interval" (Sec. VII-C).
func Pearson(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, errors.New("stats: paired samples differ in length")
	}
	if len(xs) < 2 {
		return 0, ErrEmptySample
	}
	mx, err := Mean(xs)
	if err != nil {
		return 0, err
	}
	my, err := Mean(ys)
	if err != nil {
		return 0, err
	}
	var cov, vx, vy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		cov += float64(dx * dy)
		vx += float64(dx * dx)
		vy += float64(dy * dy)
	}
	if vx == 0 || vy == 0 {
		return 0, errors.New("stats: zero variance in correlation")
	}
	return cov / math.Sqrt(vx*vy), nil
}

// Histogram bins xs into n equal-width buckets over [min, max] and returns
// the bucket edges (n+1 values) and counts (n values).
func Histogram(xs []float64, n int) (edges []float64, counts []int, err error) {
	if n <= 0 {
		return nil, nil, errors.New("stats: histogram needs at least one bucket")
	}
	lo, hi, err := MinMax(xs)
	if err != nil {
		return nil, nil, err
	}
	//rpolvet:ignore floateq exact check for a fully degenerate range; any nonzero width avoids the division below
	if hi == lo {
		hi = lo + 1
	}
	edges = make([]float64, n+1)
	width := (hi - lo) / float64(n)
	for i := range edges {
		edges[i] = lo + float64(float64(i)*width)
	}
	counts = make([]int, n)
	for _, x := range xs {
		idx := int((x - lo) / width)
		if idx >= n {
			idx = n - 1
		}
		if idx < 0 {
			idx = 0
		}
		counts[idx]++
	}
	return edges, counts, nil
}
