package main

import (
	"math"
	"sort"
)

// at reads an ascending slice at a fractional index, interpolating linearly
// and clamping to the ends; 0 for an empty slice.
func at(sorted []float64, pos float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos = math.Max(0, math.Min(pos, float64(len(sorted)-1)))
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(sorted)-1)
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) of an ascending slice, with the
// ends of the slice as its 0- and 1-quantile.
func quantile(sorted []float64, q float64) float64 {
	return at(sorted, q*float64(len(sorted)-1))
}

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// ratio is a/b, and 0 when there is nothing to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tailPercentiles are the tails a run may report, highest first.
var tailPercentiles = []int{99, 95, 90, 75}

// supportedTail returns the highest percentile that has at least ten of n
// samples beyond it, falling back to the median when even p75 has fewer
// (n < 40). p90 needs 100 samples, p99 a thousand.
func supportedTail(n int) int {
	for _, p := range tailPercentiles {
		if n*(100-p) >= 10*100 {
			return p
		}
	}
	return 50
}

// spread summarises repeated readings of one metric the way the driver
// judges them: the distance between the first and third quartile as a share
// of the median (statistics.quantiles(values, n=4) in Python, which is the
// exclusive method), and the largest relative distance of any reading from
// the median.
type spread struct {
	Median, Q1, Q3 float64
	IQRShare       float64
	MaxShare       float64
}

func spreadOf(values []float64) spread {
	s := sortedCopy(values)
	exclusive := func(q float64) float64 { return at(s, q*float64(len(s)+1)-1) }
	out := spread{Median: exclusive(0.5), Q1: exclusive(0.25), Q3: exclusive(0.75)}
	out.IQRShare = ratio(out.Q3-out.Q1, math.Abs(out.Median))
	for _, v := range s {
		out.MaxShare = math.Max(out.MaxShare, ratio(math.Abs(v-out.Median), math.Abs(out.Median)))
	}
	return out
}
