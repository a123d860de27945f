package lsh

import "errors"

// This file implements Eq. (5) of the paper exactly: the expected LSH
// matching-fail rate for honest participants and matching-pass rate for
// dishonest ones, as integrals of the match probability against the
// reproduction-distance and spoof-distance densities,
//
//	FNR_lsh = ∫_0^β  p_repr(c)·(1 − Pr_lsh(c)) dc,
//	FPR_lsh = ∫_β^∞ p_spoof(c)·Pr_lsh(c) dc.
//
// The Optimize routine uses the paper's near-worst-case point masses
// (all honest errors at α, all spoofs at β); these integrals evaluate the
// rates for arbitrary measured densities — e.g. the normal distributions
// Fig. 4 establishes for reproduction errors.

// ErrBadIntegral is returned for malformed integration bounds.
var ErrBadIntegral = errors.New("lsh: invalid integration bounds")

// integrate runs composite-trapezoid integration of f over [lo, hi].
func integrate(f func(float64) float64, lo, hi float64, steps int) float64 {
	if steps < 1 {
		steps = 256
	}
	h := (hi - lo) / float64(steps)
	sum := (f(lo) + f(hi)) / 2
	for i := 1; i < steps; i++ {
		sum += f(lo + float64(float64(i)*h))
	}
	return sum * h
}

// FNRIntegral evaluates Eq. (5)'s false-negative rate: the probability that
// an honest result, whose reproduction distance is distributed with density
// pRepr over [0, β), fails the LSH match.
func FNRIntegral(pRepr func(float64) float64, beta float64, p Params, steps int) (float64, error) {
	if beta <= 0 {
		return 0, ErrBadIntegral
	}
	if err := p.Validate(); err != nil {
		return 0, err
	}
	val := integrate(func(c float64) float64 {
		return pRepr(c) * (1 - MatchProb(c, p))
	}, 0, beta, steps)
	return clamp01(val), nil
}

// FPRIntegral evaluates Eq. (5)'s false-positive rate: the probability that
// a spoofed result, whose distance is distributed with density pSpoof over
// [β, upper], passes the LSH match. upper truncates the improper integral;
// choose it several standard deviations past the spoof distribution's mass.
func FPRIntegral(pSpoof func(float64) float64, beta, upper float64, p Params, steps int) (float64, error) {
	if beta <= 0 || upper <= beta {
		return 0, ErrBadIntegral
	}
	if err := p.Validate(); err != nil {
		return 0, err
	}
	val := integrate(func(c float64) float64 {
		return pSpoof(c) * MatchProb(c, p)
	}, beta, upper, steps)
	return clamp01(val), nil
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
