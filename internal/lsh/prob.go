// Package lsh implements the p-stable locality-sensitive hashing that RPoL
// uses for robust, communication-efficient verification (Sec. II-C, V-C).
//
// A family has l groups of k hash functions h(x) = ⌊(a·x + b)/r⌋ with a drawn
// from a 2-stable (Gaussian) distribution and b uniform in [0, r). Two
// vectors match if all k functions agree in at least one group, giving the
// match probability Pr_lsh(c) = 1 − (1 − p(c)^k)^l where p(c) is the
// single-function collision probability at Euclidean distance c.
//
// RPoL replaces "transfer the output weights and compare distances" with
// "commit an LSH digest of the output weights and fuzzy-match it", cutting
// verification communication roughly in half while tolerating the inherent
// reproduction errors of DNN training.
package lsh

import (
	"errors"
	"fmt"
	"math"

	"rpol/internal/stats"
)

// Params are the tunable LSH configuration {r, k, l} from Sec. II-C.
type Params struct {
	R float64 // bucket width
	K int     // hash functions per group (AND)
	L int     // groups (OR)
}

// Validate checks that the parameters are usable.
func (p Params) Validate() error {
	if p.R <= 0 || p.K < 1 || p.L < 1 {
		return fmt.Errorf("lsh: invalid params %+v", p)
	}
	return nil
}

// CollisionProb returns p(c, r): the probability that a single 2-stable hash
// function maps two vectors at Euclidean distance c to the same bucket with
// width r (Datar et al. 2004):
//
//	p(c) = 1 − 2Φ(−r/c) − (2c/(√(2π)·r))·(1 − exp(−r²/(2c²)))
//
// By convention p(0) = 1.
func CollisionProb(c, r float64) float64 {
	if c <= 0 {
		return 1
	}
	if r <= 0 {
		return 0
	}
	t := r / c
	p := 1 - float64(2*stats.StdNormalCDF(-t)) - float64((2/(math.Sqrt(2*math.Pi)*t))*(1-math.Exp(float64(-t*t)/2)))
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// MatchProb returns Pr_lsh(c, r, k, l) = 1 − (1 − p(c)^k)^l, the probability
// that two vectors at distance c produce matching digests in at least one of
// the l groups.
func MatchProb(c float64, p Params) float64 {
	single := CollisionProb(c, p.R)
	return 1 - math.Pow(1-math.Pow(single, float64(p.K)), float64(p.L))
}

// FNRAtWorstCase returns the paper's near-worst-case false-negative rate
// max(FNR_lsh) = 1 − Pr_lsh(α): the chance an honest result whose
// reproduction error equals α fails the LSH match (Eq. 5/6).
func FNRAtWorstCase(alpha float64, p Params) float64 {
	return 1 - MatchProb(alpha, p)
}

// FPRAtWorstCase returns max(FPR_lsh) = Pr_lsh(β): the chance a spoofed
// result at exactly the dissimilarity threshold β passes the LSH match.
func FPRAtWorstCase(beta float64, p Params) float64 {
	return MatchProb(beta, p)
}

// Errors for calibration inputs.
var (
	ErrBadBounds = errors.New("lsh: need 0 < alpha < beta")
	ErrBadBudget = errors.New("lsh: computational budget K_lsh must allow k·l ≥ 1")
)

// OptimizeOptions configures the simple-additive-weighting search of Eq. (6).
type OptimizeOptions struct {
	// KLsh is the computational budget constraint k·l ≤ K_lsh. The paper's
	// evaluation uses 16 (Sec. VII-D).
	KLsh int
	// WeightFNR and WeightFPR weight the two objectives; equal weights by
	// default.
	WeightFNR, WeightFPR float64
	// RGridSize controls how finely the bucket width r is searched between
	// alpha and a multiple of beta. Defaults to 64.
	RGridSize int
}

func (o *OptimizeOptions) defaults() {
	if o.KLsh <= 0 {
		o.KLsh = 16
	}
	if o.WeightFNR <= 0 {
		o.WeightFNR = 0.5
	}
	if o.WeightFPR <= 0 {
		o.WeightFPR = 0.5
	}
	if o.RGridSize <= 0 {
		o.RGridSize = 64
	}
}

// Optimize solves the multi-objective LSH setting problem of Eq. (6): it
// searches {r, k, l} with k·l ≤ K_lsh minimizing the simple-additive-weighted
// sum of the worst-case FNR (honest error = α) and worst-case FPR (spoof
// distance = β). It returns the chosen parameters and their worst-case rates.
func Optimize(alpha, beta float64, opts OptimizeOptions) (Params, float64, float64, error) {
	if alpha <= 0 || beta <= alpha {
		return Params{}, 0, 0, fmt.Errorf("alpha %v beta %v: %w", alpha, beta, ErrBadBounds)
	}
	opts.defaults()
	if opts.KLsh < 1 {
		return Params{}, 0, 0, ErrBadBudget
	}

	bestScore := math.Inf(1)
	var best Params
	// r is searched from around α up to several β; the useful regime has
	// p(α) high and p(β) low, which requires r between the two scales.
	rLo, rHi := alpha/2, beta*8
	for i := 0; i < opts.RGridSize; i++ {
		frac := float64(i) / float64(opts.RGridSize-1)
		r := rLo * math.Pow(rHi/rLo, frac) // log-spaced grid
		for k := 1; k <= opts.KLsh; k++ {
			for l := 1; k*l <= opts.KLsh; l++ {
				p := Params{R: r, K: k, L: l}
				score := float64(opts.WeightFNR*FNRAtWorstCase(alpha, p)) +
					float64(opts.WeightFPR*FPRAtWorstCase(beta, p))
				if score < bestScore {
					bestScore = score
					best = p
				}
			}
		}
	}
	return best, FNRAtWorstCase(alpha, best), FPRAtWorstCase(beta, best), nil
}
