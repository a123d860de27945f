package rpol

import (
	"errors"
	"fmt"

	"rpol/internal/dataset"
	"rpol/internal/gpu"
	"rpol/internal/lsh"
	"rpol/internal/nn"
	"rpol/internal/obs"
	"rpol/internal/stats"
	"rpol/internal/tensor"
)

// Calibrator implements the manager's adaptive strategy for LSH calibration
// (Sec. V-C). The manager keeps one of the (n+1) i.i.d. shards for itself;
// before each epoch it executes that probe sub-task twice — once on each of
// the pool's top-2 best-performing GPU profiles, to provoke reproduction
// errors near their worst case — measures the per-checkpoint errors, and
// sets
//
//	α = mean + std of the measured errors,
//	β = XFactor·α + YOffset  (the paper's β = x·α + y; evaluation uses 5α),
//
// then solves Eq. (6) for the LSH parameters under the budget K_lsh.
type Calibrator struct {
	// Net is the model architecture used for probe runs; weights are
	// overwritten.
	Net *nn.Network
	// Shard is the manager's own probe sub-dataset.
	Shard *dataset.Dataset
	// XFactor and YOffset define β = XFactor·α + YOffset. The paper's
	// evaluation uses XFactor 5, YOffset 0 (Sec. VII-D).
	XFactor float64
	YOffset float64
	// KLsh is the computational budget k·l ≤ K_lsh (16 in the evaluation).
	KLsh int
	// Obs routes calibration metrics and spans; nil falls back to the
	// process default observer. Trace is the parent span (typically the
	// manager's epoch span) and may be nil.
	Obs   *obs.Observer
	Trace *obs.Span

	// trainer runs every probe for the calibrator's lifetime: its runtime is
	// built once, on the first step. devices are the two probe devices, reset
	// by each calibration. probe is the last calibration's first-probe trace,
	// handed back to trainer by the next one; walk is the one vector the
	// second probe trains through, interval by interval. fam is the LSH
	// family the last Calibrate returned, rebuilt in place by the next.
	trainer *Trainer
	devices [2]*gpu.Device
	probe   *Trace
	walk    tensor.Vector
	fam     *lsh.Family
}

// reproErrorBuckets are the fixed histogram bounds for measured
// reproduction errors (log-spaced decades).
var reproErrorBuckets = []float64{1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1}

// ErrNoErrors is returned when a probe run produces no comparable
// checkpoints.
var ErrNoErrors = errors.New("rpol: calibration produced no reproduction errors")

// Calibrate runs the probe twice on the top-2 profiles and returns the
// epoch's calibration plus the LSH family workers must use. probeSeeds
// individualize the two hardware runs; lshSeed derives the shared family.
// The family is the calibrator's own: it is valid until the next Calibrate,
// which rebuilds it in place.
func (c *Calibrator) Calibrate(p TaskParams, top1, top2 gpu.Profile, probeSeeds [2]int64, lshSeed int64) (*Calibration, *lsh.Family, error) {
	return c.calibrate(p, top1, top2, probeSeeds, lshSeed, true)
}

// calibrate is Calibrate, building the LSH family only when withFamily is
// set (RPoLv1 commits raw weights and never reads one); without it the
// family is nil and lshSeed unused.
func (c *Calibrator) calibrate(p TaskParams, top1, top2 gpu.Profile, probeSeeds [2]int64, lshSeed int64, withFamily bool) (*Calibration, *lsh.Family, error) {
	if c.Net == nil || c.Shard == nil {
		return nil, nil, errors.New("rpol: calibrator needs a network and a probe shard")
	}
	o := c.Obs.OrDefault()
	span := o.Start(c.Trace, "manager.calibrate", obs.Int("epoch", int64(p.Epoch)))
	defer span.End()
	errsList, err := c.MeasureErrors(p, top1, top2, probeSeeds)
	if err != nil {
		return nil, nil, err
	}
	errHist := o.Histogram("rpol_repro_error", reproErrorBuckets)
	for _, e := range errsList {
		errHist.Observe(e)
	}
	summary, err := stats.Summarize(errsList)
	if err != nil {
		return nil, nil, fmt.Errorf("rpol calibrate: %w", err)
	}
	xf := c.XFactor
	if xf <= 0 {
		xf = 5
	}
	alpha := summary.MeanPlusSD
	if alpha <= 0 {
		// Degenerate noiseless probe: fall back to a tiny positive bound so
		// LSH optimization stays well-posed.
		alpha = 1e-12
	}
	beta := float64(xf*alpha) + c.YOffset
	params, worstFNR, worstFPR, err := lsh.Optimize(alpha, beta, lsh.OptimizeOptions{KLsh: c.KLsh})
	if err != nil {
		return nil, nil, fmt.Errorf("rpol calibrate: %w", err)
	}
	cal := &Calibration{
		Alpha:     alpha,
		Beta:      beta,
		Params:    params,
		WorstFNR:  worstFNR,
		WorstFPR:  worstFPR,
		MaxError:  summary.Max,
		NumProbes: summary.N,
	}
	o.Counter("rpol_calibrations_total").Inc()
	o.Gauge("rpol_alpha").Set(alpha)
	o.Gauge("rpol_beta").Set(beta)
	if !withFamily {
		return cal, nil, nil
	}
	fam, err := lsh.RebuildFamily(c.fam, len(p.Global), params, lshSeed)
	c.fam = fam
	if err != nil {
		return nil, nil, fmt.Errorf("rpol calibrate: %w", err)
	}
	return cal, fam, nil
}

// MeasureErrors runs the probe sub-task twice (once per profile) and
// returns the Euclidean reproduction errors of all comparable checkpoints.
// The first probe keeps its trace; the second walks one vector through the
// same intervals and is measured against the first after each, which gives
// TraceDistances of the two traces without keeping the second.
func (c *Calibrator) MeasureErrors(p TaskParams, top1, top2 gpu.Profile, probeSeeds [2]int64) ([]float64, error) {
	o := c.Obs.OrDefault()
	if c.trainer == nil || c.trainer.Net != c.Net {
		c.trainer = &Trainer{Net: c.Net}
	}
	c.trainer.Shard, c.trainer.Steps = c.Shard, o.Counter("rpol_probe_steps_total")
	c.trainer.Recycle(c.probe)
	var out []float64
	for i, profile := range [2]gpu.Profile{top1, top2} {
		var err error
		if c.devices[i] == nil {
			c.devices[i], err = gpu.NewDevice(profile, probeSeeds[i])
		} else {
			err = c.devices[i].Reset(profile, probeSeeds[i])
		}
		if err != nil {
			return nil, fmt.Errorf("rpol calibrate: %w", err)
		}
		c.trainer.Device = c.devices[i]
		probeSpan := o.Start(c.Trace, "calibrate.probe", obs.String("gpu", profile.Name))
		if i == 0 {
			c.probe, err = c.trainer.RunEpoch(p)
		} else {
			out, err = c.walkProbe(p)
		}
		probeSpan.End()
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// walkProbe runs the second probe through the first probe's intervals in
// c.walk and returns the distance to the first probe's checkpoint after
// each interval.
func (c *Calibrator) walkProbe(p TaskParams) ([]float64, error) {
	cps := c.probe.Checkpoints
	if len(cps) < 2 {
		return nil, ErrNoErrors
	}
	out := make([]float64, 0, len(cps)-1)
	start := cps[0]
	for k := 1; k < len(cps); k++ {
		step, steps, err := c.probe.IntervalSteps(k - 1)
		if err != nil {
			return nil, err
		}
		if c.walk, err = c.trainer.ExecuteInterval(c.walk, start, step, steps, p.Hyper, p.Nonce); err != nil {
			return nil, err
		}
		start = c.walk
		d, err := tensor.Distance(cps[k], c.walk)
		if err != nil {
			return nil, fmt.Errorf("rpol trace distance %d: %w", k, err)
		}
		out = append(out, d)
	}
	return out, nil
}

// TraceDistances returns the per-checkpoint Euclidean distances between two
// traces of the same task, skipping the identical initial checkpoint.
func TraceDistances(a, b *Trace) ([]float64, error) {
	if len(a.Checkpoints) != len(b.Checkpoints) {
		return nil, fmt.Errorf("rpol: traces have %d vs %d checkpoints", len(a.Checkpoints), len(b.Checkpoints))
	}
	if len(a.Checkpoints) < 2 {
		return nil, ErrNoErrors
	}
	out := make([]float64, 0, len(a.Checkpoints)-1)
	for i := 1; i < len(a.Checkpoints); i++ {
		d, err := tensor.Distance(a.Checkpoints[i], b.Checkpoints[i])
		if err != nil {
			return nil, fmt.Errorf("rpol trace distance %d: %w", i, err)
		}
		out = append(out, d)
	}
	return out, nil
}
