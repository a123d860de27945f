package rpol

import (
	"errors"
	"fmt"
	"slices"

	"rpol/internal/commitment"
	"rpol/internal/dataset"
	"rpol/internal/gpu"
	"rpol/internal/lsh"
	"rpol/internal/nn"
	"rpol/internal/obs"
	"rpol/internal/tensor"
)

// Verifier is the manager-side verification engine. For each submission it
// samples checkpoint intervals (after the worker has committed), re-executes
// them on the manager's own hardware, and accepts only if every sample's
// outcome is consistent with what the worker committed.
type Verifier struct {
	// Scheme selects baseline / RPoLv1 / RPoLv2 behaviour.
	Scheme Scheme
	// Net is the model architecture used for re-execution; its weights are
	// overwritten per sample.
	Net *nn.Network
	// Device is the manager's GPU (re-execution inherits its
	// nondeterminism).
	Device *gpu.Device
	// Beta is the distance threshold separating benign reproduction errors
	// from spoofed weights; results at distance ≥ Beta are rejected.
	Beta float64
	// LSH is the calibrated family under RPoLv2 (nil otherwise).
	LSH *lsh.Family
	// Samples is q, the number of checkpoint intervals verified per
	// submission (3 in the paper's evaluation, Sec. VII-A).
	Samples int
	// Sampler draws the sampled intervals, after the commitment. The
	// manager reseeds it with each submission's challenge seed, a function
	// of the commitment, before verifying the submission.
	Sampler *tensor.RNG
	// DisableDoubleCheck turns off the raw-weight fallback on LSH misses
	// (RPoLv2 only). The paper argues the double-check is what guarantees
	// rewards for honesty; this switch exists for the ablation that
	// quantifies exactly that.
	DisableDoubleCheck bool
	// Obs routes verification metrics and spans; nil falls back to the
	// process default observer.
	Obs *obs.Observer

	// trainer replays every sampled interval, for the verifier's lifetime
	// (rebuilt when Net changes): its runtime is built once, on the first
	// step.
	trainer *Trainer
	// store holds the leaves of the submission under verification.
	store leafStore
	// final holds θ_t + L of the submission under verification, and output
	// the replay of its interval under comparison: each is refilled by the
	// next, and neither is read past the submission.
	final, output tensor.Vector
}

// observer resolves the verifier's observer against the process default.
func (v *Verifier) observer() *obs.Observer { return v.Obs.OrDefault() }

// Errors surfaced by verification configuration.
var (
	ErrNoSampler = errors.New("rpol: verifier needs a sampler RNG")
	ErrNoNetwork = errors.New("rpol: verifier needs a network")
)

// Rejection reasons. A rejected outcome's FailReason wraps the one naming the
// rule the submission broke, and a failed binding the leaf store's reason as
// well; a leaf whose proof does not verify is rejected with
// commitment.ErrMismatch. PROTOCOL §4 tables each with the step that raises
// it.
var (
	// ErrLeafCount rejects a submission that commits another count than the task's.
	ErrLeafCount = errors.New("rpol: committed checkpoint count is not the task's")
	// ErrDataSize rejects a claimed |D_w|, the Eq. (1) weight, other than the shard's.
	ErrDataSize = errors.New("rpol: claimed data size is not the shard's")
	// ErrWrongStart rejects a trace whose leaf 0 is not θ_t.
	ErrWrongStart = errors.New("trace does not start from the distributed global model")
	// ErrUpdateSize rejects an update of another length than the model.
	ErrUpdateSize = errors.New("rpol: update size is not the model's")
	// ErrWrongFinal rejects an update whose θ_t + L is not the last leaf.
	ErrWrongFinal = errors.New("submitted update does not reach the committed final checkpoint")
	// ErrNotOpened rejects a worker that answered a request with an error.
	ErrNotOpened = errors.New("rpol: leaf not opened")
	// ErrProofIndex rejects a proof that answers for another leaf than asked.
	ErrProofIndex = errors.New("rpol: proof bound to another leaf")
	// ErrNoDigest rejects a v2 proof with no well-formed digest riding along.
	ErrNoDigest = errors.New("rpol: proof carries no digest")
	// ErrNonFinite rejects a leaf, or a replay, holding a NaN or an infinity.
	ErrNonFinite = errors.New("rpol: weights are not finite")
	// ErrLSHMismatch rejects a v2 digest miss when the double-check is off.
	ErrLSHMismatch = errors.New("LSH mismatch")
	// ErrDistance rejects a replay that lands β or farther from its leaf.
	ErrDistance = errors.New("rpol: replay distance is not below β")
)

// reason gives err a rejection reason without changing its text.
type reason struct {
	error
	class error
}

func (r reason) Unwrap() []error { return []error{r.class, r.error} }

// breaks names the rule a failed binding broke. A lost opening keeps its own
// text: the worker is absent then, not wrong.
func breaks(rule, err error) error {
	if errors.Is(err, ErrWorkerUnavailable) {
		return err
	}
	return fmt.Errorf("%w: %w", rule, err)
}

// sampleIntervals draws q distinct interval start indices from
// [0, numCheckpoints-1). Sampling happens strictly after the worker's
// commitment arrived — the delayed-disclosure property that defeats
// selective training.
func (v *Verifier) sampleIntervals(numCheckpoints int) []int {
	intervals := numCheckpoints - 1
	if intervals <= 0 {
		return nil
	}
	q := v.Samples
	if q <= 0 {
		q = 3
	}
	if q >= intervals {
		out := make([]int, intervals)
		for i := range out {
			out[i] = i
		}
		return out
	}
	return slices.Clone(v.Sampler.Perm(intervals)[:q])
}

// VerifySubmission checks one worker's epoch submission. shard must be the
// worker's sub-dataset (the manager partitioned the data, so it has it).
// The verification span nests under p.Trace (the worker's epoch span).
func (v *Verifier) VerifySubmission(opener ProofOpener, shard *dataset.Dataset, result *EpochResult, p TaskParams) (*VerifyOutcome, error) {
	out := &VerifyOutcome{WorkerID: result.WorkerID, Epoch: result.Epoch}
	span := v.observer().Start(p.Trace, "verify.submission",
		obs.String("worker", result.WorkerID), obs.String("scheme", v.Scheme.String()))
	defer func() {
		switch {
		case out.Accepted:
			out.Outcome = OutcomeAccepted
		case errors.Is(out.FailReason, ErrWorkerUnavailable):
			out.Outcome = OutcomeAbsent // counted by the manager, never rejected
		default:
			out.Outcome = OutcomeRejected
		}
		v.observer().Counter("rpol_verify_comm_bytes_total").Add(out.CommBytes)
		span.End(obs.Bool("accepted", out.Accepted), obs.String("fail", reasonText(out.FailReason)),
			obs.Int("commBytes", out.CommBytes), obs.Int("reexecSteps", int64(out.ReexecSteps)))
	}()
	if v.Scheme == SchemeBaseline {
		out.Accepted = true
		return out, nil
	}
	if v.Net == nil {
		return nil, ErrNoNetwork
	}
	if v.Sampler == nil {
		return nil, ErrNoSampler
	}
	var fam *lsh.Family // nil under v1: the leaf is the weight encoding
	if v.Scheme == SchemeV2 {
		if fam = v.LSH; fam == nil {
			return nil, errors.New("rpol: RPoLv2 verifier needs an LSH family")
		}
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("rpol verify task: %w", err)
	}
	// The trace's shape is the task's, never the worker's claim: a worker
	// that trains one interval and commits a 2-leaf trace would otherwise
	// pass both bindings and its one sampled interval — full reward for 1/n
	// of the work. Rejected before any byte is pulled or tallied.
	n := p.NumCheckpoints()
	if result.NumCheckpoints != n {
		out.FailReason = fmt.Errorf("%w: submission commits %d, the task has %d", ErrLeafCount, result.NumCheckpoints, n)
		return out, nil
	}
	// So is its Eq. (1) weight: the manager partitioned the data.
	if result.DataSize != shard.Len() {
		out.FailReason = fmt.Errorf("%w: submission claims %d examples, the shard holds %d", ErrDataSize, result.DataSize, shard.Len())
		return out, nil
	}
	// The submission carries only the 32-byte root; every leaf the verifier
	// uses is authenticated by a proof pulled on demand (and, under v2, the
	// digest riding with it).
	out.CommitBytes = commitment.HashSize
	out.CommBytes = out.CommitBytes
	st := &v.store
	st.reset(opener, result, fam, n, out)

	// Bind the trace's origin: the first committed checkpoint must be
	// exactly the global model the manager distributed, or a worker could
	// train honestly from a stale or poisoned initialization and every
	// sampled interval would still re-execute consistently. The manager
	// holds θ_t: leaf 0 is in the store from here on, never requested.
	if err := st.bind(0, p.Global); err != nil {
		out.FailReason = breaks(ErrWrongStart, err)
		return out, nil
	}

	// Bind the submitted update to the trace's end: θ_t + L must be the
	// final committed checkpoint, or a worker could train (and prove)
	// honestly yet submit a scaled or poisoned update for aggregation. The
	// manager computes θ_t + L itself: leaf n−1 is never requested either.
	if len(result.Update) != len(p.Global) {
		out.FailReason = reason{fmt.Errorf("update has %d weights, want %d", len(result.Update), len(p.Global)), ErrUpdateSize}
		return out, nil
	}
	var err error
	v.final, err = p.Global.AddInto(v.final, result.Update)
	if err != nil {
		return nil, fmt.Errorf("rpol verify update binding: %w", err)
	}
	if err := st.bind(n-1, v.final); err != nil {
		out.FailReason = breaks(ErrWrongFinal, err)
		return out, nil
	}

	challengeSpan := v.observer().Start(span, "verify.challenge", obs.Int("checkpoints", int64(n)))
	out.SampledCheckpoints = v.sampleIntervals(n)
	challengeSpan.End(obs.Int("sampled", int64(len(out.SampledCheckpoints))))
	v.observer().Counter("rpol_challenges_total").Add(int64(len(out.SampledCheckpoints)))

	out.Accepted, err = v.verifyIntervals(st, shard, p, out, span)
	return out, err
}

// verifyIntervals replays out.SampledCheckpoints in sampled order against
// the store's submission, stopping at the first failing interval. It returns
// (false, nil) with out.FailReason set on a rejection, an error on internal
// failures.
func (v *Verifier) verifyIntervals(st *leafStore, shard *dataset.Dataset, p TaskParams, out *VerifyOutcome, parent *obs.Span) (bool, error) {
	if v.trainer == nil || v.trainer.Net != v.Net {
		v.trainer = &Trainer{Net: v.Net}
	}
	v.trainer.Shard, v.trainer.Device = shard, v.Device
	v.trainer.Steps = v.observer().Counter("rpol_reexec_steps_total")
	for _, c := range out.SampledCheckpoints {
		// Interval k+1's leaves are not requested once interval k failed.
		input, err := st.weights(c)
		if err != nil {
			out.FailReason = err
			return false, nil
		}
		r, err := v.replay(input, p, c, parent)
		if err != nil {
			return false, err
		}
		out.ReexecSteps += r.steps
		if !r.weights.IsFinite() {
			out.FailReason = fmt.Errorf("checkpoint %d: replay: %w", c, ErrNonFinite)
			return false, nil
		}
		if ok, err := v.compare(st, c, r, out, parent); !ok || err != nil {
			return false, err
		}
	}
	return true, nil
}

// replayed is the manager's own re-execution of one sampled interval.
type replayed struct {
	weights tensor.Vector
	digest  lsh.Digest // v2: the LSH digest of weights
	steps   int
}

// replay re-executes the sampled interval c → c+1 from its authenticated
// input on the verifier's trainer, on the manager's hardware.
func (v *Verifier) replay(input tensor.Vector, p TaskParams, c int, parent *obs.Span) (replayed, error) {
	startStep := c * p.CheckpointEvery
	r := replayed{steps: min(p.CheckpointEvery, p.Steps-startStep)}
	span := v.observer().Start(parent, "verify.reproduce",
		obs.Int("checkpoint", int64(c)), obs.Int("steps", int64(r.steps)))
	var err error
	v.output, err = v.trainer.ExecuteInterval(v.output, input, startStep, r.steps, p.Hyper, p.Nonce)
	span.End()
	if err != nil {
		return r, fmt.Errorf("rpol verify re-execution: %w", err)
	}
	r.weights = v.output
	if v.Scheme == SchemeV2 {
		if r.digest, err = v.LSH.Hash(r.weights); err != nil {
			return r, fmt.Errorf("rpol verify lsh: %w", err)
		}
	}
	return r, nil
}

// compare holds the replay of interval c → c+1 against the committed leaf
// c+1. RPoLv1 compares the raw output weights' Euclidean distance against
// Beta. RPoLv2 fuzzy-matches the committed digest and only on a miss falls
// back to the raw-weight double-check, which guarantees rewards for honesty
// at the cost of one extra transfer (Sec. V-C). It returns (false, nil) with
// out.FailReason set on a protocol-level rejection.
func (v *Verifier) compare(st *leafStore, c int, r replayed, out *VerifyOutcome, parent *obs.Span) (bool, error) {
	span := v.observer().Start(parent, "verify.compare", obs.Int("checkpoint", int64(c)))
	defer span.End()
	check := ""
	if v.Scheme == SchemeV2 {
		committed, err := st.digest(c + 1)
		if err != nil {
			out.FailReason = err
			return false, nil
		}
		v.observer().Counter("rpol_lsh_compares_total").Inc()
		if lsh.Match(r.digest, committed) {
			return true, nil
		}
		out.LSHMisses++
		v.observer().Counter("rpol_lsh_misses_total").Inc()
		if v.DisableDoubleCheck {
			out.FailReason = fmt.Errorf("checkpoint %d: %w (double-check disabled)", c, ErrLSHMismatch)
			return false, nil
		}
		check = "double-check "
	}
	output, err := st.weights(c + 1)
	if err != nil {
		out.FailReason = fmt.Errorf("%s%w", check, err)
		return false, nil
	}
	if check != "" {
		out.DoubleChecks++
		v.observer().Counter("rpol_double_checks_total").Inc()
	}
	dist, err := tensor.Distance(r.weights, output)
	if err != nil {
		return false, fmt.Errorf("rpol verify distance: %w", err)
	}
	if !(dist < v.Beta) { // so that a NaN distance fails too
		out.FailReason = reason{fmt.Errorf("checkpoint %d: %sdistance %.6g ≥ β %.6g", c, check, dist, v.Beta), ErrDistance}
		return false, nil
	}
	return true, nil
}
