package rpol

import (
	"bytes"
	"errors"
	"fmt"
	"slices"

	"rpol/internal/commitment"
	"rpol/internal/dataset"
	"rpol/internal/gpu"
	"rpol/internal/lsh"
	"rpol/internal/nn"
	"rpol/internal/obs"
	"rpol/internal/parallel"
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
	// Sampler provides the secure post-commitment sampling randomness.
	Sampler *tensor.RNG
	// DisableDoubleCheck turns off the raw-weight fallback on LSH misses
	// (RPoLv2 only). The paper argues the double-check is what guarantees
	// rewards for honesty; this switch exists for the ablation that
	// quantifies exactly that.
	DisableDoubleCheck bool
	// Workers sizes the deterministic compute pool for verification. Replay
	// runs the same kernels at every value (see Trainer.Workers): 0 replays
	// the sampled intervals in turn on Net and Device; any n ≥ 1 replays
	// them concurrently, each on a detached replica of Net and a forked
	// Device. Outcomes merge in sampled order, so the verdict is
	// deterministic for every n ≥ 1. Openers must then tolerate concurrent
	// OpenCheckpoint calls (all in-process workers, adversaries and stores
	// do; a worker multiplexed over a single sequential wire transport does not).
	Workers int
	// Obs routes verification metrics and spans; nil falls back to the
	// process default observer.
	Obs *obs.Observer

	// trainer replays every interval the serial loop verifies, for the
	// verifier's lifetime: its runtime is built once, on the first step.
	trainer *Trainer
	// slots[j] replays the j-th sampled interval of every submission the
	// parallel loop verifies: a detached replica of slotsNet and the runtime
	// built on it, kept for the verifier's lifetime like trainer. Slot j is
	// only ever touched by chunk j.
	slots    []*Trainer
	slotsNet *nn.Network
}

// observer resolves the verifier's observer against the process default.
func (v *Verifier) observer() *obs.Observer { return v.Obs.OrDefault() }

// Errors surfaced by verification configuration.
var (
	ErrNoSampler = errors.New("rpol: verifier needs a sampler RNG")
	ErrNoNetwork = errors.New("rpol: verifier needs a network")
)

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
	perm := v.Sampler.Perm(intervals)
	out := make([]int, q)
	copy(out, perm[:q])
	return out
}

// VerifySubmission checks one worker's epoch submission. shard must be the
// worker's sub-dataset (the manager partitioned the data, so it has it).
// The verification span nests under p.Trace (the worker's epoch span).
func (v *Verifier) VerifySubmission(opener ProofOpener, shard *dataset.Dataset, result *EpochResult, p TaskParams) (*VerifyOutcome, error) {
	out := &VerifyOutcome{WorkerID: result.WorkerID, Epoch: result.Epoch}
	span := v.observer().Start(p.Trace, "verify.submission",
		obs.String("worker", result.WorkerID), obs.String("scheme", v.Scheme.String()))
	defer func() {
		if out.Outcome == 0 {
			if out.Accepted {
				out.Outcome = OutcomeAccepted
			} else {
				out.Outcome = OutcomeRejected
			}
		}
		v.observer().Counter("rpol_submissions_verified_total").Inc()
		if out.Accepted {
			v.observer().Counter("rpol_verify_accept_total").Inc()
		} else {
			v.observer().Counter("rpol_verify_reject_total").Inc()
		}
		v.observer().Counter("rpol_verify_comm_bytes_total").Add(out.CommBytes)
		v.observer().Histogram("rpol_verify_sampled_checkpoints",
			[]float64{0, 1, 2, 3, 5, 8, 13}).Observe(float64(len(out.SampledCheckpoints)))
		span.End(obs.Bool("accepted", out.Accepted), obs.String("fail", out.FailReason),
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
	if v.Scheme == SchemeV2 && v.LSH == nil {
		return nil, errors.New("rpol: RPoLv2 verifier needs an LSH family")
	}
	if result.NumCheckpoints < 1 || result.NumCheckpoints > maxVerifyCheckpoints {
		out.FailReason = "claimed checkpoint count out of range"
		return out, nil
	}
	if result.HasRoot {
		// Streaming Merkle commitment: the submission carries only the
		// 32-byte root; every sampled leaf is authenticated by a proof
		// pulled on demand (and, under v2, the digest riding with it).
		out.CommitBytes = commitment.HashSize
	} else {
		if result.Commit == nil || result.Commit.Len() != result.NumCheckpoints {
			out.FailReason = "commitment missing or inconsistent with checkpoint count"
			return out, nil
		}
		out.CommitBytes = int64(result.Commit.Size())
		if v.Scheme == SchemeV2 {
			if len(result.LSHDigests) != result.NumCheckpoints {
				out.FailReason = "LSH digest count inconsistent with checkpoint count"
				return out, nil
			}
			for _, d := range result.LSHDigests {
				out.CommitBytes += int64(d.Size())
			}
		}
	}
	out.CommBytes = out.CommitBytes

	// Bind the trace's origin: the first committed checkpoint must be
	// exactly the global model the manager distributed. Without this check
	// a worker could train honestly from a different initialization (a
	// stale or poisoned model) and every sampled interval would still
	// re-execute consistently. The check is free — the manager holds θ_t,
	// so no transfer is needed.
	// encBuf is the submission's reused leaf-encode scratch: every leaf
	// check in the serial path shares it (the parallel path keeps one per
	// chunk instead — see verifyIntervalsParallel).
	var encBuf []byte
	var err error
	if encBuf, err = v.checkOpening(opener, result, 0, p.Global, encBuf, out); err != nil {
		out.FailReason = fmt.Sprintf("trace does not start from the distributed global model: %v", err)
		return out, nil
	}

	// Bind the submitted update to the trace's end: θ_t + L must be the
	// final committed checkpoint. Without this check a worker could train
	// (and prove) honestly yet submit an arbitrary — e.g. scaled or
	// poisoned — update for aggregation. Also free: the manager recomputes
	// the claimed final weights locally.
	if len(result.Update) != len(p.Global) {
		out.FailReason = fmt.Sprintf("update has %d weights, want %d", len(result.Update), len(p.Global))
		return out, nil
	}
	claimedFinal, err := p.Global.Add(result.Update)
	if err != nil {
		return nil, fmt.Errorf("rpol verify update binding: %w", err)
	}
	if encBuf, err = v.checkOpening(opener, result, result.NumCheckpoints-1, claimedFinal, encBuf, out); err != nil {
		out.FailReason = fmt.Sprintf("submitted update does not reach the committed final checkpoint: %v", err)
		return out, nil
	}

	challengeSpan := v.observer().Start(span, "verify.challenge",
		obs.Int("checkpoints", int64(result.NumCheckpoints)))
	out.SampledCheckpoints = v.sampleIntervals(result.NumCheckpoints)
	challengeSpan.End(obs.Int("sampled", int64(len(out.SampledCheckpoints))))
	v.observer().Counter("rpol_challenges_total").Add(int64(len(out.SampledCheckpoints)))
	if len(out.SampledCheckpoints) == 0 {
		out.FailReason = "no checkpoint intervals to sample"
		return out, nil
	}

	if v.Workers >= 1 && len(out.SampledCheckpoints) > 1 {
		ok, err := v.verifyIntervalsParallel(opener, shard, result, p, out, span)
		if err != nil {
			return nil, err
		}
		out.Accepted = ok
		return out, nil
	}

	if v.trainer == nil || v.trainer.Net != v.Net {
		v.trainer = &Trainer{Net: v.Net}
	}
	v.trainer.Shard, v.trainer.Device = shard, v.Device
	v.trainer.Steps = v.observer().Counter("rpol_reexec_steps_total")
	v.trainer.SetWorkers(v.Workers)
	for _, c := range out.SampledCheckpoints {
		ok, err := v.verifyInterval(v.trainer, opener, result, p, c, out, span, &encBuf)
		if err != nil {
			return nil, err
		}
		if !ok {
			out.Accepted = false
			return out, nil
		}
	}
	out.Accepted = true
	return out, nil
}

// verifyIntervalsParallel re-executes every sampled interval concurrently.
// Each interval runs on its slot's detached clone of the verifier's network
// and a fresh fork of its device, so concurrent replays share no mutable
// state (a replay overwrites every trainable weight, so a slot carries
// nothing from one interval into the next); per-interval
// results land in private VerifyOutcome scratch and merge into out in
// sampled order, up to and including the first failing interval — exactly
// the prefix the serial path would have accounted. The verdict and the
// merged tallies are therefore deterministic for any worker count.
//
// One documented difference from the serial path: forked devices draw
// per-interval noise streams (a pure function of the manager's run seed and
// the interval index) instead of continuing one shared sequential stream —
// both are calibrated hardware noise, orders of magnitude below β.
//
// Metrics match the serial path exactly: each interval re-executes into a
// private per-interval tally (its sub.ReexecSteps), and only the merged
// prefix — up to and including the first failure — is added to the global
// rpol_reexec_steps_total counter. Intervals past the first failure still
// execute (the fan-out cannot be cancelled retroactively) but leave no trace
// in either ReexecSteps or the counter, so serial and parallel verifiers
// report identical numbers for the same verdict.
func (v *Verifier) verifyIntervalsParallel(opener ProofOpener, shard *dataset.Dataset, result *EpochResult, p TaskParams, out *VerifyOutcome, parent *obs.Span) (bool, error) {
	sampled := out.SampledCheckpoints
	subs := make([]*VerifyOutcome, len(sampled))
	oks := make([]bool, len(sampled))
	errs := make([]error, len(sampled))
	if v.slotsNet != v.Net {
		v.slots, v.slotsNet = nil, v.Net
	}
	for len(v.slots) < len(sampled) {
		net, err := v.Net.Replicate(false)
		if err != nil {
			return false, fmt.Errorf("rpol verify replica: %w", err)
		}
		// Workers: 1 keeps a conv stack on the runtime workers at n ≥ 1
		// trained with, without nesting goroutines under the interval pool.
		v.slots = append(v.slots, &Trainer{Net: net, Workers: 1})
	}
	pool := parallel.New(v.Workers)
	pool.ForChunks(len(sampled), 1, func(_, lo, hi int) {
		// Each chunk owns a private leaf-encode scratch, reused across its
		// intervals; sharing the submission-level buffer would race.
		var encBuf []byte
		for j := lo; j < hi; j++ {
			c := sampled[j]
			// Steps land in the interval's private tally; the merge loop
			// below credits the accepted prefix to the global counter.
			var tally obs.Counter
			trainer := v.slots[j]
			trainer.Shard, trainer.Device, trainer.Steps = shard, nil, &tally
			if v.Device != nil {
				trainer.Device = v.Device.Fork(int64(c))
			}
			sub := &VerifyOutcome{WorkerID: out.WorkerID, Epoch: out.Epoch}
			oks[j], errs[j] = v.verifyInterval(trainer, opener, result, p, c, sub, parent, &encBuf)
			subs[j] = sub
		}
	})
	steps := v.observer().Counter("rpol_reexec_steps_total")
	for j := range sampled {
		if errs[j] != nil {
			return false, errs[j]
		}
		sub := subs[j]
		steps.Add(int64(sub.ReexecSteps))
		out.CommBytes += sub.CommBytes
		out.CommitBytes += sub.CommitBytes
		out.ReexecSteps += sub.ReexecSteps
		out.LSHMisses += sub.LSHMisses
		out.DoubleChecks += sub.DoubleChecks
		if !oks[j] {
			out.FailReason = sub.FailReason
			return false, nil
		}
	}
	return true, nil
}

// verifyInterval checks the single sampled interval c → c+1. It returns
// (false, nil) with out.FailReason set on a protocol-level rejection and an
// error only on internal failures. parent is the submission's span. encBuf
// is the caller-owned leaf-encode scratch every opening check in this
// interval reuses (and possibly grows in place).
func (v *Verifier) verifyInterval(trainer *Trainer, opener ProofOpener, result *EpochResult, p TaskParams, c int, out *VerifyOutcome, parent *obs.Span, encBuf *[]byte) (bool, error) {
	// 1. Obtain and validate the interval's input weights against the
	// commitment.
	input, err := opener.OpenCheckpoint(c)
	if err != nil {
		out.FailReason = fmt.Sprintf("checkpoint %d not opened: %v", c, err)
		return false, nil
	}
	if *encBuf, err = v.checkOpening(opener, result, c, input, *encBuf, out); err != nil {
		out.FailReason = fmt.Sprintf("checkpoint %d opening rejected: %v", c, err)
		return false, nil
	}
	// Count the opened weights only now that the opening validated, so every
	// verifier path tallies the same bytes for the same verdict.
	out.CommBytes += int64(tensor.EncodedSize(len(input)))

	// 2. Re-execute the interval on the manager's hardware.
	startStep := c * p.CheckpointEvery
	steps := p.CheckpointEvery
	if startStep+steps > p.Steps {
		steps = p.Steps - startStep
	}
	if steps <= 0 {
		out.FailReason = fmt.Sprintf("checkpoint %d maps past the epoch's steps", c)
		return false, nil
	}
	reexecSpan := v.observer().Start(parent, "verify.reproduce",
		obs.Int("checkpoint", int64(c)), obs.Int("steps", int64(steps)))
	reexec, err := trainer.ExecuteInterval(input, startStep, steps, p.Hyper, p.Nonce)
	reexecSpan.End()
	if err != nil {
		return false, fmt.Errorf("rpol verify re-execution: %w", err)
	}
	out.ReexecSteps += steps

	// 3. Compare outcomes.
	compareSpan := v.observer().Start(parent, "verify.compare", obs.Int("checkpoint", int64(c)))
	defer compareSpan.End()
	if v.Scheme == SchemeV1 {
		return v.compareRaw(opener, result, c, reexec, out, encBuf)
	}
	return v.compareLSH(opener, result, c, reexec, out, encBuf)
}

func (v *Verifier) lshFamily() *lsh.Family {
	if v.Scheme == SchemeV2 {
		return v.LSH
	}
	return nil
}

// maxVerifyCheckpoints bounds the checkpoint count a submission may claim
// before the verifier does any per-checkpoint work (sampling permutations,
// proof pulls). It matches the wire decoder's cap, so a submission that
// survived decoding is never rejected here for size alone.
const maxVerifyCheckpoints = 1 << 20

// checkOpening validates opened checkpoint weights against the submission's
// commitment at leaf idx: the legacy hash-list leaf check, or — under the
// streaming Merkle commitment — an inclusion proof pulled on demand from the
// opener. Pulled proof bytes are tallied into out only after the proof
// validates. buf is the caller's reused leaf-encode scratch.
func (v *Verifier) checkOpening(opener ProofOpener, result *EpochResult, idx int, weights tensor.Vector, buf []byte, out *VerifyOutcome) ([]byte, error) {
	fam := v.lshFamily()
	if !result.HasRoot {
		return verifyOpening(result, fam, idx, weights, buf)
	}
	lp, err := v.pullProof(opener, result, idx)
	if err != nil {
		return buf, err
	}
	if fam == nil {
		// v1: the leaf is the raw weight encoding the verifier recomputes.
		buf = weights.AppendEncode(buf[:0])
		if err := commitment.VerifyMerkle(result.MerkleRoot, result.NumCheckpoints, buf, lp.Proof); err != nil {
			return buf, err
		}
	} else {
		// v2: pullProof authenticated the committed digest encoding; the
		// opened weights must hash to exactly that digest.
		d, err := fam.Hash(weights)
		if err != nil {
			return buf, fmt.Errorf("rpol opening %d: %w", idx, err)
		}
		buf = d.AppendEncode(buf[:0])
		if !bytes.Equal(buf, lp.Digest) {
			return buf, fmt.Errorf("leaf %d: %w", idx, commitment.ErrMismatch)
		}
	}
	tallyPull(out, lp)
	return buf, nil
}

// pullProof requests the inclusion proof for leaf idx from the opener and
// performs the checks every pull needs: the worker answered for the leaf that
// was asked, and under v2 a digest rides along and is the leaf the proof
// authenticates against the root — no byte of it reaches a caller before
// that. Under v1 the leaf is the weight encoding, which the caller holds and
// authenticates.
func (v *Verifier) pullProof(opener ProofOpener, result *EpochResult, idx int) (LeafProof, error) {
	lp, err := opener.OpenProof(idx)
	if err != nil {
		return LeafProof{}, fmt.Errorf("proof %d not opened: %w", idx, err)
	}
	if lp.Proof.Index != idx {
		return LeafProof{}, fmt.Errorf("proof answers leaf %d, want %d", lp.Proof.Index, idx)
	}
	if v.lshFamily() == nil {
		return lp, nil
	}
	if len(lp.Digest) == 0 {
		return LeafProof{}, fmt.Errorf("proof %d carries no digest", idx)
	}
	if err := commitment.VerifyMerkle(result.MerkleRoot, result.NumCheckpoints, lp.Digest, lp.Proof); err != nil {
		return LeafProof{}, err
	}
	return lp, nil
}

// tallyPull credits a validated proof pull to the outcome's byte accounting.
func tallyPull(out *VerifyOutcome, lp LeafProof) {
	n := int64(lp.Size())
	out.CommitBytes += n
	out.CommBytes += n
}

// compareRaw is RPoLv1: fetch the raw output weights and compare Euclidean
// distance against Beta.
func (v *Verifier) compareRaw(opener ProofOpener, result *EpochResult, c int, reexec tensor.Vector, out *VerifyOutcome, encBuf *[]byte) (bool, error) {
	output, err := opener.OpenCheckpoint(c + 1)
	if err != nil {
		out.FailReason = fmt.Sprintf("checkpoint %d not opened: %v", c+1, err)
		return false, nil
	}
	if *encBuf, err = v.checkOpening(opener, result, c+1, output, *encBuf, out); err != nil {
		out.FailReason = fmt.Sprintf("checkpoint %d opening rejected: %v", c+1, err)
		return false, nil
	}
	out.CommBytes += int64(tensor.EncodedSize(len(output)))
	dist, err := tensor.Distance(reexec, output)
	if err != nil {
		return false, fmt.Errorf("rpol verify distance: %w", err)
	}
	if dist >= v.Beta {
		out.FailReason = fmt.Sprintf("checkpoint %d: distance %.6g ≥ β %.6g", c, dist, v.Beta)
		return false, nil
	}
	return true, nil
}

// compareLSH is RPoLv2: fuzzy-match the re-executed weights' digest against
// the committed digest; on a miss fall back to the raw-weight double-check,
// which guarantees rewards for honesty at the cost of one extra transfer.
func (v *Verifier) compareLSH(opener ProofOpener, result *EpochResult, c int, reexec tensor.Vector, out *VerifyOutcome, encBuf *[]byte) (bool, error) {
	var committed lsh.Digest
	if result.HasRoot {
		// The digest rides with its inclusion proof: pullProof authenticates
		// it against the root, then it is decoded. Only this pull costs bytes
		// — the legacy scheme already shipped every digest with the submission.
		lp, err := v.pullProof(opener, result, c+1)
		if err != nil {
			out.FailReason = fmt.Sprintf("checkpoint %d digest not committed: %v", c+1, err)
			return false, nil
		}
		if committed, err = lsh.DecodeDigest(lp.Digest); err != nil {
			out.FailReason = fmt.Sprintf("checkpoint %d digest malformed: %v", c+1, err)
			return false, nil
		}
		tallyPull(out, lp)
	} else {
		committed = result.LSHDigests[c+1]
		// The revealed digest must be exactly what was committed. Its bytes
		// are not tallied here: the legacy submission already shipped every
		// digest inline, counted once in CommitBytes.
		*encBuf = committed.AppendEncode((*encBuf)[:0])
		if err := result.Commit.VerifyLeaf(c+1, *encBuf); err != nil {
			out.FailReason = fmt.Sprintf("checkpoint %d digest not committed: %v", c+1, err)
			return false, nil
		}
	}
	mine, err := v.LSH.Hash(reexec)
	if err != nil {
		return false, fmt.Errorf("rpol verify lsh: %w", err)
	}
	v.observer().Counter("rpol_lsh_compares_total").Inc()
	if lsh.Match(mine, committed) {
		return true, nil
	}
	out.LSHMisses++
	v.observer().Counter("rpol_lsh_misses_total").Inc()
	if v.DisableDoubleCheck {
		out.FailReason = fmt.Sprintf("checkpoint %d: LSH mismatch (double-check disabled)", c)
		return false, nil
	}
	// Double-check: request the raw output weights once more and compare
	// distances directly (Sec. V-C).
	output, err := opener.OpenCheckpoint(c + 1)
	if err != nil {
		out.FailReason = fmt.Sprintf("double-check %d not opened: %v", c+1, err)
		return false, nil
	}
	if result.HasRoot {
		// The committed digest is already proof-authenticated above; the
		// opened weights must reproduce it exactly.
		d, err := v.LSH.Hash(output)
		if err != nil {
			return false, fmt.Errorf("rpol verify double-check lsh: %w", err)
		}
		if !slices.Equal(d, committed) {
			out.FailReason = fmt.Sprintf("double-check %d opening rejected: %v", c+1, commitment.ErrMismatch)
			return false, nil
		}
	} else if *encBuf, err = verifyOpening(result, v.LSH, c+1, output, *encBuf); err != nil {
		out.FailReason = fmt.Sprintf("double-check %d opening rejected: %v", c+1, err)
		return false, nil
	}
	out.CommBytes += int64(tensor.EncodedSize(len(output)))
	out.DoubleChecks++
	v.observer().Counter("rpol_double_checks_total").Inc()
	dist, err := tensor.Distance(reexec, output)
	if err != nil {
		return false, fmt.Errorf("rpol verify distance: %w", err)
	}
	if dist >= v.Beta {
		out.FailReason = fmt.Sprintf("checkpoint %d: double-check distance %.6g ≥ β %.6g", c, dist, v.Beta)
		return false, nil
	}
	return true, nil
}

// NewManagerDevice builds the manager's verification device on the given
// profile.
func NewManagerDevice(profile gpu.Profile, runSeed int64) (*gpu.Device, error) {
	return gpu.NewDevice(profile, runSeed)
}
