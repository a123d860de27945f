// Package rpol implements the RPoL protocol: robust and efficient proof of
// learning for secure pooled mining (Sec. IV–V of the paper).
//
// The protocol has three pieces, all implemented here:
//
//   - Deterministic local training with checkpointing. Workers train with
//     the mini-batch stochastic-yet-deterministic gradient descent schedule
//     (batches chosen by a manager-issued PRF nonce) and snapshot raw model
//     weights every CheckpointEvery steps.
//   - Commitment-based secure sampling. Workers publish a binding
//     commitment over all checkpoints before the manager reveals which
//     checkpoints it will verify; the manager re-executes the sampled
//     intervals and compares outcomes.
//   - LSH-based fuzzy verification (RPoLv2). Instead of shipping raw output
//     weights for every sample, workers commit LSH digests; the manager
//     matches its re-executed weights against the committed digest and only
//     falls back to raw weights (the double-check) on an LSH miss.
//
// The manager-side adaptive calibration (α, β, and the LSH parameters) and
// the model aggregation rule (Eq. 1) live here too.
package rpol

import (
	"errors"

	"rpol/internal/commitment"
	"rpol/internal/gpu"
	"rpol/internal/lsh"
	"rpol/internal/obs"
	"rpol/internal/prf"
	"rpol/internal/tensor"
)

// Scheme selects the verification variant under evaluation (Sec. VII-E).
type Scheme int

const (
	// SchemeBaseline is the insecure baseline: no verification at all.
	SchemeBaseline Scheme = iota + 1
	// SchemeV1 is RPoLv1: sampling-based re-execution with raw-weight
	// commitments and Euclidean-distance comparison.
	SchemeV1
	// SchemeV2 is RPoLv2: sampling-based re-execution with LSH-digest
	// commitments, fuzzy matching, and the double-check fallback.
	SchemeV2
)

// String names the scheme as in the paper's tables.
func (s Scheme) String() string {
	switch s {
	case SchemeBaseline:
		return "baseline"
	case SchemeV1:
		return "RPoLv1"
	case SchemeV2:
		return "RPoLv2"
	default:
		return "unknown"
	}
}

// Hyper bundles the training hyper-parameters the manager distributes with
// each epoch (the paper's ζ).
type Hyper struct {
	Optimizer string  // "sgd" | "sgdm" | "rmsprop" | "adam"
	LR        float64 // learning rate
	BatchSize int
}

// TaskParams is everything a worker needs to run one epoch of its sub-task
// (step ② of Fig. 2).
type TaskParams struct {
	Epoch  int
	Global tensor.Vector // latest global model weights θ^t
	Hyper  Hyper
	Nonce  prf.Nonce // per-(worker, epoch) batch-schedule nonce
	Steps  int       // training steps this epoch
	// CheckpointEvery is the paper's checkpoint interval i (default 5,
	// Sec. VII-A).
	CheckpointEvery int
	// LSH carries the calibrated family for RPoLv2 commitments; nil under
	// RPoLv1 or the baseline. It is the worker's for the duration of
	// RunEpoch only: a family decoded by a wire.WorkerServer is valid until
	// that server decodes its next task, whose decode refills it.
	LSH *lsh.Family
	// Trace is the observability span covering this worker's epoch — a
	// process-local handle, never transmitted (the wire encoding drops it).
	// Workers nest their training and commitment spans under it; the
	// verifier nests the submission's verification under it too, giving the
	// manager → worker → verify span hierarchy.
	Trace *obs.Span
}

// Validate checks the parameters a worker must refuse to train under.
func (p TaskParams) Validate() error {
	switch {
	case len(p.Global) == 0:
		return errors.New("rpol: empty global model")
	case p.Hyper.BatchSize < 1:
		return errors.New("rpol: batch size must be positive")
	case p.Hyper.LR <= 0:
		return errors.New("rpol: learning rate must be positive")
	case p.Steps < 1:
		return errors.New("rpol: need at least one training step")
	case p.CheckpointEvery < 1:
		return errors.New("rpol: checkpoint interval must be positive")
	}
	return nil
}

// NumCheckpoints returns the number of snapshots an epoch produces,
// including the initial weights: checkpoints at steps 0, i, 2i, …, Steps.
func (p TaskParams) NumCheckpoints() int {
	n := p.Steps/p.CheckpointEvery + 1
	if p.Steps%p.CheckpointEvery != 0 {
		n++
	}
	return n
}

// Trace is a worker's private record of one epoch: every checkpoint snapshot
// it may later be asked to open. Honest workers populate it by training;
// adversaries forge parts of it.
type Trace struct {
	Checkpoints []tensor.Vector // snapshots at steps 0, i, 2i, …, Steps
	Steps       []int           // training step of each snapshot
}

// EpochResult is what a worker submits to the manager at the end of a local
// epoch (step ③ of Fig. 2): the model update, the binding commitment over
// its checkpoints, and bookkeeping for the cost model.
type EpochResult struct {
	WorkerID string
	Epoch    int
	// Update is the local model delta L_t^w = θ_final − θ^t.
	Update tensor.Vector
	// DataSize is |D_w|, the worker's shard size, for Eq. (1) weighting.
	DataSize int
	// NumCheckpoints is the committed snapshot count (including the initial
	// weights).
	NumCheckpoints int
	// MerkleRoot is the commitment: the root of the Merkle tree whose leaves
	// are the checkpoint payloads (raw-weight encodings under v1, LSH digest
	// encodings under v2). Every leaf the verifier uses is authenticated
	// against it by an inclusion proof pulled on demand.
	MerkleRoot commitment.Hash
}

// LeafProof is a worker's answer to an on-demand proof pull: the inclusion
// proof of the sampled leaf plus, under RPoLv2, the committed digest encoding
// the proof authenticates (nil under v1, where the leaf is the raw weight
// encoding the verifier recomputes itself).
type LeafProof struct {
	Proof  commitment.MerkleProof
	Digest []byte
}

// Size returns the proof pull's wire size in bytes.
func (lp LeafProof) Size() int { return lp.Proof.Size() + len(lp.Digest) }

// ProofOpener serves checkpoint-opening requests during verification. The
// honest implementation returns the stored trace snapshots; adversaries may
// return forgeries — the commitment check catches any snapshot that differs
// from what was committed. A verifier asks for each leaf at most once per
// submission and never opens the first or last checkpoint.
type ProofOpener interface {
	// OpenCheckpoint returns the raw model weights of checkpoint idx.
	OpenCheckpoint(idx int) (tensor.Vector, error)
	// OpenProof returns the Merkle inclusion proof for leaf idx (plus the
	// committed digest under v2).
	OpenProof(idx int) (LeafProof, error)
}

// Worker is one pool participant from the manager's perspective.
type Worker interface {
	ProofOpener
	// ID returns the worker's stable identifier.
	ID() string
	// GPUProfile returns the hardware the worker registered with; the
	// manager's calibration uses the pool's top-2 profiles (Sec. V-C).
	GPUProfile() gpu.Profile
	// RunEpoch executes the worker's sub-task for one epoch.
	RunEpoch(p TaskParams) (*EpochResult, error)
}

// Calibration is the output of the manager's adaptive LSH calibration for
// one epoch (Sec. V-C).
type Calibration struct {
	Alpha     float64    // tolerated reproduction-error bound (mean + std)
	Beta      float64    // spoof-distance threshold (x·α + y)
	Params    lsh.Params // optimized {r, k, l}
	WorstFNR  float64    // 1 − Pr_lsh(α) under Params
	WorstFPR  float64    // Pr_lsh(β) under Params
	MaxError  float64    // largest measured reproduction error
	NumProbes int        // checkpoints measured
}

// ErrWorkerUnavailable marks a worker that could not be reached: every
// attempt of an exchange was lost, or the peer crashed for the epoch.
// Transports wrap their terminal delivery failures in it, and a worker whose
// task or any opening fails with it is absent (OutcomeAbsent), not
// adversarial — an unreachable honest worker must never count toward
// FalseRejections.
var ErrWorkerUnavailable = errors.New("rpol: worker unavailable")

// Outcome classifies how a worker's epoch concluded from the manager's view.
type Outcome int

const (
	// OutcomeAccepted means the submission arrived and passed verification.
	OutcomeAccepted Outcome = iota + 1
	// OutcomeRejected means the submission arrived and failed verification.
	OutcomeRejected
	// OutcomeAbsent means the worker could not be reached (crash,
	// partition, or persistent loss), before its submission arrived or
	// while answering its challenge. Absent workers are neither accepted nor
	// counted as detected adversaries.
	OutcomeAbsent
)

// String names the outcome for spans and reports.
func (o Outcome) String() string {
	switch o {
	case OutcomeAccepted:
		return "accepted"
	case OutcomeRejected:
		return "rejected"
	case OutcomeAbsent:
		return "absent"
	default:
		return "unknown"
	}
}

// VerifyOutcome describes the verification of one worker's submission.
type VerifyOutcome struct {
	WorkerID string
	Epoch    int
	Accepted bool
	// Outcome is the three-way classification; Accepted is retained for
	// compatibility and always equals (Outcome == OutcomeAccepted).
	Outcome Outcome
	// SampledCheckpoints are the interval start indices the manager chose.
	SampledCheckpoints []int
	// LSHMisses counts sampled intervals whose re-executed output failed
	// the LSH match (v2 only).
	LSHMisses int
	// DoubleChecks counts LSH misses resolved by requesting raw weights.
	DoubleChecks int
	// FailReason is nil when accepted. A rejection wraps the reason
	// sentinel naming the rule broken (ErrLeafCount … ErrDistance, or
	// commitment.ErrMismatch); an absence wraps ErrWorkerUnavailable. Match
	// it with errors.Is; its text is what the journal and events record.
	FailReason error
	// Comm tallies verification-only traffic in bytes, for Table III: the
	// commitment material (CommitBytes) plus every validated opening the
	// verifier pulled, each leaf once, counted at its first use by the
	// intervals up to the failing one.
	CommBytes int64
	// CommitBytes is the commitment share of CommBytes: the 32-byte root plus
	// the pulled proofs (and their riding digests).
	CommitBytes int64
	// ReexecSteps counts training steps the manager re-executed, for the
	// computation-overhead accounting.
	ReexecSteps int
}

// reasonText is a FailReason's text, empty when there is none.
func reasonText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
