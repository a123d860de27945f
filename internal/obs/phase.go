package obs

import "sort"

// RPoL pipeline phase names. These key the per-epoch PhaseBreakdown.
const (
	// PhaseTaskPublish is the manager's epoch fan-out: the global model and
	// hyper-parameters shipped to every worker.
	PhaseTaskPublish = "task_publish"
	// PhaseTraining is the workers' local checkpointed training. The
	// manager counts the submissions it collected and no steps: it sees
	// what a worker claims, never the training behind it.
	PhaseTraining = "training"
	// PhaseCommitment is the submission fan-in: updates, commitments, and
	// LSH digests uploaded to the manager.
	PhaseCommitment = "commitment"
	// PhaseChallenge is the post-commitment checkpoint sampling.
	PhaseChallenge = "challenge"
	// PhaseReproduction is the manager's re-execution of sampled intervals,
	// including the checkpoint openings it pulls.
	PhaseReproduction = "reproduction"
	// PhaseLSH is the LSH sketch-and-compare work (digests committed,
	// matches attempted, misses, double-checks).
	PhaseLSH = "lsh"
	// PhaseVerdict is the accept/reject decisions.
	PhaseVerdict = "verdict"
	// PhaseCalibration is the manager's pre-epoch probe runs and threshold
	// fitting.
	PhaseCalibration = "calibration"
	// PhaseAggregation is the global-model update from accepted submissions.
	PhaseAggregation = "aggregation"
	// PhaseSettlement is the reward credit for accepted submissions.
	PhaseSettlement = "settlement"
)

// PhaseTotals accumulates one phase's cost: how often it ran, the bytes it
// moved, and the training steps it executed.
type PhaseTotals struct {
	Count int64 `json:"count"`
	Bytes int64 `json:"bytes,omitempty"`
	Steps int64 `json:"steps,omitempty"`
}

// PhaseBreakdown maps phase name → totals for one epoch (or an accumulation
// of epochs).
type PhaseBreakdown map[string]PhaseTotals

// Add accumulates d into the named phase.
func (b PhaseBreakdown) Add(phase string, d PhaseTotals) {
	if b == nil {
		return
	}
	t := b[phase]
	t.Count += d.Count
	t.Bytes += d.Bytes
	t.Steps += d.Steps
	b[phase] = t
}

// Merge accumulates every phase of other into b.
func (b PhaseBreakdown) Merge(other PhaseBreakdown) {
	for phase, t := range other {
		b.Add(phase, t)
	}
}

// Clone returns an independent copy.
func (b PhaseBreakdown) Clone() PhaseBreakdown {
	out := make(PhaseBreakdown, len(b))
	for phase, t := range b {
		out[phase] = t
	}
	return out
}

// phaseOrder lists the pipeline phases in protocol order for rendering.
var phaseOrder = []string{
	PhaseCalibration, PhaseTaskPublish, PhaseTraining,
	PhaseCommitment, PhaseChallenge, PhaseReproduction, PhaseLSH,
	PhaseVerdict, PhaseAggregation, PhaseSettlement,
}

// SortedPhases returns b's phase names: known pipeline phases first in
// protocol order, then any others alphabetically.
func (b PhaseBreakdown) SortedPhases() []string {
	out := make([]string, 0, len(b))
	seen := make(map[string]bool, len(b))
	for _, phase := range phaseOrder {
		if _, ok := b[phase]; ok {
			out = append(out, phase)
			seen[phase] = true
		}
	}
	rest := make([]string, 0, len(b))
	for phase := range b {
		if !seen[phase] {
			rest = append(rest, phase)
		}
	}
	sort.Strings(rest)
	return append(out, rest...)
}
