// Package adversary implements the dishonest pool workers the paper
// evaluates RPoL against (Sec. VII-D/E):
//
//   - Adv1 resubmits the previous global model without training (a replay /
//     free-riding attack).
//   - Adv2 trains only a fraction of its steps honestly and extrapolates the
//     remaining checkpoints with the momentum-based spoofing strategy of
//     Eq. (12) — the strongest attack the paper considers, since spoofed
//     weights ride the true optimization trajectory.
//   - Fabricator commits arbitrary random weights (a naive cheater used as
//     a floor in experiments).
//
// Two further attackers probe gaps the paper leaves implicit; both train
// genuinely and are caught only by the verifier's binding checks:
//
//   - WrongInit trains honestly from a substituted initialization (caught
//     by the trace-origin binding), and
//   - UpdateScaler trains and commits honestly but submits a scaled update
//     (caught by the update-to-trace binding), and
//   - Truncator trains only the first intervals, honestly, and commits that
//     short trace as if it were the whole epoch (caught by holding the
//     committed checkpoint count to the task's).
//
// All of them satisfy rpol.Worker, so they drop into the pool next to
// honest workers. Each is internally consistent: it really commits to the
// checkpoints it will open — the attacks target the re-execution and
// binding checks, not the hash commitment itself.
package adversary

import (
	"errors"
	"fmt"
	"math"

	"rpol/internal/dataset"
	"rpol/internal/gpu"
	"rpol/internal/nn"
	"rpol/internal/rpol"
	"rpol/internal/tensor"
)

// Spoof implements Eq. (12): given the honest checkpoint history
// c_1, …, c_i (oldest first), it predicts c_{i+1} as c_i plus the
// exponentially weighted average of past checkpoint deltas with coefficients
// K_j = λ^j:
//
//	c_{i+1} = c_i + Σ_j λ^j (c_{i-j} − c_{i-j-1}) / Σ_j λ^j.
//
// It needs at least two checkpoints.
func Spoof(history []tensor.Vector, lambda float64) (tensor.Vector, error) {
	if len(history) < 2 {
		return nil, errors.New("adversary: spoofing needs at least two checkpoints")
	}
	if lambda < 0 || lambda > 1 {
		return nil, fmt.Errorf("adversary: lambda %v outside [0, 1]", lambda)
	}
	last := history[len(history)-1]
	out := last.Clone()
	var weightSum float64
	momentum := tensor.NewVector(len(last))
	for j := 0; j+1 < len(history); j++ {
		newer := history[len(history)-1-j]
		older := history[len(history)-2-j]
		k := math.Pow(lambda, float64(j))
		if k == 0 {
			break
		}
		if len(newer) != len(last) || len(older) != len(last) {
			return nil, fmt.Errorf("adversary spoof: checkpoints %d and %d vs %d: %w",
				len(newer), len(older), len(last), tensor.ErrShapeMismatch)
		}
		// Sub then AXPY in one pass: the same two roundings per element,
		// without a model-sized delta vector per history term.
		for i := range momentum {
			momentum[i] += float64(k * (newer[i] - older[i]))
		}
		weightSum += k
	}
	if weightSum == 0 {
		return out, nil
	}
	if err := out.AXPY(1/weightSum, momentum); err != nil {
		return nil, fmt.Errorf("adversary spoof: %w", err)
	}
	return out, nil
}

// Adv1 is the replay attacker: it performs no training and submits a zero
// update, committing a trace in which every checkpoint equals the initial
// global weights.
type Adv1 struct {
	id      string
	profile gpu.Profile
	// claimedDataSize is the |D_w| the attacker reports for Eq. (1)
	// weighting — it claims its assigned shard even though it trained on
	// nothing.
	claimedDataSize int

	lastTrace  *rpol.Trace
	lastCommit *rpol.EpochCommitment
}

var _ rpol.Worker = (*Adv1)(nil)

// NewAdv1 builds a replay attacker that claims the given data size.
func NewAdv1(id string, profile gpu.Profile, claimedDataSize int) *Adv1 {
	if claimedDataSize < 1 {
		claimedDataSize = 1
	}
	return &Adv1{id: id, profile: profile, claimedDataSize: claimedDataSize}
}

// ID returns the attacker's identifier.
func (a *Adv1) ID() string { return a.id }

// GPUProfile returns the registered hardware profile.
func (a *Adv1) GPUProfile() gpu.Profile { return a.profile }

// RunEpoch fabricates a no-op submission at zero computational cost.
func (a *Adv1) RunEpoch(p rpol.TaskParams) (*rpol.EpochResult, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := p.NumCheckpoints()
	trace := &rpol.Trace{}
	for i := 0; i < n; i++ {
		trace.Checkpoints = append(trace.Checkpoints, p.Global.Clone())
		trace.Steps = append(trace.Steps, minInt(i*p.CheckpointEvery, p.Steps))
	}
	result := &rpol.EpochResult{
		WorkerID:       a.id,
		Epoch:          p.Epoch,
		Update:         tensor.NewVector(len(p.Global)), // zero update
		DataSize:       a.claimedDataSize,
		NumCheckpoints: n,
	}
	ec, err := stampCommitment(a.id, p, trace, result)
	if err != nil {
		return nil, err
	}
	a.lastTrace = trace
	a.lastCommit = ec
	return result, nil
}

// OpenCheckpoint serves the committed (replayed) snapshots.
func (a *Adv1) OpenCheckpoint(idx int) (tensor.Vector, error) {
	return openFrom(a.lastTrace, a.id, idx)
}

// OpenProof serves Merkle proof pulls over the replayed commitment.
func (a *Adv1) OpenProof(idx int) (rpol.LeafProof, error) {
	return openProofFrom(a.lastCommit, a.id, idx)
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func openFrom(trace *rpol.Trace, id string, idx int) (tensor.Vector, error) {
	if trace == nil {
		return nil, fmt.Errorf("adversary %s: no epoch run yet", id)
	}
	if idx < 0 || idx >= len(trace.Checkpoints) {
		return nil, fmt.Errorf("adversary %s: checkpoint %d of %d", id, idx, len(trace.Checkpoints))
	}
	return trace.Checkpoints[idx], nil
}

// stampCommitment builds the Merkle commitment over the (possibly forged)
// trace, stamps its root onto the submission, and returns it for proof
// serving. Adversaries forge checkpoints, not the commitment construction
// itself: they always commit to exactly what they will open.
func stampCommitment(id string, p rpol.TaskParams, trace *rpol.Trace, r *rpol.EpochResult) (*rpol.EpochCommitment, error) {
	ec, err := rpol.CommitTrace(nil, trace.Checkpoints, p.LSH)
	if err != nil {
		return nil, fmt.Errorf("adversary %s: %w", id, err)
	}
	ec.Apply(r)
	return ec, nil
}

// openProofFrom serves a Merkle proof pull from the attacker's retained
// commitment.
func openProofFrom(ec *rpol.EpochCommitment, id string, idx int) (rpol.LeafProof, error) {
	if ec == nil {
		return rpol.LeafProof{}, fmt.Errorf("adversary %s: no epoch run yet", id)
	}
	return ec.OpenProof(idx)
}

// Adv2 trains the first HonestIntervals checkpoint intervals honestly
// (with real gradients and hardware noise) and spoofs the rest with Eq. (12).
type Adv2 struct {
	id      string
	profile gpu.Profile
	trainer *rpol.Trainer
	// HonestFraction is the fraction of checkpoint intervals trained
	// honestly (the paper's Adv2 trains 10% of the steps; Fig. 5's attacker
	// trains the first third of the checkpoints).
	HonestFraction float64
	// Lambda is the exponential-descent coefficient of Eq. (12).
	Lambda float64

	lastTrace  *rpol.Trace
	lastCommit *rpol.EpochCommitment
	dataSize   int
}

var _ rpol.Worker = (*Adv2)(nil)

// NewAdv2 builds the spoofing attacker.
func NewAdv2(id string, profile gpu.Profile, runSeed int64, net *nn.Network, shard *dataset.Dataset, honestFraction, lambda float64) (*Adv2, error) {
	if shard == nil || shard.Len() == 0 {
		return nil, fmt.Errorf("adversary %s: empty shard", id)
	}
	if honestFraction < 0 || honestFraction > 1 {
		return nil, fmt.Errorf("adversary %s: honest fraction %v", id, honestFraction)
	}
	device, err := gpu.NewDevice(profile, runSeed)
	if err != nil {
		return nil, fmt.Errorf("adversary %s: %w", id, err)
	}
	return &Adv2{
		id:             id,
		profile:        profile,
		trainer:        &rpol.Trainer{Net: net, Shard: shard, Device: device},
		HonestFraction: honestFraction,
		Lambda:         lambda,
		dataSize:       shard.Len(),
	}, nil
}

// ID returns the attacker's identifier.
func (a *Adv2) ID() string { return a.id }

// GPUProfile returns the registered hardware profile.
func (a *Adv2) GPUProfile() gpu.Profile { return a.profile }

// HonestSteps returns the number of training steps Adv2 actually executes
// under params p (for cost accounting).
func (a *Adv2) HonestSteps(p rpol.TaskParams) int {
	intervals := p.NumCheckpoints() - 1
	honest := int(math.Ceil(a.HonestFraction * float64(intervals)))
	if honest < 1 {
		honest = 1 // Eq. (12) needs at least one real delta
	}
	if honest > intervals {
		honest = intervals
	}
	steps := honest * p.CheckpointEvery
	if steps > p.Steps {
		steps = p.Steps
	}
	return steps
}

// RunEpoch trains the honest prefix and spoofs the remaining checkpoints.
func (a *Adv2) RunEpoch(p rpol.TaskParams) (*rpol.EpochResult, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	intervals := p.NumCheckpoints() - 1
	honest := int(math.Ceil(a.HonestFraction * float64(intervals)))
	if honest < 1 {
		honest = 1
	}
	if honest > intervals {
		honest = intervals
	}

	trace := &rpol.Trace{
		Checkpoints: []tensor.Vector{p.Global.Clone()},
		Steps:       []int{0},
	}
	step := 0
	// Honest prefix.
	for i := 0; i < honest; i++ {
		interval := p.CheckpointEvery
		if step+interval > p.Steps {
			interval = p.Steps - step
		}
		if interval <= 0 {
			break
		}
		next, err := a.trainer.ExecuteInterval(trace.Final(), step, interval, p.Hyper, p.Nonce)
		if err != nil {
			return nil, fmt.Errorf("adversary %s: %w", a.id, err)
		}
		step += interval
		trace.Checkpoints = append(trace.Checkpoints, next)
		trace.Steps = append(trace.Steps, step)
	}
	// Spoofed suffix.
	for len(trace.Checkpoints) < p.NumCheckpoints() {
		spoofed, err := Spoof(trace.Checkpoints, a.Lambda)
		if err != nil {
			return nil, fmt.Errorf("adversary %s: %w", a.id, err)
		}
		interval := p.CheckpointEvery
		if step+interval > p.Steps {
			interval = p.Steps - step
		}
		step += interval
		trace.Checkpoints = append(trace.Checkpoints, spoofed)
		trace.Steps = append(trace.Steps, step)
	}

	update, err := rpol.BindFinalCheckpoint(trace, p.Global)
	if err != nil {
		return nil, fmt.Errorf("adversary %s: %w", a.id, err)
	}
	result := &rpol.EpochResult{
		WorkerID:       a.id,
		Epoch:          p.Epoch,
		Update:         update,
		DataSize:       a.dataSize,
		NumCheckpoints: len(trace.Checkpoints),
	}
	ec, err := stampCommitment(a.id, p, trace, result)
	if err != nil {
		return nil, err
	}
	a.lastTrace = trace
	a.lastCommit = ec
	return result, nil
}

// OpenCheckpoint serves the committed (partially spoofed) snapshots.
func (a *Adv2) OpenCheckpoint(idx int) (tensor.Vector, error) {
	return openFrom(a.lastTrace, a.id, idx)
}

// OpenProof serves Merkle proof pulls over the partially spoofed commitment.
func (a *Adv2) OpenProof(idx int) (rpol.LeafProof, error) {
	return openProofFrom(a.lastCommit, a.id, idx)
}

// LastTrace exposes the attacker's trace for spoof-distance measurements
// (Fig. 5).
func (a *Adv2) LastTrace() *rpol.Trace { return a.lastTrace }

// WrongInit trains its shard fully honestly — but starting from weights of
// its own choosing instead of the distributed global model (modelling a
// worker that substitutes a stale or poisoned initialization). Every
// sampled interval re-executes consistently, so only the verifier's
// trace-origin binding catches it.
type WrongInit struct {
	id      string
	profile gpu.Profile
	trainer *rpol.Trainer
	// InitShift is added to the global model before training.
	InitShift tensor.Vector

	lastTrace  *rpol.Trace
	lastCommit *rpol.EpochCommitment
	dataSize   int
}

var _ rpol.Worker = (*WrongInit)(nil)

// NewWrongInit builds the wrong-initialization attacker. shift is added
// element-wise to the distributed weights.
func NewWrongInit(id string, profile gpu.Profile, runSeed int64, net *nn.Network, shard *dataset.Dataset, shift tensor.Vector) (*WrongInit, error) {
	if shard == nil || shard.Len() == 0 {
		return nil, fmt.Errorf("adversary %s: empty shard", id)
	}
	device, err := gpu.NewDevice(profile, runSeed)
	if err != nil {
		return nil, fmt.Errorf("adversary %s: %w", id, err)
	}
	return &WrongInit{
		id:        id,
		profile:   profile,
		trainer:   &rpol.Trainer{Net: net, Shard: shard, Device: device},
		InitShift: shift,
		dataSize:  shard.Len(),
	}, nil
}

// ID returns the attacker's identifier.
func (a *WrongInit) ID() string { return a.id }

// GPUProfile returns the registered hardware profile.
func (a *WrongInit) GPUProfile() gpu.Profile { return a.profile }

// RunEpoch trains honestly from the shifted initialization.
func (a *WrongInit) RunEpoch(p rpol.TaskParams) (*rpol.EpochResult, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	shifted := p.Global.Clone()
	if err := shifted.AXPY(1, a.InitShift); err != nil {
		return nil, fmt.Errorf("adversary %s: %w", a.id, err)
	}
	substituted := p
	substituted.Global = shifted
	trace, err := a.trainer.RunEpoch(substituted)
	if err != nil {
		return nil, fmt.Errorf("adversary %s: %w", a.id, err)
	}
	// The update is reported relative to the REAL global model so the
	// submission looks plausible to aggregation.
	update, err := trace.Final().Sub(p.Global)
	if err != nil {
		return nil, fmt.Errorf("adversary %s: %w", a.id, err)
	}
	result := &rpol.EpochResult{
		WorkerID:       a.id,
		Epoch:          p.Epoch,
		Update:         update,
		DataSize:       a.dataSize,
		NumCheckpoints: len(trace.Checkpoints),
	}
	ec, err := stampCommitment(a.id, p, trace, result)
	if err != nil {
		return nil, err
	}
	a.lastTrace = trace
	a.lastCommit = ec
	return result, nil
}

// OpenCheckpoint serves the (honestly trained, wrongly rooted) snapshots.
func (a *WrongInit) OpenCheckpoint(idx int) (tensor.Vector, error) {
	return openFrom(a.lastTrace, a.id, idx)
}

// OpenProof serves Merkle proof pulls over the wrongly rooted commitment.
func (a *WrongInit) OpenProof(idx int) (rpol.LeafProof, error) {
	return openProofFrom(a.lastCommit, a.id, idx)
}

// UpdateScaler trains and commits fully honestly but submits its model
// update scaled by Factor — the classic model-boosting/poisoning move from
// the federated-learning literature, which lets a single worker dominate
// the aggregate. Every checkpoint proof is genuine; only the verifier's
// update-to-trace binding (θ_t + L must be the committed final checkpoint)
// catches the substitution.
type UpdateScaler struct {
	id      string
	profile gpu.Profile
	trainer *rpol.Trainer
	// Factor multiplies the honest update before submission.
	Factor float64

	lastTrace  *rpol.Trace
	lastCommit *rpol.EpochCommitment
	dataSize   int
}

var _ rpol.Worker = (*UpdateScaler)(nil)

// NewUpdateScaler builds the update-scaling attacker.
func NewUpdateScaler(id string, profile gpu.Profile, runSeed int64, net *nn.Network, shard *dataset.Dataset, factor float64) (*UpdateScaler, error) {
	if shard == nil || shard.Len() == 0 {
		return nil, fmt.Errorf("adversary %s: empty shard", id)
	}
	device, err := gpu.NewDevice(profile, runSeed)
	if err != nil {
		return nil, fmt.Errorf("adversary %s: %w", id, err)
	}
	return &UpdateScaler{
		id:       id,
		profile:  profile,
		trainer:  &rpol.Trainer{Net: net, Shard: shard, Device: device},
		Factor:   factor,
		dataSize: shard.Len(),
	}, nil
}

// ID returns the attacker's identifier.
func (a *UpdateScaler) ID() string { return a.id }

// GPUProfile returns the registered hardware profile.
func (a *UpdateScaler) GPUProfile() gpu.Profile { return a.profile }

// RunEpoch trains honestly, commits honestly, and submits a scaled update.
func (a *UpdateScaler) RunEpoch(p rpol.TaskParams) (*rpol.EpochResult, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	trace, err := a.trainer.RunEpoch(p)
	if err != nil {
		return nil, fmt.Errorf("adversary %s: %w", a.id, err)
	}
	update, err := rpol.BindFinalCheckpoint(trace, p.Global)
	if err != nil {
		return nil, fmt.Errorf("adversary %s: %w", a.id, err)
	}
	update.Scale(a.Factor) // the poisoned submission
	result := &rpol.EpochResult{
		WorkerID:       a.id,
		Epoch:          p.Epoch,
		Update:         update,
		DataSize:       a.dataSize,
		NumCheckpoints: len(trace.Checkpoints),
	}
	ec, err := stampCommitment(a.id, p, trace, result)
	if err != nil {
		return nil, err
	}
	a.lastTrace = trace
	a.lastCommit = ec
	return result, nil
}

// OpenCheckpoint serves the genuinely trained snapshots.
func (a *UpdateScaler) OpenCheckpoint(idx int) (tensor.Vector, error) {
	return openFrom(a.lastTrace, a.id, idx)
}

// OpenProof serves Merkle proof pulls over the honestly built commitment.
func (a *UpdateScaler) OpenProof(idx int) (rpol.LeafProof, error) {
	return openProofFrom(a.lastCommit, a.id, idx)
}

// Rebaser runs in the manager's process and writes the task it is handed:
// it scales the task's Global in place by Factor, then trains, commits and
// opens fully honestly from the rewritten weights. Every interval
// re-executes and the update reaches the committed end, so only a verifier
// that binds the trace's first leaf against the manager's own θ_t — not the
// task vector it gave the worker — rejects it, and only a manager that keeps
// θ_t out of every worker's reach aggregates the right model.
type Rebaser struct {
	*rpol.HonestWorker
	// Factor multiplies the task's global model in place.
	Factor float64
}

var _ rpol.Worker = (*Rebaser)(nil)

// NewRebaser builds the task-rewriting attacker.
func NewRebaser(id string, profile gpu.Profile, runSeed int64, net *nn.Network, shard *dataset.Dataset, factor float64) (*Rebaser, error) {
	hw, err := rpol.NewHonestWorker(id, profile, runSeed, net, shard)
	if err != nil {
		return nil, fmt.Errorf("adversary %s: %w", id, err)
	}
	return &Rebaser{HonestWorker: hw, Factor: factor}, nil
}

// RunEpoch rewrites the task's global model, then runs the honest epoch
// from it.
func (a *Rebaser) RunEpoch(p rpol.TaskParams) (*rpol.EpochResult, error) {
	p.Global.Scale(a.Factor)
	return a.HonestWorker.RunEpoch(p)
}

// Truncator is the lazy worker: it trains the first Intervals checkpoint
// intervals of its task fully honestly, then commits and submits that short
// trace — Intervals+1 leaves, its real final checkpoint, the matching update
// — as the whole epoch. Every interval it committed re-executes, the trace
// starts at the global model and the update reaches its end, so only the
// verifier's check of the leaf count against the task's stands between it and
// a full reward for a fraction of the work. With Intervals beyond the task's
// it over-claims instead: the honest trace padded with repeats of its final
// checkpoint.
type Truncator struct {
	id      string
	profile gpu.Profile
	trainer *rpol.Trainer
	// Intervals is the number of checkpoint intervals the committed trace
	// claims (at least 1).
	Intervals int

	lastTrace  *rpol.Trace
	lastCommit *rpol.EpochCommitment
	dataSize   int
}

var _ rpol.Worker = (*Truncator)(nil)

// NewTruncator builds the trace-truncating attacker.
func NewTruncator(id string, profile gpu.Profile, runSeed int64, net *nn.Network, shard *dataset.Dataset, intervals int) (*Truncator, error) {
	if shard == nil || shard.Len() == 0 {
		return nil, fmt.Errorf("adversary %s: empty shard", id)
	}
	if intervals < 1 {
		return nil, fmt.Errorf("adversary %s: %d intervals", id, intervals)
	}
	device, err := gpu.NewDevice(profile, runSeed)
	if err != nil {
		return nil, fmt.Errorf("adversary %s: %w", id, err)
	}
	return &Truncator{
		id:        id,
		profile:   profile,
		trainer:   &rpol.Trainer{Net: net, Shard: shard, Device: device},
		Intervals: intervals,
		dataSize:  shard.Len(),
	}, nil
}

// ID returns the attacker's identifier.
func (a *Truncator) ID() string { return a.id }

// GPUProfile returns the registered hardware profile.
func (a *Truncator) GPUProfile() gpu.Profile { return a.profile }

// RunEpoch trains the claimed prefix honestly and submits it as the epoch.
func (a *Truncator) RunEpoch(p rpol.TaskParams) (*rpol.EpochResult, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	trace := &rpol.Trace{
		Checkpoints: []tensor.Vector{p.Global.Clone()},
		Steps:       []int{0},
	}
	for step := 0; len(trace.Checkpoints) <= a.Intervals; {
		interval := minInt(p.CheckpointEvery, p.Steps-step)
		next := trace.Final()
		if interval > 0 {
			var err error
			if next, err = a.trainer.ExecuteInterval(next, step, interval, p.Hyper, p.Nonce); err != nil {
				return nil, fmt.Errorf("adversary %s: %w", a.id, err)
			}
			step += interval
		}
		trace.Checkpoints = append(trace.Checkpoints, next)
		trace.Steps = append(trace.Steps, step)
	}
	update, err := rpol.BindFinalCheckpoint(trace, p.Global)
	if err != nil {
		return nil, fmt.Errorf("adversary %s: %w", a.id, err)
	}
	result := &rpol.EpochResult{
		WorkerID:       a.id,
		Epoch:          p.Epoch,
		Update:         update,
		DataSize:       a.dataSize,
		NumCheckpoints: len(trace.Checkpoints),
	}
	ec, err := stampCommitment(a.id, p, trace, result)
	if err != nil {
		return nil, err
	}
	a.lastTrace = trace
	a.lastCommit = ec
	return result, nil
}

// OpenCheckpoint serves the genuinely trained prefix.
func (a *Truncator) OpenCheckpoint(idx int) (tensor.Vector, error) {
	return openFrom(a.lastTrace, a.id, idx)
}

// OpenProof serves Merkle proof pulls over the short commitment.
func (a *Truncator) OpenProof(idx int) (rpol.LeafProof, error) {
	return openProofFrom(a.lastCommit, a.id, idx)
}

// Fabricator commits random weights scaled like plausible models — the
// naive cheater.
type Fabricator struct {
	id              string
	profile         gpu.Profile
	rng             *tensor.RNG
	scale           float64
	claimedDataSize int

	lastTrace  *rpol.Trace
	lastCommit *rpol.EpochCommitment
}

var _ rpol.Worker = (*Fabricator)(nil)

// NewFabricator builds a random-weights cheater. scale controls the forged
// weights' magnitude; claimedDataSize is the |D_w| it reports.
func NewFabricator(id string, profile gpu.Profile, seed int64, scale float64, claimedDataSize int) *Fabricator {
	if claimedDataSize < 1 {
		claimedDataSize = 1
	}
	return &Fabricator{
		id: id, profile: profile, rng: tensor.NewRNG(seed),
		scale: scale, claimedDataSize: claimedDataSize,
	}
}

// ID returns the attacker's identifier.
func (f *Fabricator) ID() string { return f.id }

// GPUProfile returns the registered hardware profile.
func (f *Fabricator) GPUProfile() gpu.Profile { return f.profile }

// RunEpoch fabricates a random trace.
func (f *Fabricator) RunEpoch(p rpol.TaskParams) (*rpol.EpochResult, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := p.NumCheckpoints()
	trace := &rpol.Trace{
		Checkpoints: []tensor.Vector{p.Global.Clone()},
		Steps:       []int{0},
	}
	for i := 1; i < n; i++ {
		fake, err := p.Global.Add(f.rng.NormalVector(len(p.Global), 0, f.scale))
		if err != nil {
			return nil, fmt.Errorf("adversary %s: %w", f.id, err)
		}
		trace.Checkpoints = append(trace.Checkpoints, fake)
		trace.Steps = append(trace.Steps, minInt(i*p.CheckpointEvery, p.Steps))
	}
	update, err := rpol.BindFinalCheckpoint(trace, p.Global)
	if err != nil {
		return nil, fmt.Errorf("adversary %s: %w", f.id, err)
	}
	result := &rpol.EpochResult{
		WorkerID:       f.id,
		Epoch:          p.Epoch,
		Update:         update,
		DataSize:       f.claimedDataSize,
		NumCheckpoints: n,
	}
	ec, err := stampCommitment(f.id, p, trace, result)
	if err != nil {
		return nil, err
	}
	f.lastTrace = trace
	f.lastCommit = ec
	return result, nil
}

// OpenCheckpoint serves the fabricated snapshots.
func (f *Fabricator) OpenCheckpoint(idx int) (tensor.Vector, error) {
	return openFrom(f.lastTrace, f.id, idx)
}

// OpenProof serves Merkle proof pulls over the fabricated commitment.
func (f *Fabricator) OpenProof(idx int) (rpol.LeafProof, error) {
	return openProofFrom(f.lastCommit, f.id, idx)
}
