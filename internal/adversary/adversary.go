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
//
// They keep rpol.HonestWorker's buffer contract. The result's Update, like
// every checkpoint LastTrace and OpenCheckpoint hand out, is the attacker's
// own buffer, valid until its next RunEpoch, which refills it. p.Global may
// be one of those vectors: it is only read, and never refilled by the epoch
// that forges from it.
package adversary

import (
	"errors"
	"fmt"
	"math"
	"slices"

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
// It needs at least two checkpoints. c_{i+1} is written into dst's storage
// and the weighted delta sum accumulated in momentum's (each allocated when
// nil or too small); dst is returned. Neither may alias a checkpoint of the
// history.
func Spoof(dst, momentum tensor.Vector, history []tensor.Vector, lambda float64) (tensor.Vector, error) {
	if len(history) < 2 {
		return nil, errors.New("adversary: spoofing needs at least two checkpoints")
	}
	if lambda < 0 || lambda > 1 {
		return nil, fmt.Errorf("adversary: lambda %v outside [0, 1]", lambda)
	}
	last := history[len(history)-1]
	out := tensor.Resize(dst, len(last))
	copy(out, last)
	var weightSum float64
	momentum = tensor.Resize(momentum, len(last))
	momentum.Zero()
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

// attacker is what every forging adversary shares: its identity, its
// registered hardware, the |D_w| it reports for Eq. (1) weighting, and the
// buffers of its last epoch, which it keeps across epochs.
type attacker struct {
	id       string
	profile  gpu.Profile
	dataSize int

	// lastTrace, its commitment (which serves the verifier's openings) and
	// update, the result's Update, are the last epoch's; the next RunEpoch
	// retires them and refills their vectors.
	lastTrace  *rpol.Trace
	lastCommit *rpol.EpochCommitment
	update     tensor.Vector
	// spare holds the checkpoint vectors of dead traces, which the next
	// forged trace refills, and leafBuf is the commitment's leaf-encode
	// scratch.
	spare   tensor.Spares
	leafBuf []byte
}

// retire opens an epoch by ending the last one. The last trace is dead, so its
// checkpoints go back to be refilled — to trainer when the attacker trains
// its trace through trainer.RunEpoch, else to the attacker's spares — except
// one that is p.Global, which stays the caller's, as the update does when it
// is p.Global.
func (a *attacker) retire(p rpol.TaskParams, trainer *rpol.Trainer) {
	if tr := a.lastTrace; tr != nil {
		tr.Checkpoints = slices.DeleteFunc(tr.Checkpoints, func(v tensor.Vector) bool { return tensor.SameStorage(v, p.Global) })
		if trainer != nil {
			trainer.Recycle(tr)
		} else {
			a.spare.Put(tr.Checkpoints...)
			clear(tr.Checkpoints)
			tr.Checkpoints, tr.Steps = nil, nil
		}
	}
	a.lastTrace, a.lastCommit = nil, nil
	if tensor.SameStorage(a.update, p.Global) {
		a.update = nil
	}
}

// ID returns the attacker's identifier.
func (a *attacker) ID() string { return a.id }

// GPUProfile returns the registered hardware profile.
func (a *attacker) GPUProfile() gpu.Profile { return a.profile }

// LastTrace exposes the attacker's committed trace, for spoof-distance
// measurements (Fig. 5) and for recording it to a trace file.
func (a *attacker) LastTrace() *rpol.Trace { return a.lastTrace }

// OpenCheckpoint serves the committed (possibly forged) snapshots.
func (a *attacker) OpenCheckpoint(idx int) (tensor.Vector, error) {
	if a.lastCommit == nil {
		return nil, fmt.Errorf("adversary %s: no epoch run yet", a.id)
	}
	return a.lastCommit.OpenCheckpoint(idx)
}

// OpenProof serves Merkle proof pulls over the committed trace.
func (a *attacker) OpenProof(idx int) (rpol.LeafProof, error) {
	if a.lastCommit == nil {
		return rpol.LeafProof{}, fmt.Errorf("adversary %s: no epoch run yet", a.id)
	}
	return a.lastCommit.OpenProof(idx)
}

// submit commits to trace and returns the epoch's submission of update,
// retaining trace, commitment and update until the next RunEpoch. Adversaries
// forge checkpoints, not the commitment construction itself: they always
// commit to exactly what they will open.
func (a *attacker) submit(p rpol.TaskParams, trace *rpol.Trace, update tensor.Vector) (*rpol.EpochResult, error) {
	result := &rpol.EpochResult{
		WorkerID:       a.id,
		Epoch:          p.Epoch,
		Update:         update,
		DataSize:       a.dataSize,
		NumCheckpoints: len(trace.Checkpoints),
	}
	ec, err := rpol.CommitTrace(&a.leafBuf, trace.Checkpoints, p.LSH)
	if err != nil {
		return nil, fmt.Errorf("adversary %s: %w", a.id, err)
	}
	ec.Apply(result)
	a.lastTrace, a.lastCommit, a.update = trace, ec, update
	return result, nil
}

// Adv1 is the replay attacker: it performs no training and submits a zero
// update, committing a trace in which every checkpoint equals the initial
// global weights. It claims its assigned shard's |D_w| even though it trained
// on nothing.
type Adv1 struct {
	attacker
}

var _ rpol.Worker = (*Adv1)(nil)

// NewAdv1 builds a replay attacker that claims the given data size.
func NewAdv1(id string, profile gpu.Profile, claimedDataSize int) *Adv1 {
	if claimedDataSize < 1 {
		claimedDataSize = 1
	}
	return &Adv1{attacker{id: id, profile: profile, dataSize: claimedDataSize}}
}

// RunEpoch fabricates a no-op submission at zero computational cost.
func (a *Adv1) RunEpoch(p rpol.TaskParams) (*rpol.EpochResult, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	a.retire(p, nil)
	n := p.NumCheckpoints()
	trace := &rpol.Trace{}
	for i := 0; i < n; i++ {
		trace.Checkpoints = append(trace.Checkpoints, a.spare.Copy(p.Global))
		trace.Steps = append(trace.Steps, min(i*p.CheckpointEvery, p.Steps))
	}
	update := tensor.Resize(a.update, len(p.Global))
	update.Zero()
	return a.submit(p, trace, update)
}

// Adv2 trains the first HonestIntervals checkpoint intervals honestly
// (with real gradients and hardware noise) and spoofs the rest with Eq. (12).
type Adv2 struct {
	attacker
	trainer *rpol.Trainer
	// momentum is Spoof's delta-sum scratch.
	momentum tensor.Vector
	// HonestFraction is the fraction of checkpoint intervals trained
	// honestly (the paper's Adv2 trains 10% of the steps; Fig. 5's attacker
	// trains the first third of the checkpoints).
	HonestFraction float64
	// Lambda is the exponential-descent coefficient of Eq. (12).
	Lambda float64
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
		attacker:       attacker{id: id, profile: profile, dataSize: shard.Len()},
		trainer:        &rpol.Trainer{Net: net, Shard: shard, Device: device},
		HonestFraction: honestFraction,
		Lambda:         lambda,
	}, nil
}

// honestSteps returns the number of training steps Adv2 actually executes
// under params p (for cost accounting).
func (a *Adv2) honestSteps(p rpol.TaskParams) int {
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

	a.retire(p, nil)
	n := len(p.Global)
	trace := &rpol.Trace{
		Checkpoints: []tensor.Vector{a.spare.Copy(p.Global)},
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
		next, err := a.trainer.ExecuteInterval(a.spare.Get(n), trace.Final(), step, interval, p.Hyper, p.Nonce)
		if err != nil {
			return nil, fmt.Errorf("adversary %s: %w", a.id, err)
		}
		step += interval
		trace.Checkpoints = append(trace.Checkpoints, next)
		trace.Steps = append(trace.Steps, step)
	}
	// Spoofed suffix.
	a.momentum = tensor.Resize(a.momentum, n)
	for len(trace.Checkpoints) < p.NumCheckpoints() {
		spoofed, err := Spoof(a.spare.Get(n), a.momentum, trace.Checkpoints, a.Lambda)
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

	update, err := rpol.BindFinalCheckpoint(trace, p.Global, a.update)
	if err != nil {
		return nil, fmt.Errorf("adversary %s: %w", a.id, err)
	}
	return a.submit(p, trace, update)
}

// WrongInit trains its shard fully honestly — but starting from weights of
// its own choosing instead of the distributed global model (modelling a
// worker that substitutes a stale or poisoned initialization). Every
// sampled interval re-executes consistently, so only the verifier's
// trace-origin binding catches it.
type WrongInit struct {
	attacker
	trainer *rpol.Trainer
	// InitShift is added to the global model before training.
	InitShift tensor.Vector
	// shifted holds the substituted initialization, refilled every epoch.
	shifted tensor.Vector
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
		attacker:  attacker{id: id, profile: profile, dataSize: shard.Len()},
		trainer:   &rpol.Trainer{Net: net, Shard: shard, Device: device},
		InitShift: shift,
	}, nil
}

// RunEpoch trains honestly from the shifted initialization.
func (a *WrongInit) RunEpoch(p rpol.TaskParams) (*rpol.EpochResult, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	a.retire(p, a.trainer)
	a.shifted = tensor.Resize(a.shifted, len(p.Global))
	copy(a.shifted, p.Global)
	if err := a.shifted.AXPY(1, a.InitShift); err != nil {
		return nil, fmt.Errorf("adversary %s: %w", a.id, err)
	}
	substituted := p
	substituted.Global = a.shifted
	trace, err := a.trainer.RunEpoch(substituted)
	if err != nil {
		return nil, fmt.Errorf("adversary %s: %w", a.id, err)
	}
	// The update is reported relative to the REAL global model so the
	// submission looks plausible to aggregation.
	update, err := trace.Final().SubInto(a.update, p.Global)
	if err != nil {
		return nil, fmt.Errorf("adversary %s: %w", a.id, err)
	}
	return a.submit(p, trace, update)
}

// UpdateScaler trains and commits fully honestly but submits its model
// update scaled by Factor — the classic model-boosting/poisoning move from
// the federated-learning literature, which lets a single worker dominate
// the aggregate. Every checkpoint proof is genuine; only the verifier's
// update-to-trace binding (θ_t + L must be the committed final checkpoint)
// catches the substitution.
type UpdateScaler struct {
	attacker
	trainer *rpol.Trainer
	// Factor multiplies the honest update before submission.
	Factor float64
}

var _ rpol.Worker = (*UpdateScaler)(nil)

// newUpdateScaler builds the update-scaling attacker.
func newUpdateScaler(id string, profile gpu.Profile, runSeed int64, net *nn.Network, shard *dataset.Dataset, factor float64) (*UpdateScaler, error) {
	if shard == nil || shard.Len() == 0 {
		return nil, fmt.Errorf("adversary %s: empty shard", id)
	}
	device, err := gpu.NewDevice(profile, runSeed)
	if err != nil {
		return nil, fmt.Errorf("adversary %s: %w", id, err)
	}
	return &UpdateScaler{
		attacker: attacker{id: id, profile: profile, dataSize: shard.Len()},
		trainer:  &rpol.Trainer{Net: net, Shard: shard, Device: device},
		Factor:   factor,
	}, nil
}

// RunEpoch trains honestly, commits honestly, and submits a scaled update.
func (a *UpdateScaler) RunEpoch(p rpol.TaskParams) (*rpol.EpochResult, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	a.retire(p, a.trainer)
	trace, err := a.trainer.RunEpoch(p)
	if err != nil {
		return nil, fmt.Errorf("adversary %s: %w", a.id, err)
	}
	update, err := rpol.BindFinalCheckpoint(trace, p.Global, a.update)
	if err != nil {
		return nil, fmt.Errorf("adversary %s: %w", a.id, err)
	}
	update.Scale(a.Factor) // the poisoned submission
	return a.submit(p, trace, update)
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

// newRebaser builds the task-rewriting attacker.
func newRebaser(id string, profile gpu.Profile, runSeed int64, net *nn.Network, shard *dataset.Dataset, factor float64) (*Rebaser, error) {
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
// it over-claims instead: the honest trace padded with copies of its final
// checkpoint.
type Truncator struct {
	attacker
	trainer *rpol.Trainer
	// Intervals is the number of checkpoint intervals the committed trace
	// claims (at least 1).
	Intervals int
}

var _ rpol.Worker = (*Truncator)(nil)

// newTruncator builds the trace-truncating attacker.
func newTruncator(id string, profile gpu.Profile, runSeed int64, net *nn.Network, shard *dataset.Dataset, intervals int) (*Truncator, error) {
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
		attacker:  attacker{id: id, profile: profile, dataSize: shard.Len()},
		trainer:   &rpol.Trainer{Net: net, Shard: shard, Device: device},
		Intervals: intervals,
	}, nil
}

// RunEpoch trains the claimed prefix honestly and submits it as the epoch.
func (a *Truncator) RunEpoch(p rpol.TaskParams) (*rpol.EpochResult, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	a.retire(p, nil)
	trace := &rpol.Trace{
		Checkpoints: []tensor.Vector{a.spare.Copy(p.Global)},
		Steps:       []int{0},
	}
	for step := 0; len(trace.Checkpoints) <= a.Intervals; {
		interval := min(p.CheckpointEvery, p.Steps-step)
		var next tensor.Vector
		if interval > 0 {
			var err error
			if next, err = a.trainer.ExecuteInterval(a.spare.Get(len(p.Global)), trace.Final(), step, interval, p.Hyper, p.Nonce); err != nil {
				return nil, fmt.Errorf("adversary %s: %w", a.id, err)
			}
			step += interval
		} else {
			next = a.spare.Copy(trace.Final())
		}
		trace.Checkpoints = append(trace.Checkpoints, next)
		trace.Steps = append(trace.Steps, step)
	}
	update, err := rpol.BindFinalCheckpoint(trace, p.Global, a.update)
	if err != nil {
		return nil, fmt.Errorf("adversary %s: %w", a.id, err)
	}
	return a.submit(p, trace, update)
}

// Fabricator commits random weights scaled like plausible models — the
// naive cheater.
type Fabricator struct {
	attacker
	rng   *tensor.RNG
	scale float64
}

var _ rpol.Worker = (*Fabricator)(nil)

// newFabricator builds a random-weights cheater. scale controls the forged
// weights' magnitude; claimedDataSize is the |D_w| it reports.
func newFabricator(id string, profile gpu.Profile, seed int64, scale float64, claimedDataSize int) *Fabricator {
	if claimedDataSize < 1 {
		claimedDataSize = 1
	}
	return &Fabricator{
		attacker: attacker{id: id, profile: profile, dataSize: claimedDataSize},
		rng:      tensor.NewRNG(seed), scale: scale,
	}
}

// RunEpoch fabricates a random trace.
func (f *Fabricator) RunEpoch(p rpol.TaskParams) (*rpol.EpochResult, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	f.retire(p, nil)
	n := p.NumCheckpoints()
	trace := &rpol.Trace{
		Checkpoints: []tensor.Vector{f.spare.Copy(p.Global)},
		Steps:       []int{0},
	}
	for i := 1; i < n; i++ {
		// The global model plus fresh noise, drawn into the checkpoint itself.
		fake := f.spare.Get(len(p.Global))
		f.rng.FillNormal(fake, 0, f.scale)
		if _, err := p.Global.AddInto(fake, fake); err != nil {
			return nil, fmt.Errorf("adversary %s: %w", f.id, err)
		}
		trace.Checkpoints = append(trace.Checkpoints, fake)
		trace.Steps = append(trace.Steps, min(i*p.CheckpointEvery, p.Steps))
	}
	update, err := rpol.BindFinalCheckpoint(trace, p.Global, f.update)
	if err != nil {
		return nil, fmt.Errorf("adversary %s: %w", f.id, err)
	}
	return f.submit(p, trace, update)
}
