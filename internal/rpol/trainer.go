package rpol

import (
	"fmt"

	"rpol/internal/dataset"
	"rpol/internal/gpu"
	"rpol/internal/nn"
	"rpol/internal/obs"
	"rpol/internal/parallel"
	"rpol/internal/prf"
	"rpol/internal/tensor"
)

// Trainer executes the mini-batch stochastic-yet-deterministic gradient
// descent of Sec. V-B over a worker's shard: batch m consists of the
// elements PRF(N·m + n) mod |D_w|, so the manager can re-execute any step
// bit-for-bit (up to hardware noise) during verification.
//
// Optimizer state (momentum, second moments) is reset at every checkpoint
// boundary so that each checkpoint interval is a self-contained function of
// its starting weights — otherwise the manager could not re-execute a
// sampled interval without also receiving the optimizer state. This is the
// one protocol detail the paper leaves implicit; see DESIGN.md. The reset is
// in place: the trainer owns one optimizer for its lifetime.
type Trainer struct {
	// Net is the model architecture; its parameters are overwritten by the
	// weights being trained.
	Net *nn.Network
	// Shard is the worker's sub-dataset D_w.
	Shard *dataset.Dataset
	// Device injects per-step hardware noise, keyed by (task nonce, step,
	// parameter tensor) so it is the same whichever intervals a trainer runs,
	// in whatever order; nil trains noiselessly (used in tests).
	Device *gpu.Device
	// Steps, when set, counts every executed training step. The owner wires
	// the counter that names the work correctly — rpol_train_steps_total for
	// workers, rpol_reexec_steps_total for verification re-execution,
	// rpol_probe_steps_total for calibration probes — so one trainer type
	// serves all three without double counting.
	Steps *obs.Counter
	// Sink, when set, receives every checkpoint the moment RunEpoch snapshots
	// it (index 0 carries the initial weights). Workers use it to stream
	// checkpoints to durable storage as they are produced, so a crash loses
	// at most the interval in flight. A Sink error aborts the epoch. The
	// vector is the trace's own buffer, not a copy: consume it or copy it
	// before returning, never retain and mutate it.
	Sink func(idx, step int, w tensor.Vector) error

	// Runtime, parameter tensors, optimizer, batch schedule and per-step
	// batch buffers, built on first use and reused for the trainer's
	// lifetime. pool is the process compute pool (parallel.Default) the
	// runtime spreads its GEMM kernels over, read once when it is built:
	// every pool size produces the same bits.
	bt       *nn.BatchTrainer
	pool     *parallel.Pool
	params   []tensor.Vector // Net.Params()
	opt      nn.Optimizer
	optFor   Hyper // the Optimizer and LR opt was built from
	schedule *prf.PRF
	nonce    prf.Nonce // the nonce schedule is keyed with
	idxs     []int
	xs       []tensor.Vector
	labels   []int

	// spare holds the checkpoint vectors of traces the trainer's owner
	// handed back (Recycle); the next epoch refills them instead of
	// allocating.
	spare tensor.Spares
}

// Recycle takes back the checkpoint vectors of a trace this trainer produced
// so the next RunEpoch/ResumeEpoch refills them. Only the trace's owner calls
// it, once the trace is dead: neither it nor any vector it holds may be read
// afterwards, except a vector that is also the next task's Global, which
// that epoch drops instead of refilling. A nil trace is a no-op.
func (t *Trainer) Recycle(tr *Trace) {
	if tr == nil {
		return
	}
	t.spare.Put(tr.Checkpoints...)
	clear(tr.Checkpoints)
	tr.Checkpoints, tr.Steps = nil, nil
}

// optimizer returns the trainer's optimizer for h with its state reset,
// building one only when the optimizer name or learning rate changes.
func (t *Trainer) optimizer(h Hyper) (nn.Optimizer, error) {
	if t.opt == nil || t.optFor.Optimizer != h.Optimizer || t.optFor.LR != h.LR {
		opt, err := nn.NewOptimizer(h.Optimizer, h.LR)
		if err != nil {
			return nil, err
		}
		t.opt, t.optFor = opt, h
	}
	t.opt.Reset()
	return t.opt, nil
}

// batch materializes the deterministic batch for the given step into the
// trainer's reused buffers.
func (t *Trainer) batch(p *prf.PRF, step, batchSize int) error {
	if cap(t.idxs) < batchSize {
		t.idxs = make([]int, batchSize)
		t.xs = make([]tensor.Vector, batchSize)
		t.labels = make([]int, batchSize)
	}
	t.idxs, t.xs, t.labels = t.idxs[:batchSize], t.xs[:batchSize], t.labels[:batchSize]
	if err := p.FillBatchIndices(t.idxs, step, t.Shard.Len()); err != nil {
		return fmt.Errorf("rpol batch at step %d: %w", step, err)
	}
	for i, idx := range t.idxs {
		ex, err := t.Shard.At(idx)
		if err != nil {
			return fmt.Errorf("rpol batch at step %d: %w", step, err)
		}
		t.xs[i], t.labels[i] = ex.Features, ex.Label
	}
	return nil
}

// build makes the trainer's runtime on first use, on the process compute
// pool of that moment.
func (t *Trainer) build() error {
	if t.bt != nil {
		return nil
	}
	t.pool = parallel.Default()
	bt, err := nn.NewBatchTrainer(t.Net, t.pool)
	if err != nil {
		return fmt.Errorf("rpol trainer: %w", err)
	}
	t.bt, t.params = bt, t.Net.Params()
	return nil
}

// ExecuteInterval trains from `start` weights for `steps` steps beginning at
// training step startStep, writing the resulting weights into dst's storage
// (allocated when nil or too small) and returning it. start is only read, and
// dst may be start. It is used both by workers (per checkpoint interval) and
// by the manager when re-executing a sampled interval during verification.
func (t *Trainer) ExecuteInterval(dst, start tensor.Vector, startStep, steps int, h Hyper, nonce prf.Nonce) (tensor.Vector, error) {
	if err := t.build(); err != nil {
		return nil, err
	}
	if err := nn.LoadParams(t.params, start); err != nil {
		return nil, fmt.Errorf("rpol interval: %w", err)
	}
	opt, err := t.optimizer(h)
	if err != nil {
		return nil, fmt.Errorf("rpol interval: %w", err)
	}
	if t.schedule == nil || t.nonce != nonce {
		t.schedule, t.nonce = prf.NewFromNonce(nonce), nonce
	}
	for s := 0; s < steps; s++ {
		if err := t.batch(t.schedule, startStep+s, h.BatchSize); err != nil {
			return nil, err
		}
		if _, err := t.bt.TrainBatch(t.xs, t.labels, opt); err != nil {
			return nil, fmt.Errorf("rpol interval step %d: %w", startStep+s, err)
		}
		if t.Device != nil {
			for i, param := range t.params {
				t.Device.Seek(uint64(nonce), startStep+s, i)
				t.Device.Perturb(param)
			}
		}
	}
	t.Steps.Add(int64(steps))
	return nn.FlattenParams(tensor.Resize(dst, len(start))[:0], t.params), nil
}

// RunEpoch trains a full epoch per the task parameters, snapshotting
// checkpoints every CheckpointEvery steps (including the initial weights
// and the final weights). It returns the trace of snapshots.
func (t *Trainer) RunEpoch(p TaskParams) (*Trace, error) {
	return t.ResumeEpoch(p, nil)
}

// ResumeEpoch is RunEpoch continuing from an already-trained prefix of the
// same epoch (recovered checkpoints). The prefix's snapshots are adopted
// verbatim — the Sink sees only checkpoints produced by this call — and
// training restarts at the prefix's last step. Optimizer state resets at
// every checkpoint boundary, and batches and device noise are pure functions
// of (nonce, step), so a prefix-resumed epoch is bit-identical to an
// uninterrupted one. A nil or empty prefix is a fresh epoch.
func (t *Trainer) ResumeEpoch(p TaskParams, prefix *Trace) (*Trace, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	// An epoch never writes the weights it trains from.
	t.spare.Drop(p.Global)
	n := p.NumCheckpoints()
	trace := &Trace{Checkpoints: make([]tensor.Vector, 0, n), Steps: make([]int, 0, n)}
	if prefix != nil && len(prefix.Checkpoints) > 0 {
		if len(prefix.Checkpoints) != len(prefix.Steps) {
			return nil, fmt.Errorf("rpol resume: prefix has %d checkpoints, %d steps",
				len(prefix.Checkpoints), len(prefix.Steps))
		}
		for i, w := range prefix.Checkpoints {
			trace.Checkpoints = append(trace.Checkpoints, t.spare.Copy(w))
			trace.Steps = append(trace.Steps, prefix.Steps[i])
		}
	} else {
		trace.Checkpoints = append(trace.Checkpoints, t.spare.Copy(p.Global))
		trace.Steps = append(trace.Steps, 0)
		if err := t.emit(trace); err != nil {
			return nil, err
		}
	}
	// Each interval's output is the next checkpoint and the next interval's
	// (read-only) input: one vector per checkpoint, owned by the trace —
	// recycled from a trace handed back, when there is one.
	step := trace.Steps[len(trace.Steps)-1]
	for step < p.Steps {
		interval := p.CheckpointEvery
		if step+interval > p.Steps {
			interval = p.Steps - step
		}
		start := trace.Final()
		next, err := t.ExecuteInterval(t.spare.Get(len(start)), start, step, interval, p.Hyper, p.Nonce)
		if err != nil {
			return nil, err
		}
		step += interval
		trace.Checkpoints = append(trace.Checkpoints, next)
		trace.Steps = append(trace.Steps, step)
		if err := t.emit(trace); err != nil {
			return nil, err
		}
	}
	return trace, nil
}

// emit streams the trace's newest checkpoint to the Sink, if any.
func (t *Trainer) emit(trace *Trace) error {
	if t.Sink == nil {
		return nil
	}
	idx := len(trace.Checkpoints) - 1
	if err := t.Sink(idx, trace.Steps[idx], trace.Checkpoints[idx]); err != nil {
		return fmt.Errorf("rpol checkpoint sink at %d: %w", idx, err)
	}
	return nil
}

// Final returns the last checkpoint of the trace (the epoch's final
// weights).
func (tr *Trace) Final() tensor.Vector {
	if len(tr.Checkpoints) == 0 {
		return nil
	}
	return tr.Checkpoints[len(tr.Checkpoints)-1]
}

// update computes the local model update L = final − initial submitted for
// aggregation (Eq. 1).
func (tr *Trace) update() (tensor.Vector, error) {
	if len(tr.Checkpoints) < 2 {
		return nil, fmt.Errorf("rpol: trace has %d checkpoints", len(tr.Checkpoints))
	}
	return tr.Final().Sub(tr.Checkpoints[0])
}

// BindFinalCheckpoint computes the update L = final − θ_t into update's
// storage (allocated when nil or too small) and rewrites the trace's final
// checkpoint in place as θ_t + L before the trace is committed. The final
// checkpoint must be a buffer of its own, appearing nowhere else in the
// trace; a caller whose final checkpoint is shared binds a copy of it.
//
// The rewrite exists because the verifier binds the submitted update to the
// commitment by reconstructing θ_t + L and hashing it — and floating-point
// addition does not exactly invert subtraction (fl(g + fl(f−g)) can differ
// from f by an ulp). Re-adding the computed update on the worker's side
// makes the committed bytes identical to the verifier's reconstruction,
// while perturbing the actual final weights by at most one ulp per element
// — orders of magnitude below any reproduction-error tolerance β.
func BindFinalCheckpoint(tr *Trace, global, update tensor.Vector) (tensor.Vector, error) {
	if len(tr.Checkpoints) < 2 {
		return nil, fmt.Errorf("rpol: trace has %d checkpoints", len(tr.Checkpoints))
	}
	final := tr.Final()
	update, err := final.SubInto(update, global)
	if err != nil {
		return nil, fmt.Errorf("rpol bind final: %w", err)
	}
	if _, err := global.AddInto(final, update); err != nil {
		return nil, fmt.Errorf("rpol bind final: %w", err)
	}
	return update, nil
}

// IntervalSteps returns the number of training steps between checkpoint idx
// and idx+1.
func (tr *Trace) IntervalSteps(idx int) (startStep, steps int, err error) {
	if idx < 0 || idx+1 >= len(tr.Steps) {
		return 0, 0, fmt.Errorf("rpol: interval %d of %d checkpoints", idx, len(tr.Steps))
	}
	return tr.Steps[idx], tr.Steps[idx+1] - tr.Steps[idx], nil
}
