package rpol

import (
	"errors"
	"fmt"

	"rpol/internal/checkpoint"
	"rpol/internal/commitment"
	"rpol/internal/dataset"
	"rpol/internal/fsio"
	"rpol/internal/gpu"
	"rpol/internal/lsh"
	"rpol/internal/nn"
	"rpol/internal/obs"
	"rpol/internal/tensor"
)

// HonestWorker is the protocol-abiding pool worker: it trains its shard with
// the deterministic batch schedule, checkpoints faithfully, commits before
// sampling decisions are revealed, and opens exactly what it committed.
type HonestWorker struct {
	id      string
	profile gpu.Profile
	trainer *Trainer
	store   checkpoint.Store
	obs     *obs.Observer
	// segment, when set, is the worker's durable checkpoint log: every
	// checkpoint of the epoch in flight is appended to it as training
	// produces it and synced once, before the commitment is returned.
	segment *checkpoint.Segment

	// resumeEpoch is the one-shot state PrepareResume installs: the epoch
	// whose durable checkpoint prefix may be adopted, -1 when none is.
	resumeEpoch int

	lastTrace  *Trace
	lastResult *EpochResult
	// lastCommit retains the last epoch's commitment so OpenProof can serve
	// the verifier's on-demand Merkle pulls.
	lastCommit *EpochCommitment

	// encBuf is the reused encode scratch behind the segment header's
	// global-model checksum.
	encBuf []byte
}

var _ Worker = (*HonestWorker)(nil)

// NewHonestWorker builds a worker executing on the given GPU profile.
// runSeed individualizes this worker's hardware nondeterminism.
func NewHonestWorker(id string, profile gpu.Profile, runSeed int64, net *nn.Network, shard *dataset.Dataset) (*HonestWorker, error) {
	device, err := gpu.NewDevice(profile, runSeed)
	if err != nil {
		return nil, fmt.Errorf("rpol worker %s: %w", id, err)
	}
	if shard == nil || shard.Len() == 0 {
		return nil, fmt.Errorf("rpol worker %s: empty shard", id)
	}
	return &HonestWorker{
		id:          id,
		profile:     profile,
		trainer:     &Trainer{Net: net, Shard: shard, Device: device},
		resumeEpoch: -1,
	}, nil
}

// ID returns the worker identifier.
func (w *HonestWorker) ID() string { return w.id }

// GPUProfile returns the registered hardware profile.
func (w *HonestWorker) GPUProfile() gpu.Profile { return w.profile }

// ShardSize returns |D_w|.
func (w *HonestWorker) ShardSize() int { return w.trainer.Shard.Len() }

// SetStore directs the worker to persist its checkpoints in st (e.g. a
// disk-backed checkpoint.DiskStore) instead of process memory. Proof
// openings then round-trip through the store's serialization — exactly what
// a real worker whose checkpoints exceed RAM does.
func (w *HonestWorker) SetStore(st checkpoint.Store) { w.store = st }

// SetSegment makes the worker crash-recoverable: each checkpoint streams
// into seg as training produces it (so a crash loses at most the interval
// in flight), and RunEpoch syncs seg once before it returns — a commitment
// the manager has seen always has its checkpoints on disk. Openings are
// served from the trace in memory; the segment is read only by a resume.
// It replaces a store: set one or the other.
func (w *HonestWorker) SetSegment(seg *checkpoint.Segment) { w.segment = seg }

// PrepareResume arms the worker to adopt, on its next RunEpoch call, the
// intact checkpoint prefix its segment holds for the given epoch. One-shot:
// the armed state clears on the next RunEpoch whether or not it applies.
func (w *HonestWorker) PrepareResume(epoch int) { w.resumeEpoch = epoch }

// SetObserver routes the worker's training metrics and spans through o.
func (w *HonestWorker) SetObserver(o *obs.Observer) {
	w.obs = o
	w.trainer.Steps = o.Counter("rpol_train_steps_total")
}

// StorageBytes reports the bytes the worker's current proofs occupy.
func (w *HonestWorker) StorageBytes() int64 {
	if w.store != nil {
		return w.store.Bytes()
	}
	if w.segment != nil {
		return w.segment.Bytes()
	}
	if w.lastTrace == nil {
		return 0
	}
	var total int64
	for _, c := range w.lastTrace.Checkpoints {
		total += int64(tensor.EncodedSize(len(c)))
	}
	return total
}

// RunEpoch trains the sub-task and submits the update with its commitment.
func (w *HonestWorker) RunEpoch(p TaskParams) (*EpochResult, error) {
	if w.segment != nil {
		// No file handle outlives the epoch, whichever way it ends.
		defer w.segment.Close()
	}
	trainSpan := w.obs.Start(p.Trace, "worker.train",
		obs.String("worker", w.id), obs.Int("steps", int64(p.Steps)))
	stream := newStreamCommit(p)
	trace, err := w.runTraining(p, stream)
	if err != nil {
		trainSpan.End(obs.String("error", err.Error()))
		return nil, fmt.Errorf("rpol worker %s: %w", w.id, err)
	}
	trainSpan.End(obs.Int("checkpoints", int64(len(trace.Checkpoints))))
	w.obs.Counter("rpol_checkpoints_total").Add(int64(len(trace.Checkpoints)))
	update, err := BindFinalCheckpoint(trace, p.Global)
	if err != nil {
		return nil, fmt.Errorf("rpol worker %s: %w", w.id, err)
	}
	if w.segment != nil {
		// The final checkpoint is persisted once, as bound, and one barrier
		// covers the whole epoch: commit sent ⇒ every committed checkpoint
		// is durable.
		last := len(trace.Checkpoints) - 1
		if err := w.segment.Append(p.Epoch, last, trace.Steps[last], trace.Checkpoints[last]); err != nil {
			return nil, fmt.Errorf("rpol worker %s: %w", w.id, err)
		}
		if err := w.segment.Sync(); err != nil {
			return nil, fmt.Errorf("rpol worker %s: %w", w.id, err)
		}
	}
	commitSpan := w.obs.Start(p.Trace, "worker.commit", obs.String("worker", w.id))
	ec, err := stream.finish(trace)
	commitSpan.End()
	if err != nil {
		return nil, fmt.Errorf("rpol worker %s: %w", w.id, err)
	}
	w.obs.Counter("rpol_commitments_total").Inc()
	if len(ec.Digests) > 0 {
		w.obs.Counter("rpol_lsh_digests_total").Add(int64(len(ec.Digests)))
	}
	if w.store != nil {
		if err := w.store.Clear(); err != nil {
			return nil, fmt.Errorf("rpol worker %s: %w", w.id, err)
		}
		for i, c := range trace.Checkpoints {
			if err := w.store.Put(i, c); err != nil {
				return nil, fmt.Errorf("rpol worker %s: %w", w.id, err)
			}
		}
	}
	w.lastTrace = trace
	w.lastCommit = ec
	result := &EpochResult{
		WorkerID:       w.id,
		Epoch:          p.Epoch,
		Update:         update,
		DataSize:       w.trainer.Shard.Len(),
		NumCheckpoints: len(trace.Checkpoints),
	}
	ec.Apply(result)
	w.lastResult = result
	return w.lastResult, nil
}

// runTraining executes the epoch's training, pushing each checkpoint's leaf
// into stream as it is produced, through whichever persistence mode is
// configured: plain (in-memory trace), or streaming into the worker's segment
// with optional crash-resume from its intact prefix.
func (w *HonestWorker) runTraining(p TaskParams, stream *streamCommit) (*Trace, error) {
	defer func() { w.trainer.Sink = nil }()
	if w.segment == nil {
		w.trainer.Sink = stream.sink(nil)
		return w.trainer.RunEpoch(p)
	}
	w.encBuf = p.Global.AppendEncode(w.encBuf[:0])
	globalDigest := fsio.Checksum(w.encBuf)
	prefix, err := w.loadResumePrefix(p, globalDigest)
	if err != nil {
		return nil, err
	}
	if prefix == nil {
		// Fresh epoch: the header replaces the previous epoch's frames and
		// stands in for checkpoint 0, the global model the manager holds.
		if err := w.segment.Begin(p.Epoch, globalDigest); err != nil {
			return nil, err
		}
	} else {
		// The prefix opens with checkpoint 0, which came from the task.
		w.obs.Counter("rpol_resumed_checkpoints_total").Add(int64(len(prefix.Checkpoints) - 1))
		// Prefix adoption bypasses the trainer's Sink; rebuild the
		// incremental Merkle state over the adopted snapshots so the streamed
		// root covers them too. The prefix never includes the final
		// checkpoint, whose leaf is pushed after binding.
		for i, cp := range prefix.Checkpoints {
			if err := stream.push(i, cp); err != nil {
				return nil, err
			}
		}
	}
	final := p.NumCheckpoints() - 1
	persist := func(idx, step int, cp tensor.Vector) error {
		if idx == 0 || idx == final {
			// Checkpoint 0 is the header; the final one is written by
			// RunEpoch once BindFinalCheckpoint has settled its bytes.
			return nil
		}
		return w.segment.Append(p.Epoch, idx, step, cp)
	}
	w.trainer.Sink = stream.sink(persist)
	return w.trainer.ResumeEpoch(p, prefix)
}

// loadResumePrefix adopts the longest intact prefix of the armed epoch's
// segment: its header must name this epoch and the distributed global model
// (the previous epoch's leftovers fail that), and every adopted frame must
// have survived intact, in order, at the step this task takes it. The final
// checkpoint is never adopted — what the segment holds is the bound final,
// not the trained weights the last interval must resume from, and retraining
// the last interval is always safe. Device noise is keyed by step, so the
// retrained suffix draws the exact noise an uninterrupted run would.
func (w *HonestWorker) loadResumePrefix(p TaskParams, globalDigest uint64) (*Trace, error) {
	armed := w.resumeEpoch == p.Epoch
	w.resumeEpoch = -1
	if !armed {
		return nil, nil
	}
	frames, stop, err := w.segment.Resume(p.Epoch, globalDigest, len(p.Global), p.NumCheckpoints()-2)
	if err != nil {
		return nil, err
	}
	if stop != nil && !errors.Is(stop, checkpoint.ErrSegmentStale) {
		w.corruptCheckpoint(p.Epoch, fmt.Sprintf("segment scan stopped after %d checkpoints: %v", len(frames), stop))
	}
	prefix := &Trace{Checkpoints: []tensor.Vector{p.Global}, Steps: []int{0}}
	for _, f := range frames {
		if f.Step != min(f.Index*p.CheckpointEvery, p.Steps) {
			// Frames of a differently-shaped task: none of them is ours.
			w.corruptCheckpoint(p.Epoch, fmt.Sprintf("checkpoint %d taken at step %d", f.Index, f.Step))
			return nil, nil
		}
		prefix.Checkpoints = append(prefix.Checkpoints, f.Weights)
		prefix.Steps = append(prefix.Steps, f.Step)
	}
	if len(frames) == 0 {
		return nil, nil
	}
	return prefix, nil
}

// corruptCheckpoint records durable checkpoint bytes that failed
// verification during a resume.
func (w *HonestWorker) corruptCheckpoint(epoch int, detail string) {
	w.obs.Counter("rpol_resume_corrupt_checkpoints_total").Inc()
	w.obs.Publish(obs.StreamEvent{
		Kind:   obs.EventCheckpointCorrupt,
		Worker: w.id,
		Epoch:  int64(epoch),
		Detail: detail,
	})
}

// OpenCheckpoint serves the raw weights of checkpoint idx from the last
// trained epoch, reading through the configured store when one is set.
func (w *HonestWorker) OpenCheckpoint(idx int) (tensor.Vector, error) {
	if w.lastTrace == nil {
		return nil, fmt.Errorf("rpol worker %s: no epoch trained yet", w.id)
	}
	if idx < 0 || idx >= len(w.lastTrace.Checkpoints) {
		return nil, fmt.Errorf("rpol worker %s: checkpoint %d of %d", w.id, idx, len(w.lastTrace.Checkpoints))
	}
	if w.store != nil {
		weights, err := w.store.Get(idx)
		if err != nil {
			return nil, fmt.Errorf("rpol worker %s: %w", w.id, err)
		}
		return weights, nil
	}
	return w.lastTrace.Checkpoints[idx], nil
}

// OpenProof serves the Merkle inclusion proof for leaf idx of the last
// committed epoch.
func (w *HonestWorker) OpenProof(idx int) (LeafProof, error) {
	if w.lastCommit == nil {
		return LeafProof{}, fmt.Errorf("rpol worker %s: no epoch committed yet", w.id)
	}
	return w.lastCommit.OpenProof(idx)
}

// LastTrace exposes the worker's private trace for experiments that measure
// reproduction errors directly.
func (w *HonestWorker) LastTrace() *Trace { return w.lastTrace }

// streamCommit accumulates the streaming Merkle commitment while an epoch
// trains: each checkpoint's leaf — the raw weight encoding under v1, the LSH
// digest encoding under v2 — is pushed into an IncrementalMerkle as the
// trainer emits it, except the final checkpoint, which BindFinalCheckpoint
// rewrites after training and whose leaf is therefore pushed only then.
type streamCommit struct {
	fam     *lsh.Family
	final   int // index of the checkpoint excluded from streaming
	inc     commitment.IncrementalMerkle
	digests []lsh.Digest
	buf     []byte // reused leaf-encode scratch
}

// newStreamCommit starts the streaming state for one epoch.
func newStreamCommit(p TaskParams) *streamCommit {
	return &streamCommit{fam: p.LSH, final: p.NumCheckpoints() - 1}
}

// sink adapts the stream into a Trainer.Sink, chaining an optional
// persistence sink (durability first, then the leaf push). The final
// checkpoint is persisted but not pushed.
func (s *streamCommit) sink(persist func(idx, step int, cp tensor.Vector) error) func(idx, step int, cp tensor.Vector) error {
	return func(idx, step int, cp tensor.Vector) error {
		if persist != nil {
			if err := persist(idx, step, cp); err != nil {
				return err
			}
		}
		if idx >= s.final {
			return nil
		}
		return s.push(idx, cp)
	}
}

// push appends checkpoint idx's leaf to the incremental tree. Leaves must
// arrive in order — a gap means the trainer and the commitment disagree
// about the epoch's shape, which is a bug, not a recoverable condition.
func (s *streamCommit) push(idx int, cp tensor.Vector) error {
	if idx != s.inc.Len() {
		return fmt.Errorf("rpol: streaming commitment expects leaf %d, got %d", s.inc.Len(), idx)
	}
	if s.fam == nil {
		s.buf = cp.AppendEncode(s.buf[:0])
		s.inc.Push(commitment.HashLeaf(s.buf))
		return nil
	}
	d, err := s.fam.Hash(cp)
	if err != nil {
		return fmt.Errorf("rpol streaming commitment leaf %d: %w", idx, err)
	}
	s.digests = append(s.digests, d)
	s.buf = d.AppendEncode(s.buf[:0])
	s.inc.Push(commitment.HashLeaf(s.buf))
	return nil
}

// finish completes the stream with the bound final checkpoint's leaf (every
// earlier leaf was pushed as training produced it) and returns a servable
// EpochCommitment, materializing the proof tree eagerly so concurrent
// OpenProof calls share a read-only structure.
func (s *streamCommit) finish(trace *Trace) (*EpochCommitment, error) {
	last := len(trace.Checkpoints) - 1
	if err := s.push(last, trace.Checkpoints[last]); err != nil {
		return nil, err
	}
	root, err := s.inc.Root()
	if err != nil {
		return nil, err
	}
	tree, err := s.inc.Tree()
	if err != nil {
		return nil, err
	}
	return &EpochCommitment{Root: root, Digests: s.digests, tree: tree}, nil
}
