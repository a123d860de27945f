package rpol

import (
	"fmt"

	"rpol/internal/commitment"
	"rpol/internal/lsh"
	"rpol/internal/tensor"
)

// EpochCommitment is a worker's commitment over one epoch's checkpoints: the
// Merkle root the submission carries, plus what it takes to answer the
// verifier's pulls — the committed checkpoints (the trace's own vectors,
// aliased), the tree and, under v2, the committed digests. Workers and
// adversaries build one with CommitTrace or by streaming, stamp the
// submission with Apply, and serve openings from it: it is a ProofOpener.
type EpochCommitment struct {
	Root    commitment.Hash
	Digests []lsh.Digest

	checkpoints []tensor.Vector
	tree        *commitment.MerkleTree
}

var _ ProofOpener = (*EpochCommitment)(nil)

// CommitTrace builds the Merkle commitment over the checkpoint snapshots the
// way an honest worker streams it while training: every checkpoint's leaf is
// pushed in order, then the tree is built once, so the two roots are
// bit-identical. The checkpoints are aliased, not copied.
//
// buf, when not nil, is the caller's leaf-encode scratch (a v1 leaf encodes a
// whole checkpoint): CommitTrace encodes into its storage and leaves it
// holding the grown buffer, so a caller that commits every epoch keeps one.
// A nil buf encodes into scratch of the call's own.
func CommitTrace(buf *[]byte, checkpoints []tensor.Vector, fam *lsh.Family) (*EpochCommitment, error) {
	if len(checkpoints) == 0 {
		return nil, fmt.Errorf("rpol commitment: %w", commitment.ErrEmpty)
	}
	if buf == nil {
		buf = new([]byte)
	}
	s := newStreamCommit(fam, len(checkpoints), *buf)
	defer func() { *buf = s.buf }()
	for i, cp := range checkpoints[:s.final] {
		if err := s.push(i, cp); err != nil {
			return nil, err
		}
	}
	return s.finish(checkpoints)
}

// Apply stamps the commitment's root onto a submission.
func (c *EpochCommitment) Apply(r *EpochResult) { r.MerkleRoot = c.Root }

// OpenCheckpoint serves the raw weights of committed checkpoint idx: the
// committed vector itself, valid as long as the trace it came from.
func (c *EpochCommitment) OpenCheckpoint(idx int) (tensor.Vector, error) {
	if idx < 0 || idx >= len(c.checkpoints) {
		return nil, fmt.Errorf("rpol commitment: checkpoint %d of %d: %w",
			idx, len(c.checkpoints), commitment.ErrOutOfRange)
	}
	return c.checkpoints[idx], nil
}

// OpenProof serves the verifier's on-demand pull for leaf idx: the Merkle
// inclusion proof plus, under v2, the committed digest encoding it
// authenticates.
func (c *EpochCommitment) OpenProof(idx int) (LeafProof, error) {
	proof, err := c.tree.Prove(idx)
	if err != nil {
		return LeafProof{}, err
	}
	lp := LeafProof{Proof: proof}
	if c.Digests != nil {
		lp.Digest = c.Digests[idx].AppendEncode(nil)
	}
	return lp, nil
}

// streamCommit is the one commitment construction. The leaf rule: leaf j is
// SHA-256 over the raw weight encoding of checkpoint j under v1, over the
// encoding of its LSH digest under v2. Leaves are hashed as they are pushed —
// while an honest worker trains, as its trainer emits each checkpoint — and
// finish builds the tree once. The final checkpoint, which
// BindFinalCheckpoint rewrites after training, is pushed only by finish.
type streamCommit struct {
	fam     *lsh.Family
	final   int // index of the checkpoint finish pushes
	leaves  []commitment.Hash
	digests []lsh.Digest
	buf     []byte // reused leaf-encode scratch
}

// newStreamCommit starts the commitment over n checkpoints, encoding leaves
// into buf's storage.
func newStreamCommit(fam *lsh.Family, n int, buf []byte) *streamCommit {
	s := &streamCommit{fam: fam, final: n - 1, leaves: make([]commitment.Hash, 0, n), buf: buf}
	if fam != nil {
		s.digests = make([]lsh.Digest, 0, n)
	}
	return s
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

// push hashes checkpoint idx's leaf. Leaves must arrive in order — a gap
// means the trainer and the commitment disagree about the epoch's shape,
// which is a bug, not a recoverable condition.
func (s *streamCommit) push(idx int, cp tensor.Vector) error {
	if idx != len(s.leaves) {
		return fmt.Errorf("rpol commitment: expects leaf %d, got %d", len(s.leaves), idx)
	}
	if s.fam == nil {
		s.buf = cp.AppendEncode(s.buf[:0])
	} else {
		d, err := s.fam.Hash(cp)
		if err != nil {
			return fmt.Errorf("rpol commitment leaf %d: %w", idx, err)
		}
		s.digests = append(s.digests, d)
		s.buf = d.AppendEncode(s.buf[:0])
	}
	s.leaves = append(s.leaves, commitment.HashLeaf(s.buf))
	return nil
}

// finish pushes the final checkpoint's leaf — every earlier one was pushed
// already — and builds the tree once, eagerly, so concurrent OpenProof calls
// share a read-only structure. The commitment serves openings from
// checkpoints, the trace the leaves were pushed from.
func (s *streamCommit) finish(checkpoints []tensor.Vector) (*EpochCommitment, error) {
	last := len(checkpoints) - 1
	if err := s.push(last, checkpoints[last]); err != nil {
		return nil, err
	}
	tree, err := commitment.NewMerkleFromLeaves(s.leaves)
	if err != nil {
		return nil, fmt.Errorf("rpol commitment: %w", err)
	}
	return &EpochCommitment{Root: tree.Root(), Digests: s.digests, checkpoints: checkpoints, tree: tree}, nil
}
