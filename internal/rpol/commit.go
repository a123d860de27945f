package rpol

import (
	"fmt"

	"rpol/internal/commitment"
	"rpol/internal/lsh"
	"rpol/internal/parallel"
	"rpol/internal/tensor"
)

// commitLeaves digests every checkpoint into its commitment leaf — the raw
// weight encoding under v1, the LSH digest encoding under v2 — chunked across
// the pool with per-slot writes, so the leaves are bit-identical to the
// serial construction for any worker count. Checkpoints are never copied:
// each chunk streams its leaf payloads through a reused encode buffer
// straight into SHA-256.
func commitLeaves(p *parallel.Pool, checkpoints []tensor.Vector, fam *lsh.Family) ([]commitment.Hash, []lsh.Digest, error) {
	if len(checkpoints) == 0 {
		return nil, nil, commitment.ErrEmpty
	}
	leaves := make([]commitment.Hash, len(checkpoints))
	if fam == nil {
		p.ForChunks(len(checkpoints), 1, func(_, lo, hi int) {
			var buf []byte
			for i := lo; i < hi; i++ {
				buf = checkpoints[i].AppendEncode(buf[:0])
				leaves[i] = commitment.HashLeaf(buf)
			}
		})
		return leaves, nil, nil
	}

	digests := make([]lsh.Digest, len(checkpoints))
	errs := make([]error, parallel.NumChunks(len(checkpoints), 1))
	p.ForChunks(len(checkpoints), 1, func(c, lo, hi int) {
		var buf []byte
		for i := lo; i < hi; i++ {
			d, err := fam.Hash(checkpoints[i])
			if err != nil {
				errs[c] = fmt.Errorf("rpol commitment checkpoint %d: %w", i, err)
				return
			}
			digests[i] = d
			buf = d.AppendEncode(buf[:0])
			leaves[i] = commitment.HashLeaf(buf)
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	return leaves, digests, nil
}

// EpochCommitment is a worker's commitment over one epoch's checkpoints: the
// Merkle root the submission carries, plus what the worker keeps to serve
// the verifier's proof pulls — the tree and, under v2, the committed digests.
// Workers and adversaries build one with CommitTrace, stamp the submission
// with Apply, and answer pulls with OpenProof.
type EpochCommitment struct {
	Root    commitment.Hash
	Digests []lsh.Digest

	tree *commitment.MerkleTree
}

// CommitTrace builds the Merkle commitment over the checkpoint snapshots.
// Leaf digesting is chunked across the pool; the root is bit-identical to
// the serial construction — and to the streamed one an honest worker builds
// while training — for any worker count.
func CommitTrace(p *parallel.Pool, checkpoints []tensor.Vector, fam *lsh.Family) (*EpochCommitment, error) {
	leaves, digests, err := commitLeaves(p, checkpoints, fam)
	if err != nil {
		return nil, err
	}
	tree, err := commitment.NewMerkleFromLeaves(leaves)
	if err != nil {
		return nil, fmt.Errorf("rpol commitment: %w", err)
	}
	return &EpochCommitment{Root: tree.Root(), Digests: digests, tree: tree}, nil
}

// Apply stamps the commitment's root onto a submission.
func (c *EpochCommitment) Apply(r *EpochResult) { r.MerkleRoot = c.Root }

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
