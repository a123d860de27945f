package rpol

import (
	"errors"
	"fmt"

	"rpol/internal/commitment"
	"rpol/internal/lsh"
	"rpol/internal/parallel"
	"rpol/internal/tensor"
)

// poolFor maps a Workers knob to a compute pool: nil (serial) when n ≤ 0.
func poolFor(n int) *parallel.Pool {
	if n <= 0 {
		return nil
	}
	return parallel.New(n)
}

// BuildCommitment constructs the epoch commitment over a sequence of
// checkpoint snapshots.
//
// Under RPoLv1 (fam == nil) each leaf is the digest of the raw encoded
// weights, so the commitment binds the exact checkpoint bytes and the
// returned digest slice is nil.
//
// Under RPoLv2 each checkpoint is first LSH-hashed; the leaves commit the
// digests and the digests themselves are returned so the worker can reveal
// them during verification (the manager checks a revealed digest against the
// commitment before fuzzy-matching it).
func BuildCommitment(checkpoints []tensor.Vector, fam *lsh.Family) (*commitment.HashList, []lsh.Digest, error) {
	ec, err := CommitTrace(nil, checkpoints, fam, false)
	if err != nil {
		return nil, nil, err
	}
	return ec.Commit, ec.Digests, nil
}

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

// EpochCommitment is a worker's commitment over one epoch's checkpoints in
// either wire form: the legacy hash list (Commit/Digests shipped inline with
// the submission) or the streaming Merkle root (HasRoot set, proofs served
// on demand through OpenProof). Workers and adversaries build one with
// CommitTrace, stamp the submission with Apply, and keep it around to answer
// the verifier's proof pulls.
type EpochCommitment struct {
	Commit  *commitment.HashList
	Root    commitment.Hash
	HasRoot bool
	Digests []lsh.Digest

	tree *commitment.MerkleTree
}

// CommitTrace builds the epoch commitment over the checkpoint snapshots:
// the legacy hash list when merkle is false, the Merkle tree otherwise.
// Leaf digesting is chunked across the pool; the resulting commitment —
// hash-list leaves or Merkle root — is bit-identical to the serial
// construction for any worker count.
func CommitTrace(p *parallel.Pool, checkpoints []tensor.Vector, fam *lsh.Family, merkle bool) (*EpochCommitment, error) {
	leaves, digests, err := commitLeaves(p, checkpoints, fam)
	if err != nil {
		return nil, err
	}
	if !merkle {
		commit, err := commitment.NewLeafList(leaves)
		if err != nil {
			return nil, fmt.Errorf("rpol commitment: %w", err)
		}
		return &EpochCommitment{Commit: commit, Digests: digests}, nil
	}
	tree, err := commitment.NewMerkleFromLeaves(leaves)
	if err != nil {
		return nil, fmt.Errorf("rpol commitment: %w", err)
	}
	return &EpochCommitment{Root: tree.Root(), HasRoot: true, Digests: digests, tree: tree}, nil
}

// Apply stamps the commitment onto a submission: root-only under Merkle,
// full hash list plus inline digests under the legacy scheme.
func (c *EpochCommitment) Apply(r *EpochResult) {
	if c.HasRoot {
		r.MerkleRoot = c.Root
		r.HasRoot = true
		return
	}
	r.Commit = c.Commit
	r.LSHDigests = c.Digests
}

// OpenProof serves the verifier's on-demand pull for leaf idx: the Merkle
// inclusion proof plus, under v2, the committed digest encoding it
// authenticates.
func (c *EpochCommitment) OpenProof(idx int) (LeafProof, error) {
	if !c.HasRoot {
		return LeafProof{}, errors.New("rpol: epoch not Merkle-committed")
	}
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

// VerifyOpening checks that an opened raw checkpoint is what a hash-list
// submission committed at leaf idx, by the leaf store's own rule: under v1
// the weights must hash to the committed leaf; under v2 their LSH digest must
// equal the committed digest exactly.
func VerifyOpening(result *EpochResult, fam *lsh.Family, idx int, weights tensor.Vector) error {
	if result.Commit == nil {
		return errors.New("rpol: submission carries no hash-list commitment")
	}
	if idx < 0 || idx >= result.Commit.Len() || (fam != nil && idx >= len(result.LSHDigests)) {
		return fmt.Errorf("rpol opening %d: %w", idx, commitment.ErrOutOfRange)
	}
	var s leafStore
	s.reset(nil, result, fam, result.Commit.Len(), nil)
	return s.admit(idx, weights)
}
