package rpol

import (
	"fmt"
	"slices"

	"rpol/internal/commitment"
	"rpol/internal/lsh"
	"rpol/internal/tensor"
)

// leafStore is the only way verifier code obtains a committed checkpoint or
// digest of the submission under verification: weights and (v2) digest pull
// a leaf, bind the answer to the index asked, authenticate it against the
// Merkle root and remember it, so every leaf crosses the wire at most once per
// submission and nothing unauthenticated ever reaches a caller. The two bound
// leaves — 0, the distributed global model, and n−1, θ_t plus the submitted
// update — are seeded by bind from the manager's own vectors, never requested.
//
// A pulled leaf's bytes are owed until its first use charges them to the
// outcome. Nothing is remembered or owed
// for a leaf that failed any check. The store is a slice indexed by leaf,
// kept by its verifier and reset per submission, and not safe for concurrent
// use: every pull happens on the goroutine that called VerifySubmission.
type leafStore struct {
	opener ProofOpener
	result *EpochResult
	fam    *lsh.Family // nil under v1, where the leaf is the weight encoding
	out    *VerifyOutcome
	leaves []leaf
	enc    []byte // leaf-encode scratch
}

// leaf is what the store holds of one committed checkpoint.
type leaf struct {
	weights tensor.Vector // authenticated checkpoint; nil until held
	digest  lsh.Digest    // v2: authenticated committed digest; nil until held
	// Bytes pulled for this leaf and not yet charged to the outcome.
	proofBytes, weightBytes int64
}

// reset points the store at a submission of n leaves.
func (s *leafStore) reset(opener ProofOpener, result *EpochResult, fam *lsh.Family, n int, out *VerifyOutcome) {
	s.opener, s.result, s.fam, s.out = opener, result, fam, out
	s.leaves = slices.Grow(s.leaves[:0], n)[:n]
	clear(s.leaves)
}

// authenticate checks payload against the root's leaf idx with the one proof
// pull a leaf ever costs. A nil payload asks for the worker's own — the v2
// digest encoding riding with the proof. It returns the authenticated
// payload.
func (s *leafStore) authenticate(idx int, payload []byte) ([]byte, error) {
	lp, err := s.opener.OpenProof(idx)
	if err != nil {
		return nil, reason{fmt.Errorf("proof not opened: %w", err), ErrNotOpened}
	}
	if lp.Proof.Index != idx {
		return nil, fmt.Errorf("proof answers leaf %d, want %d: %w", lp.Proof.Index, idx, ErrProofIndex)
	}
	if payload == nil {
		if payload = lp.Digest; len(payload) == 0 {
			return nil, ErrNoDigest
		}
	}
	if err := commitment.VerifyMerkle(s.result.MerkleRoot, len(s.leaves), payload, lp.Proof); err != nil {
		return nil, err
	}
	s.leaves[idx].proofBytes = int64(lp.Size())
	return payload, nil
}

// fetchDigest returns the committed v2 digest of leaf idx, pulling and
// authenticating it on first request.
func (s *leafStore) fetchDigest(idx int) (lsh.Digest, error) {
	l := &s.leaves[idx]
	if l.digest == nil {
		payload, err := s.authenticate(idx, nil)
		if err != nil {
			return nil, fmt.Errorf("checkpoint %d digest not committed: %w", idx, err)
		}
		if l.digest, err = lsh.DecodeDigest(payload); err != nil {
			l.proofBytes = 0 // nothing is owed for a leaf that failed a check
			return nil, reason{fmt.Errorf("checkpoint %d digest malformed: %w", idx, err), ErrNoDigest}
		}
	}
	return l.digest, nil
}

// admit authenticates w as checkpoint idx and remembers it: under v1 its
// encoding is the leaf; under v2 its LSH digest must be exactly the committed
// one (a worker opening the very bytes it hashed always passes; any
// substitution that changes the digest fails). A vector that is not finite is
// refused first, whether opened or bound: no replay is within β of it.
func (s *leafStore) admit(idx int, w tensor.Vector) error {
	if !w.IsFinite() {
		return fmt.Errorf("leaf %d: %w", idx, ErrNonFinite)
	}
	if s.fam == nil {
		s.enc = w.AppendEncode(s.enc[:0])
		if _, err := s.authenticate(idx, s.enc); err != nil {
			return err
		}
	} else {
		committed, err := s.fetchDigest(idx)
		if err != nil {
			return err
		}
		mine, err := s.fam.Hash(w)
		if err != nil {
			return err
		}
		if !slices.Equal(mine, committed) {
			return fmt.Errorf("leaf %d: %w", idx, commitment.ErrMismatch)
		}
	}
	s.leaves[idx].weights = w
	return nil
}

// bind seeds leaf idx with a vector the manager computed itself, after
// checking that it is what the worker committed there. Its proof is charged
// at once: the bindings are part of every verification.
func (s *leafStore) bind(idx int, w tensor.Vector) error {
	err := s.admit(idx, w)
	if err == nil {
		s.charge(idx, false)
	}
	return err
}

// fetchWeights returns checkpoint idx, pulling and authenticating it on
// first request.
func (s *leafStore) fetchWeights(idx int) (tensor.Vector, error) {
	l := &s.leaves[idx]
	if l.weights == nil {
		w, err := s.opener.OpenCheckpoint(idx)
		if err != nil {
			return nil, reason{fmt.Errorf("checkpoint %d not opened: %w", idx, err), ErrNotOpened}
		}
		if err := s.admit(idx, w); err != nil {
			return nil, fmt.Errorf("checkpoint %d opening rejected: %w", idx, err)
		}
		l.weightBytes = int64(tensor.EncodedSize(len(w)))
	}
	return l.weights, nil
}

// charge tallies into the outcome what is owed for leaf idx: its proof, and
// with weights set its checkpoint too.
func (s *leafStore) charge(idx int, weights bool) {
	l := &s.leaves[idx]
	s.out.CommitBytes += l.proofBytes
	s.out.CommBytes += l.proofBytes
	l.proofBytes = 0
	if weights {
		s.out.CommBytes += l.weightBytes
		l.weightBytes = 0
	}
}

// weights returns the authenticated checkpoint idx and charges its bytes.
func (s *leafStore) weights(idx int) (tensor.Vector, error) {
	w, err := s.fetchWeights(idx)
	if err == nil {
		s.charge(idx, true)
	}
	return w, err
}

// digest returns the authenticated committed digest of leaf idx (v2) and
// charges its proof.
func (s *leafStore) digest(idx int) (lsh.Digest, error) {
	d, err := s.fetchDigest(idx)
	if err == nil {
		s.charge(idx, false)
	}
	return d, err
}
