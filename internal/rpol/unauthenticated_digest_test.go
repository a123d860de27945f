package rpol

import (
	"errors"
	"testing"

	"rpol/internal/commitment"
	"rpol/internal/tensor"
)

// forgedDigestOpener serves the honest digest but with a garbage Merkle
// proof — a worker answering adaptively with material never committed.
type forgedDigestOpener struct {
	inner ProofOpener
}

func (o *forgedDigestOpener) OpenCheckpoint(idx int) (tensor.Vector, error) {
	return o.inner.OpenCheckpoint(idx)
}

func (o *forgedDigestOpener) OpenProof(idx int) (LeafProof, error) {
	lp, err := o.inner.OpenProof(idx)
	if err != nil {
		return lp, err
	}
	// Zero the siblings: this proof does NOT authenticate against the root.
	for i := range lp.Proof.Siblings {
		lp.Proof.Siblings[i] = commitment.Hash{}
	}
	return lp, nil
}

// TestCompareLSHRejectsUnauthenticatedDigest is the regression for the hole
// PR 9's review found: under the Merkle commitment the v2 compare decoded and
// fuzzy-matched the digest riding with a pulled proof without ever checking
// the proof against the root, so a worker could commit garbage and answer
// the sampled output leaves adaptively. No byte of the digest may reach the
// verdict — or the byte tallies — before VerifyMerkle accepts it.
func TestCompareLSHRejectsUnauthenticatedDigest(t *testing.T) {
	worker, result, _, verifier, _ := buildHonestSetup(t, SchemeV2)
	opener := &forgedDigestOpener{inner: worker}
	lp, err := opener.OpenProof(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := commitment.VerifyMerkle(result.MerkleRoot, result.NumCheckpoints, lp.Digest, lp.Proof); err == nil {
		t.Fatal("sanity: zeroed-sibling proof unexpectedly verifies")
	}
	// The honest output checkpoint stands in for a perfect re-execution, so
	// the forged proof is the only thing wrong with this interval.
	reexec, err := worker.OpenCheckpoint(1)
	if err != nil {
		t.Fatal(err)
	}
	mine, err := verifier.LSH.Hash(reexec)
	if err != nil {
		t.Fatal(err)
	}
	out := &VerifyOutcome{}
	st := &verifier.store
	st.reset(opener, result, verifier.LSH, result.NumCheckpoints, out)
	ok, err := verifier.compare(st, 0, replayed{weights: reexec, digest: mine}, out, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.leaves[1].digest != nil || st.leaves[1].proofBytes != 0 {
		t.Error("the store remembered an unauthenticated digest")
	}
	if ok {
		t.Fatal("compare accepted a digest whose Merkle proof does not verify against the committed root")
	}
	if !errors.Is(out.FailReason, commitment.ErrMismatch) {
		t.Errorf("FailReason = %q, want the digest reported as not committed", out.FailReason)
	}
	if out.CommBytes != 0 || out.CommitBytes != 0 {
		t.Errorf("unauthenticated pull tallied %d comm / %d commit bytes, want 0", out.CommBytes, out.CommitBytes)
	}
}
