package commitment

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"
)

func payloads(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte(fmt.Sprintf("checkpoint-%d", i))
	}
	return out
}

func TestHashListCommitVerify(t *testing.T) {
	ps := payloads(5)
	hl, err := NewHashList(ps)
	if err != nil {
		t.Fatal(err)
	}
	if hl.Size() != 5*HashSize {
		t.Errorf("Size = %d", hl.Size())
	}
	for i, p := range ps {
		if err := hl.verifyLeaf(i, p); err != nil {
			t.Errorf("leaf %d: %v", i, err)
		}
	}
}

func TestHashListRejectsTamperedPayload(t *testing.T) {
	hl, err := NewHashList(payloads(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := hl.verifyLeaf(1, []byte("forged")); !errors.Is(err, ErrMismatch) {
		t.Errorf("err = %v, want ErrMismatch", err)
	}
	// Correct payload at wrong index must also fail.
	if err := hl.verifyLeaf(0, []byte("checkpoint-1")); !errors.Is(err, ErrMismatch) {
		t.Errorf("err = %v, want ErrMismatch", err)
	}
}

func TestHashListIndexBounds(t *testing.T) {
	hl, err := NewHashList(payloads(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := hl.verifyLeaf(-1, nil); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("err = %v", err)
	}
	if err := hl.verifyLeaf(2, nil); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("err = %v", err)
	}
}

func TestHashListEmpty(t *testing.T) {
	if _, err := NewHashList(nil); !errors.Is(err, ErrEmpty) {
		t.Errorf("err = %v, want ErrEmpty", err)
	}
}

func TestMerkleCommitVerify(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 8, 13} {
		ps := payloads(n)
		tree, err := NewMerkleTree(ps)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if tree.Len() != n {
			t.Errorf("n=%d: Len = %d", n, tree.Len())
		}
		root := tree.Root()
		for i, p := range ps {
			proof, err := tree.Prove(i)
			if err != nil {
				t.Fatalf("n=%d prove %d: %v", n, i, err)
			}
			if err := VerifyMerkle(root, n, p, proof); err != nil {
				t.Errorf("n=%d leaf %d: %v", n, i, err)
			}
		}
	}
}

func TestMerkleRejectsTampering(t *testing.T) {
	ps := payloads(6)
	tree, err := NewMerkleTree(ps)
	if err != nil {
		t.Fatal(err)
	}
	root := tree.Root()
	proof, err := tree.Prove(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyMerkle(root, 6, []byte("forged"), proof); !errors.Is(err, ErrMismatch) {
		t.Errorf("forged payload: err = %v", err)
	}
	// Proof for a different index must not verify this payload.
	other, err := tree.Prove(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyMerkle(root, 6, ps[2], other); !errors.Is(err, ErrMismatch) {
		t.Errorf("wrong proof: err = %v", err)
	}
	// Tampered sibling breaks verification.
	proof.Siblings[0][0] ^= 0xFF
	if err := VerifyMerkle(root, 6, ps[2], proof); !errors.Is(err, ErrMismatch) {
		t.Errorf("tampered sibling: err = %v", err)
	}
}

func TestMerkleProveBounds(t *testing.T) {
	tree, err := NewMerkleTree(payloads(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tree.Prove(-1); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("err = %v", err)
	}
	if _, err := tree.Prove(3); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("err = %v", err)
	}
	if _, err := NewMerkleTree(nil); !errors.Is(err, ErrEmpty) {
		t.Errorf("err = %v", err)
	}
}

func TestMerkleProofNegativeIndex(t *testing.T) {
	tree, err := NewMerkleTree(payloads(2))
	if err != nil {
		t.Fatal(err)
	}
	proof := MerkleProof{Index: -1}
	if err := VerifyMerkle(tree.Root(), 2, []byte("x"), proof); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("err = %v", err)
	}
}

func TestLeafDomainSeparation(t *testing.T) {
	// A single-leaf tree's root must differ from the raw leaf hash of the
	// same bytes interpreted as an interior node — domain separation.
	tree, err := NewMerkleTree([][]byte{[]byte("data")})
	if err != nil {
		t.Fatal(err)
	}
	if tree.Root() != HashLeaf([]byte("data")) {
		// Single leaf: root IS the leaf hash. Sanity-check that holds.
		t.Error("single-leaf root should equal leaf hash")
	}
}

func TestMerkleSecondPreimageResistance(t *testing.T) {
	// Classic attack: present an interior node as a leaf. With domain
	// separation the interior node bytes hashed as a leaf cannot equal the
	// interior hash.
	ps := payloads(4)
	tree, err := NewMerkleTree(ps)
	if err != nil {
		t.Fatal(err)
	}
	l0 := HashLeaf(ps[0])
	l1 := HashLeaf(ps[1])
	interior := hashNodes(l0, l1)
	// Try to verify the interior node's bytes as a depth-1 "leaf".
	fake := MerkleProof{Index: 0, Siblings: []Hash{hashNodes(HashLeaf(ps[2]), HashLeaf(ps[3]))}}
	if err := VerifyMerkle(tree.Root(), 4, interior[:], fake); err == nil {
		t.Error("interior node accepted as leaf — missing domain separation")
	}
}

// Property: HashList and Merkle agree on membership for random payload sets.
func TestConstructionsAgree(t *testing.T) {
	f := func(raw [][]byte) bool {
		if len(raw) == 0 || len(raw) > 32 {
			return true
		}
		hl, err1 := NewHashList(raw)
		mt, err2 := NewMerkleTree(raw)
		if err1 != nil || err2 != nil {
			return false
		}
		for i, p := range raw {
			if hl.verifyLeaf(i, p) != nil {
				return false
			}
			proof, err := mt.Prove(i)
			if err != nil {
				return false
			}
			if VerifyMerkle(mt.Root(), len(raw), p, proof) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestProofSize(t *testing.T) {
	if got := ProofSize(3); got != 8+3*HashSize {
		t.Errorf("ProofSize = %d", got)
	}
}
