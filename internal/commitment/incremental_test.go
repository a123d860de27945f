package commitment

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"testing"
)

// incrementalRoots pins the roots at leaf counts 1..65 over payloads(65):
// the SHA-256 of their concatenation in count order, as computed by the
// streaming frozen-subtree accumulator this package once had beside the one
// tree build. Holding the tree build to it certifies that the two
// constructions agreed at every count.
const incrementalRoots = "6876ebb36eddcb32d9708542ef7d159fbd3a974a67a66e9d80503ffc11c8ab6e"

// TestIncrementalMatchesBatch pins the streamed leaf path to the batch
// construction: leaves hashed and appended one at a time, then built with
// NewMerkleFromLeaves, give NewMerkleTree's root over the payloads at every
// ragged shape up to 65 leaves (covering odd counts at every level of a
// depth-7 tree), and the sequence of roots is the pinned one.
func TestIncrementalMatchesBatch(t *testing.T) {
	const maxLeaves = 65
	ps := payloads(maxLeaves)
	var leaves []Hash
	pin := sha256.New()
	for n := 1; n <= maxLeaves; n++ {
		leaves = append(leaves, HashLeaf(ps[n-1]))
		streamed, err := NewMerkleFromLeaves(leaves)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		batch, err := NewMerkleTree(ps[:n])
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if streamed.Len() != n {
			t.Fatalf("Len = %d over %d leaves", streamed.Len(), n)
		}
		root := streamed.Root()
		if root != batch.Root() {
			t.Fatalf("n=%d: streamed root diverges from batch root", n)
		}
		pin.Write(root[:])
	}
	if got := hex.EncodeToString(pin.Sum(nil)); got != incrementalRoots {
		t.Errorf("roots at counts 1..%d hash to %s, pinned %s", maxLeaves, got, incrementalRoots)
	}
}

// TestIncrementalTreeProves checks that the tree built over streamed leaves
// serves, at every count up to 65, a proof for every leaf that verifies
// against its root.
func TestIncrementalTreeProves(t *testing.T) {
	const maxLeaves = 65
	ps := payloads(maxLeaves)
	var leaves []Hash
	for n := 1; n <= maxLeaves; n++ {
		leaves = append(leaves, HashLeaf(ps[n-1]))
		tree, err := NewMerkleFromLeaves(leaves)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i, p := range ps[:n] {
			proof, err := tree.Prove(i)
			if err != nil {
				t.Fatalf("n=%d prove %d: %v", n, i, err)
			}
			if err := VerifyMerkle(tree.Root(), n, p, proof); err != nil {
				t.Errorf("n=%d leaf %d: %v", n, i, err)
			}
		}
	}
}

func TestIncrementalEmpty(t *testing.T) {
	if _, err := NewMerkleFromLeaves(nil); !errors.Is(err, ErrEmpty) {
		t.Errorf("NewMerkleFromLeaves err = %v, want ErrEmpty", err)
	}
	if _, err := NewMerkleTree(nil); !errors.Is(err, ErrEmpty) {
		t.Errorf("NewMerkleTree err = %v, want ErrEmpty", err)
	}
}

// TestMerkleSingleLeaf pins the degenerate tree: the root is the leaf hash
// and the only valid proof is empty at index 0.
func TestMerkleSingleLeaf(t *testing.T) {
	payload := []byte("only")
	tree, err := NewMerkleTree([][]byte{payload})
	if err != nil {
		t.Fatal(err)
	}
	proof, err := tree.Prove(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(proof.Siblings) != 0 {
		t.Errorf("single-leaf proof has %d siblings", len(proof.Siblings))
	}
	if err := VerifyMerkle(tree.Root(), 1, payload, proof); err != nil {
		t.Errorf("single leaf: %v", err)
	}
	// A non-empty proof against a single-leaf tree must be rejected by the
	// depth check, whatever its contents.
	padded := MerkleProof{Index: 0, Siblings: []Hash{HashLeaf(payload)}}
	if err := VerifyMerkle(tree.Root(), 1, payload, padded); !errors.Is(err, ErrMismatch) {
		t.Errorf("padded proof: err = %v, want ErrMismatch", err)
	}
}

// TestMerkleOddCountsEveryLevel exercises leaf counts whose binary-carry
// shape leaves an odd node at each interior level (2^d + 1 for d = 0..6),
// where the duplicate-odd pairing rule matters most.
func TestMerkleOddCountsEveryLevel(t *testing.T) {
	for d := 0; d <= 6; d++ {
		n := 1<<d + 1
		ps := payloads(n)
		tree, err := NewMerkleTree(ps)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
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

// TestMerklePhantomIndex reproduces the attack from the VerifyMerkle
// docstring: without the leaf-count/depth contract, a depth-2 proof for
// index 1 would also verify at phantom index 17, whose low path bits match.
// The verifier must reject both the out-of-range index and any proof whose
// depth disagrees with the tree.
func TestMerklePhantomIndex(t *testing.T) {
	ps := payloads(4)
	tree, err := NewMerkleTree(ps)
	if err != nil {
		t.Fatal(err)
	}
	proof, err := tree.Prove(1)
	if err != nil {
		t.Fatal(err)
	}
	phantom := proof
	phantom.Index = 17 // same left/right path bits as index 1 at depth 2
	if err := VerifyMerkle(tree.Root(), 4, ps[1], phantom); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("phantom index: err = %v, want ErrOutOfRange", err)
	}
	// Lying about the leaf count to legitimize the phantom index changes the
	// required depth, so the depth check fires instead.
	if err := VerifyMerkle(tree.Root(), 32, ps[1], phantom); !errors.Is(err, ErrMismatch) {
		t.Errorf("inflated leaf count: err = %v, want ErrMismatch", err)
	}
	// Truncating or extending the path must never verify either.
	short := MerkleProof{Index: 1, Siblings: proof.Siblings[:1]}
	if err := VerifyMerkle(tree.Root(), 4, ps[1], short); !errors.Is(err, ErrMismatch) {
		t.Errorf("truncated proof: err = %v, want ErrMismatch", err)
	}
	long := MerkleProof{Index: 1, Siblings: append(append([]Hash{}, proof.Siblings...), Hash{})}
	if err := VerifyMerkle(tree.Root(), 4, ps[1], long); !errors.Is(err, ErrMismatch) {
		t.Errorf("extended proof: err = %v, want ErrMismatch", err)
	}
}

func TestProofEncodeDecode(t *testing.T) {
	tree, err := NewMerkleTree(payloads(6))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		proof, err := tree.Prove(i)
		if err != nil {
			t.Fatal(err)
		}
		enc := proof.AppendEncode(nil)
		if len(enc) != proof.Size() {
			t.Errorf("leaf %d: encoded %d bytes, Size says %d", i, len(enc), proof.Size())
		}
		got, err := DecodeProof(enc)
		if err != nil {
			t.Fatalf("leaf %d: %v", i, err)
		}
		if got.Index != proof.Index || len(got.Siblings) != len(proof.Siblings) {
			t.Fatalf("leaf %d: round trip changed shape", i)
		}
		for j := range got.Siblings {
			if got.Siblings[j] != proof.Siblings[j] {
				t.Fatalf("leaf %d sibling %d differs", i, j)
			}
		}
	}
}

func TestDecodeProofBounds(t *testing.T) {
	if _, err := DecodeProof(nil); err == nil {
		t.Error("want error for empty proof")
	}
	if _, err := DecodeProof(make([]byte, 7)); err == nil {
		t.Error("want error for short header")
	}
	// A header declaring a huge depth must be rejected before allocation.
	huge := []byte{0, 0, 0, 1, 0x7F, 0xFF, 0xFF, 0xFF}
	if _, err := DecodeProof(huge); err == nil {
		t.Error("want error for absurd depth")
	}
	// Declared depth must match the buffer exactly.
	tree, err := NewMerkleTree(payloads(4))
	if err != nil {
		t.Fatal(err)
	}
	proof, err := tree.Prove(0)
	if err != nil {
		t.Fatal(err)
	}
	enc := proof.AppendEncode(nil)
	if _, err := DecodeProof(enc[:len(enc)-1]); err == nil {
		t.Error("want error for truncated siblings")
	}
	if _, err := DecodeProof(append(enc, 0)); err == nil {
		t.Error("want error for trailing bytes")
	}
}
