package commitment

import "testing"

// FuzzVerifyMerkle drives Merkle proof verification with hostile proofs.
func FuzzVerifyMerkle(f *testing.F) {
	tree, err := NewMerkleTree([][]byte{[]byte("x"), []byte("y"), []byte("z")})
	if err != nil {
		f.Fatal(err)
	}
	root := tree.Root()
	proof, err := tree.Prove(1)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(1, []byte("y"), proof.Siblings[0][:], proof.Siblings[1][:])
	f.Add(0, []byte(""), []byte{}, []byte{})
	f.Fuzz(func(t *testing.T, idx int, payload, sib1, sib2 []byte) {
		p := MerkleProof{Index: idx}
		var h1, h2 Hash
		copy(h1[:], sib1)
		copy(h2[:], sib2)
		p.Siblings = []Hash{h1, h2}
		// Must never panic; acceptance only for the genuine (payload,
		// proof) pair.
		err := VerifyMerkle(root, 3, payload, p)
		if err == nil {
			if idx != 1 || string(payload) != "y" {
				t.Fatalf("forged proof accepted at idx %d payload %q", idx, payload)
			}
		}
	})
}

// FuzzMutateMerkleProof starts from a genuine proof and applies a fuzzed
// mutation — flip a sibling bit, shift the index, truncate or extend the
// path. No mutated proof may ever verify: the commitment must bind the
// payload to exactly one (index, path) pair.
func FuzzMutateMerkleProof(f *testing.F) {
	const leaves = 11
	ps := make([][]byte, leaves)
	for i := range ps {
		ps[i] = []byte{byte('a' + i)}
	}
	tree, err := NewMerkleTree(ps)
	if err != nil {
		f.Fatal(err)
	}
	root := tree.Root()
	f.Add(3, 0, 0, uint8(0x01), 0)
	f.Add(10, 1, 5, uint8(0x80), 0)
	f.Add(0, 0, 0, uint8(0), 7)
	f.Add(5, 2, 31, uint8(0), -2)
	f.Fuzz(func(t *testing.T, leaf, sibIdx, byteIdx int, flip uint8, depthDelta int) {
		leaf = int(uint(leaf) % uint(leaves))
		proof, err := tree.Prove(leaf)
		if err != nil {
			t.Fatal(err)
		}
		mutated := false
		if flip != 0 && len(proof.Siblings) > 0 {
			si := int(uint(sibIdx) % uint(len(proof.Siblings)))
			bi := int(uint(byteIdx) % uint(HashSize))
			proof.Siblings[si][bi] ^= flip
			mutated = true
		}
		if depthDelta > 0 {
			proof.Siblings = append(proof.Siblings, make([]Hash, depthDelta%4+1)...)
			mutated = true
		} else if depthDelta < 0 && len(proof.Siblings) > 0 {
			cut := int(uint(-(depthDelta+1))%uint(len(proof.Siblings))) + 1
			proof.Siblings = proof.Siblings[:len(proof.Siblings)-cut]
			mutated = true
		}
		if !mutated {
			// Index shift alone: any wrong index must fail too.
			proof.Index = (proof.Index + 1) % leaves
		}
		if err := VerifyMerkle(root, leaves, ps[leaf], proof); err == nil {
			t.Fatalf("mutated proof verified: leaf=%d sib=%d byte=%d flip=%#x depth=%d",
				leaf, sibIdx, byteIdx, flip, depthDelta)
		}
	})
}

// FuzzDecodeProof drives the proof decoder with arbitrary bytes: it must
// never panic or over-allocate, and anything it accepts must re-encode to
// the same bytes.
func FuzzDecodeProof(f *testing.F) {
	tree, err := NewMerkleTree([][]byte{[]byte("x"), []byte("y"), []byte("z")})
	if err != nil {
		f.Fatal(err)
	}
	proof, err := tree.Prove(2)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(proof.AppendEncode(nil))
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0x7F, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeProof(data)
		if err != nil {
			return
		}
		re := got.AppendEncode(nil)
		if len(re) != len(data) {
			t.Fatalf("round trip length %d != %d", len(re), len(data))
		}
		for i := range re {
			if re[i] != data[i] {
				t.Fatalf("round trip byte %d differs", i)
			}
		}
	})
}
