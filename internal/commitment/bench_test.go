package commitment

import (
	"encoding/binary"
	"testing"
)

// benchLeaves is the benchmark epoch size: 64 checkpoints, the BENCH_pr9
// reference point for the hash-list vs Merkle comparison.
const benchLeaves = 64

func benchPayloads() [][]byte {
	payloads := make([][]byte, benchLeaves)
	for i := range payloads {
		p := make([]byte, 128)
		binary.LittleEndian.PutUint64(p, uint64(i)*0x9e3779b97f4a7c15)
		payloads[i] = p
	}
	return payloads
}

// BenchmarkMerkleTreeBuild measures the commitment over one epoch's
// payloads: the leaf hashes a worker pays as checkpoints land, plus the one
// tree build it runs at epoch end.
func BenchmarkMerkleTreeBuild(b *testing.B) {
	payloads := benchPayloads()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewMerkleTree(payloads); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMerkleProveVerify measures one verifier pull: open a leaf of the
// 64-leaf tree and check the inclusion proof against the root.
func BenchmarkMerkleProveVerify(b *testing.B) {
	payloads := benchPayloads()
	tree, err := NewMerkleTree(payloads)
	if err != nil {
		b.Fatal(err)
	}
	root := tree.Root()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx := i % benchLeaves
		proof, err := tree.Prove(idx)
		if err != nil {
			b.Fatal(err)
		}
		if err := VerifyMerkle(root, benchLeaves, payloads[idx], proof); err != nil {
			b.Fatal(err)
		}
	}
}
