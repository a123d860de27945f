package wire

import (
	"testing"

	"rpol/internal/commitment"
	"rpol/internal/lsh"
	"rpol/internal/rpol"
	"rpol/internal/tensor"
)

// benchDim matches the verification benchmarks' weight-vector size, so the
// codec numbers are comparable with the protocol-level transfer accounting.
const benchDim = 4096

func benchTaskParams(b *testing.B) rpol.TaskParams {
	b.Helper()
	p := rpol.TaskParams{
		Epoch:           3,
		Global:          tensor.NewRNG(21).NormalVector(benchDim, 0, 1),
		Hyper:           rpol.Hyper{Optimizer: "sgdm", LR: 0.01, BatchSize: 8},
		Nonce:           7,
		Steps:           40,
		CheckpointEvery: 10,
	}
	fam, err := lsh.NewFamily(benchDim, lsh.Params{R: 1, K: 4, L: 4}, 5)
	if err != nil {
		b.Fatal(err)
	}
	p.LSH = fam
	return p
}

func benchEpochResult(b *testing.B) *rpol.EpochResult {
	b.Helper()
	res := &rpol.EpochResult{
		WorkerID:       "w-bench",
		Epoch:          3,
		Update:         tensor.NewRNG(22).NormalVector(benchDim, 0, 1),
		DataSize:       256,
		NumCheckpoints: 64,
	}
	for i := range res.MerkleRoot {
		res.MerkleRoot[i] = byte(i * 7)
	}
	return res
}

// BenchmarkEncodeTask measures the binary task encode with a warm reused
// buffer — a RemoteWorker's steady state.
func BenchmarkEncodeTask(b *testing.B) {
	p := benchTaskParams(b)
	buf, err := AppendTask(nil, p)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err = AppendTask(buf[:0], p)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeTask measures the binary task decode (the worker's receive
// path; the trailing weight vector dominates). The task carries no LSH
// family: rebuilding one regenerates its random projections, which would
// swamp the codec cost this benchmark isolates.
func BenchmarkDecodeTask(b *testing.B) {
	p := benchTaskParams(b)
	p.LSH = nil
	data, err := EncodeTask(p)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeTask(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncodeResult measures the binary result encode with a warm reused
// buffer — the WorkerServer reply steady state. The 32-byte root is the whole
// commitment, so the frame is dominated by the update vector regardless of
// checkpoint count.
func BenchmarkEncodeResult(b *testing.B) {
	res := benchEpochResult(b)
	buf, err := AppendResult(nil, res)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err = AppendResult(buf[:0], res)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeResult measures the binary result decode (the manager's
// collect path).
func BenchmarkDecodeResult(b *testing.B) {
	data, err := AppendResult(nil, benchEpochResult(b))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeResult(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncodeProofResponse measures one proof-pull answer: an inclusion
// proof for a 64-leaf tree (6 siblings) plus a v2 digest blob.
func BenchmarkEncodeProofResponse(b *testing.B) {
	payloads := make([][]byte, 64)
	for i := range payloads {
		d := lsh.Digest{uint64(i), uint64(i * 3)}
		payloads[i] = d.Encode()
	}
	tree, err := commitment.NewMerkleTree(payloads)
	if err != nil {
		b.Fatal(err)
	}
	proof, err := tree.Prove(17)
	if err != nil {
		b.Fatal(err)
	}
	lp := rpol.LeafProof{Proof: proof, Digest: payloads[17]}
	buf := AppendProofResponse(nil, 17, "", lp)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendProofResponse(buf[:0], 17, "", lp)
	}
}
