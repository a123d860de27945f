package rpol_test

// The benchmark harness: one benchmark per table and figure of the paper's
// evaluation (Sec. VII), each regenerating the corresponding artifact
// through the experiment runners, plus micro-benchmarks for the protocol's
// hot paths (LSH hashing, commitments, verification, training steps).
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// Individual artifacts:
//
//	go test -bench=BenchmarkFig5Calibration -benchmem

import (
	"fmt"
	"runtime"
	"testing"

	rpolapi "rpol"
	"rpol/internal/commitment"
	"rpol/internal/experiments"
	"rpol/internal/gpu"
	"rpol/internal/lsh"
	"rpol/internal/nn"
	"rpol/internal/parallel"
	"rpol/internal/tensor"
)

func BenchmarkFig1LSHCurves(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := rpolapi.Fig1(rpolapi.Fig1Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3AMLayerCurves(b *testing.B) {
	opts := rpolapi.Fig3Options{
		Tasks: []string{"resnet18-cifar10"}, Epochs: 3, StepsPerEpoch: 10,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rpolapi.Fig3(opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1AMLayer(b *testing.B) {
	opts := rpolapi.Table1Options{
		Tasks: []string{"resnet18-cifar10"}, Epochs: 3, StepsPerEpoch: 10, AttackAddresses: 3,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rpolapi.Table1(opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4ReproErrors(b *testing.B) {
	opts := rpolapi.Fig4Options{Shards: 2, StepsPerEpoch: 20}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rpolapi.Fig4(opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5Calibration(b *testing.B) {
	opts := rpolapi.Fig5Options{Tasks: []string{"resnet18-cifar10"}, Epochs: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rpolapi.Fig5(opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6Accuracy(b *testing.B) {
	opts := rpolapi.Fig6Options{
		Tasks:              []string{"resnet18-cifar10"},
		AdversaryFractions: []float64{0.5},
		Epochs:             2,
		NumWorkers:         4,
		StepsPerEpoch:      10,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rpolapi.Fig6(opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2EpochTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := rpolapi.Table2(rpolapi.Table2Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3Overhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := rpolapi.Table3(rpolapi.Table3Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSoundnessQ(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := rpolapi.Soundness(experiments.SoundnessOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationCommitment(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.CommitmentAblation(nil, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationDoubleCheck(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.DoubleCheckAblation("", 2, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationIntervalSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.IntervalSweep("", []int{5, 10}, 1, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// Micro-benchmarks for the protocol's hot paths.

// kernelPaths runs a benchmark on the portable kernels and on the host's
// vector kernels (the portable ones again where the host has none): the two
// give the same bits, so only the time differs.
func kernelPaths(b *testing.B, bench func(b *testing.B)) {
	for _, path := range []struct {
		name     string
		portable bool
	}{{"portable", true}, {"simd", false}} {
		b.Run(path.name, func(b *testing.B) {
			defer tensor.SetPortable(tensor.SetPortable(path.portable))
			bench(b)
		})
	}
}

func BenchmarkLSHHash(b *testing.B) {
	const dim = 4096
	fam, err := lsh.NewFamily(dim, lsh.Params{R: 1, K: 4, L: 4}, 1)
	if err != nil {
		b.Fatal(err)
	}
	x := tensor.NewRNG(2).NormalVector(dim, 0, 1)
	kernelPaths(b, func(b *testing.B) {
		b.SetBytes(int64(8 * dim))
		for i := 0; i < b.N; i++ {
			if _, err := fam.Hash(x); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkCommitmentHashList(b *testing.B) {
	payloads := make([][]byte, 64)
	for i := range payloads {
		payloads[i] = make([]byte, 1024)
		payloads[i][0] = byte(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := commitment.NewHashList(payloads); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCommitmentMerkle(b *testing.B) {
	payloads := make([][]byte, 64)
	for i := range payloads {
		payloads[i] = make([]byte, 1024)
		payloads[i][0] = byte(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree, err := commitment.NewMerkleTree(payloads)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := tree.Prove(31); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDeviceNoise(b *testing.B) {
	device, err := gpu.NewDevice(gpu.G3090, 1)
	if err != nil {
		b.Fatal(err)
	}
	w := tensor.NewVector(4096)
	kernelPaths(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			device.Perturb(w)
		}
	})
}

func BenchmarkPoolEpochV2(b *testing.B) {
	p, err := rpolapi.NewPool(rpolapi.PoolConfig{
		TaskName:      "resnet18-cifar10",
		Scheme:        rpolapi.SchemeV2,
		NumWorkers:    4,
		StepsPerEpoch: 10,
		Seed:          1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.RunEpoch(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPoolEpochBaseline(b *testing.B) {
	p, err := rpolapi.NewPool(rpolapi.PoolConfig{
		TaskName:      "resnet18-cifar10",
		Scheme:        rpolapi.SchemeBaseline,
		NumWorkers:    4,
		StepsPerEpoch: 10,
		Seed:          1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.RunEpoch(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainStep measures one batch optimization step: the per-example
// Network.TrainBatch oracle ("serial", which no protocol path runs on a dense
// network any more) against nn.BatchTrainer, the whole-batch runtime, with no
// pool ("batched") and over a parallel.Pool of 1 and NumCPU workers. Every
// variant is bit-identical to "serial". The pool variants run the same
// whole-batch step as "batched" and split only each layer's GEMM kernels
// across the pool's workers: on a multi-core host those kernels spread
// across cores, while on a single-core host the delta is pure scheduling
// overhead.
func BenchmarkTrainStep(b *testing.B) {
	const dim, hidden, classes, batch = 256, 512, 10, 32
	build := func() *nn.Network {
		rng := tensor.NewRNG(7)
		net, err := nn.NewNetwork(
			nn.NewDense(dim, hidden, rng),
			nn.NewReLU(hidden),
			nn.NewDense(hidden, classes, rng),
		)
		if err != nil {
			b.Fatal(err)
		}
		return net
	}
	rng := tensor.NewRNG(8)
	xs := make([]tensor.Vector, batch)
	labels := make([]int, batch)
	for i := range xs {
		xs[i] = rng.NormalVector(dim, 0, 1)
		labels[i] = i % classes
	}

	b.Run("serial", func(b *testing.B) {
		net := build()
		opt := &nn.SGDM{LR: 0.01, Momentum: 0.9}
		if _, err := net.TrainBatch(xs, labels, opt); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := net.TrainBatch(xs, labels, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
	// "batched" is the whole-batch GEMM fast path with no pool at all: a
	// dense stack drives its own layers through the blocked kernels,
	// bit-identical to "serial" at any batch size.
	b.Run("batched", func(b *testing.B) {
		net := build()
		bt, err := nn.NewBatchTrainer(net, nil)
		if err != nil {
			b.Fatal(err)
		}
		opt := &nn.SGDM{LR: 0.01, Momentum: 0.9}
		if _, err := bt.TrainBatch(xs, labels, opt); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := bt.TrainBatch(xs, labels, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
	variants := []int{1}
	if n := runtime.NumCPU(); n > 1 {
		variants = append(variants, n)
	}
	for _, workers := range variants {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			net := build()
			bt, err := nn.NewBatchTrainer(net, parallel.New(workers))
			if err != nil {
				b.Fatal(err)
			}
			opt := &nn.SGDM{LR: 0.01, Momentum: 0.9}
			// Warm up: the first step grows the network's scratch arena to
			// the batch.
			if _, err := bt.TrainBatch(xs, labels, opt); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := bt.TrainBatch(xs, labels, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPoolEpochV2Workers is BenchmarkPoolEpochV2 with the process
// compute setting sized to the host: every trainer the pool builds — each
// worker's, the calibration probes' and the verifier's replay — spreads its
// batch GEMM kernels over NumCPU goroutines. Protocol results are
// bit-identical at every setting.
func BenchmarkPoolEpochV2Workers(b *testing.B) {
	prev := parallel.DefaultWorkers()
	rpolapi.SetDefaultWorkers(runtime.NumCPU())
	b.Cleanup(func() { rpolapi.SetDefaultWorkers(prev) })
	p, err := rpolapi.NewPool(rpolapi.PoolConfig{
		TaskName:      "resnet18-cifar10",
		Scheme:        rpolapi.SchemeV2,
		NumWorkers:    4,
		StepsPerEpoch: 10,
		Seed:          1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.RunEpoch(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationSamplingSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.SamplingSweep(experiments.SamplingSweepOptions{Trials: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationOptimizerSweep(b *testing.B) {
	opts := experiments.OptimizerSweepOptions{Optimizers: []string{"sgd", "sgdm"}, Runs: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.OptimizerSweep(opts); err != nil {
			b.Fatal(err)
		}
	}
}
