package nn

import (
	"testing"

	"rpol/internal/parallel"
	"rpol/internal/tensor"
)

// TestTrainStepSteadyStateAllocFree pins the training runtime at zero
// steady-state allocations, on a dense stack and on a stack of every layer
// kind: after warmup (arena chunks grown, optimizer state built) a training
// step must not touch the heap. An alloc regression on the hot path then
// fails here in CI rather than surfacing later as a mystery in a benchmark
// re-record.
//
// The guard runs the serial (nil pool) trainer: worker goroutine spawning in
// parallel.Pool allocates by design, and the kernels take the direct call
// path at Workers() <= 1.
func TestTrainStepSteadyStateAllocFree(t *testing.T) {
	rng := tensor.NewRNG(21)
	dense, err := NewNetwork(
		NewDense(64, 96, rng), NewReLU(96), NewDense(96, 10, rng),
	)
	if err != nil {
		t.Fatal(err)
	}
	for name, net := range map[string]*Network{"dense": dense, "every layer kind": convNet(t, 21)} {
		bt, err := NewBatchTrainer(net, nil)
		if err != nil {
			t.Fatal(err)
		}
		xs, labels := batchData(8, 64, 22)
		opt := &SGDM{LR: 0.01, Momentum: 0.9}
		for i := 0; i < 3; i++ {
			if _, err := bt.TrainBatch(xs, labels, opt); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := bt.TrainBatch(xs, labels, opt); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: TrainBatch allocates %.0f per step after warmup, want 0", name, allocs)
		}
	}
}

// TestTrainStepPooledSteadyStateAllocs bounds the pooled trainer: beyond the
// per-call goroutine fan-out in parallel.Pool (a handful of allocations per
// kernel launch, independent of model and batch size), nothing on the path
// may allocate.
func TestTrainStepPooledSteadyStateAllocs(t *testing.T) {
	rng := tensor.NewRNG(23)
	net, err := NewNetwork(
		NewDense(64, 96, rng), NewReLU(96), NewDense(96, 10, rng),
	)
	if err != nil {
		t.Fatal(err)
	}
	bt, err := NewBatchTrainer(net, parallel.New(4))
	if err != nil {
		t.Fatal(err)
	}
	xs, labels := batchData(8, 64, 24)
	opt := &SGDM{LR: 0.01, Momentum: 0.9}
	for i := 0; i < 3; i++ {
		if _, err := bt.TrainBatch(xs, labels, opt); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := bt.TrainBatch(xs, labels, opt); err != nil {
			t.Fatal(err)
		}
	})
	// 6 pooled kernel launches per step (2 dense layers × 3 kernels), each
	// spawning at most 4 workers plus closure/waitgroup bookkeeping.
	const maxPooledAllocs = 6 * 8
	if allocs > maxPooledAllocs {
		t.Errorf("pooled GEMM TrainBatch allocates %.0f per step after warmup, want <= %d",
			allocs, maxPooledAllocs)
	}
}
