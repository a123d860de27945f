package rpol

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"sort"
	"testing"

	"rpol/internal/dataset"
	"rpol/internal/gpu"
	"rpol/internal/modelzoo"
	"rpol/internal/nn"
	"rpol/internal/prf"
	"rpol/internal/tensor"
)

// zooParams is a short epoch at the proxy's own batch size: three full
// intervals and a ragged fourth.
func zooParams(spec modelzoo.TaskSpec, global tensor.Vector) TaskParams {
	return TaskParams{
		Global:          global,
		Hyper:           Hyper{Optimizer: "sgdm", LR: 0.02, BatchSize: spec.ProxyBatchSize},
		Nonce:           0x5eed,
		Steps:           11,
		CheckpointEvery: 3,
	}
}

// zooRun trains one epoch of the spec's proxy on a fresh network and device.
func zooRun(t *testing.T, spec modelzoo.TaskSpec, workers int) (*Trainer, *Trace, TaskParams) {
	t.Helper()
	net, train, _, err := spec.BuildProxy(21)
	if err != nil {
		t.Fatal(err)
	}
	device, err := gpu.NewDevice(gpu.G3090, 5)
	if err != nil {
		t.Fatal(err)
	}
	p := zooParams(spec, net.ParamVector())
	p.Workers = workers
	trainer := &Trainer{Net: net, Shard: train, Device: device}
	trace, err := trainer.RunEpoch(p)
	if err != nil {
		t.Fatal(err)
	}
	return trainer, trace, p
}

// oracleEpoch is the reference the runtime must reproduce bit for bit: the
// per-example Network.TrainBatch over batches selected one DataIndex at a
// time, the optimizer reset at every checkpoint, one Perturb per tensor at
// (nonce, step, tensor ordinal).
func oracleEpoch(t *testing.T, net *nn.Network, shard *dataset.Dataset, device *gpu.Device, p TaskParams) []tensor.Vector {
	t.Helper()
	if err := net.SetParamVector(p.Global); err != nil {
		t.Fatal(err)
	}
	checkpoints := []tensor.Vector{p.Global.Clone()}
	schedule := prf.NewFromNonce(p.Nonce)
	var opt nn.Optimizer
	for step := 0; step < p.Steps; step++ {
		if step%p.CheckpointEvery == 0 {
			var err error
			if opt, err = nn.NewOptimizer(p.Hyper.Optimizer, p.Hyper.LR); err != nil {
				t.Fatal(err)
			}
		}
		xs := make([]tensor.Vector, p.Hyper.BatchSize)
		labels := make([]int, p.Hyper.BatchSize)
		for n := range xs {
			idx, err := schedule.DataIndex(step, n, shard.Len())
			if err != nil {
				t.Fatal(err)
			}
			xs[n], labels[n] = shard.Examples[idx].Features, shard.Examples[idx].Label
		}
		if _, err := net.TrainBatch(xs, labels, opt); err != nil {
			t.Fatal(err)
		}
		for i, param := range net.Params() {
			device.Seek(uint64(p.Nonce), step, i)
			device.Perturb(param)
		}
		if (step+1)%p.CheckpointEvery == 0 || step+1 == p.Steps {
			checkpoints = append(checkpoints, net.ParamVector())
		}
	}
	return checkpoints
}

// TestDenseProxiesOneRuntime: every dense zoo proxy trains to the same bits
// at Workers 0, 1 and 4, through RunEpoch and through a verifier-style
// ExecuteInterval replay, and those bits are the per-example oracle's.
func TestDenseProxiesOneRuntime(t *testing.T) {
	registry := modelzoo.Registry()
	names := make([]string, 0, len(registry))
	for name, spec := range registry {
		if !spec.ProxyConv {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		spec := registry[name]
		t.Run(name, func(t *testing.T) {
			net, train, _, err := spec.BuildProxy(21)
			if err != nil {
				t.Fatal(err)
			}
			if !net.BatchCapable() {
				t.Fatal("dense proxy is not batch-capable")
			}
			device, err := gpu.NewDevice(gpu.G3090, 5)
			if err != nil {
				t.Fatal(err)
			}
			want := oracleEpoch(t, net, train, device, zooParams(spec, net.ParamVector()))
			var trainer *Trainer
			var trace *Trace
			var p TaskParams
			for _, workers := range []int{0, 1, 4} {
				trainer, trace, p = zooRun(t, spec, workers)
				if len(trace.Checkpoints) != len(want) {
					t.Fatalf("workers=%d: %d checkpoints, oracle has %d", workers, len(trace.Checkpoints), len(want))
				}
				for i, c := range trace.Checkpoints {
					if !c.Equal(want[i], 0) {
						t.Fatalf("workers=%d: checkpoint %d differs from the TrainBatch oracle", workers, i)
					}
				}
			}
			// Replay the second interval noiselessly at each worker count on
			// one trainer, the way a verifier re-enters it: same bits again.
			trainer.Device = nil
			var first tensor.Vector
			for _, workers := range []int{0, 1, 4} {
				trainer.SetWorkers(workers)
				got, err := trainer.ExecuteInterval(trace.Checkpoints[1], trace.Steps[1], p.CheckpointEvery, p.Hyper, p.Nonce)
				if err != nil {
					t.Fatal(err)
				}
				if first == nil {
					first = got
				} else if !got.Equal(first, 0) {
					t.Errorf("replay at workers=%d differs from replay at workers=0", workers)
				}
			}
		})
	}
}

// TestConvProxyRuntimesUnchanged pins the conv proxy's trace at Workers 0
// (per-example TrainBatch) and Workers 1 (chunked replicas): conv has no
// BatchLayer yet, its two paths round differently, and neither may move. The
// digests were taken on the commit before the dense runtimes merged and
// re-pinned once when device noise became a keyed draw.
func TestConvProxyRuntimesUnchanged(t *testing.T) {
	spec, err := modelzoo.Get("resnet18-cifar10-conv")
	if err != nil {
		t.Fatal(err)
	}
	pinned := map[int]string{
		0: "1be48d9ff3015e5b31701dfaa5c4806b",
		1: "abca31b8f3ad84ab5babdd42a299498d",
	}
	for _, workers := range []int{0, 1} {
		trainer, trace, _ := zooRun(t, spec, workers)
		if trainer.Net.BatchCapable() {
			t.Fatal("conv proxy reports batch-capable; fold it into TestDenseProxiesOneRuntime and drop the fork")
		}
		h := sha256.New()
		for _, c := range trace.Checkpoints {
			h.Write(c.Encode())
		}
		got := hex.EncodeToString(h.Sum(nil)[:16])
		if runtime.GOARCH != "amd64" {
			t.Logf("workers=%d: digest %s (pinned on amd64 only: other targets may fuse multiply-adds)", workers, got)
		} else if got != pinned[workers] {
			t.Errorf("workers=%d: conv trace digest %s, want %s", workers, got, pinned[workers])
		}
	}
}

// TestExecuteIntervalAllocsIndependentOfSteps guards the step loop at
// Workers 0: once the runtime is built an interval allocates the returned
// vector and nothing else (optimizer state is reset in place, the PRF is
// kept per nonce) — the same count for 2 steps as for 40, so nothing per
// step and nothing per example.
func TestExecuteIntervalAllocsIndependentOfSteps(t *testing.T) {
	spec, err := modelzoo.Get("resnet18-cifar10")
	if err != nil {
		t.Fatal(err)
	}
	trainer, trace, p := zooRun(t, spec, 0)
	allocs := func(steps int) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := trainer.ExecuteInterval(trace.Checkpoints[0], 0, steps, p.Hyper, p.Nonce); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := allocs(2), allocs(40)
	if short != long {
		t.Errorf("ExecuteInterval allocates %.0f times over 2 steps but %.0f over 40: the step loop allocates", short, long)
	}
	if long > 4 {
		t.Errorf("ExecuteInterval allocates %.0f times per interval, want its output vector and little else", long)
	}
}
