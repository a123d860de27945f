package rpol

import (
	"reflect"
	"runtime/debug"
	"testing"

	"rpol/internal/gpu"
	"rpol/internal/modelzoo"
	"rpol/internal/nn"
	"rpol/internal/tensor"
)

// TestTraceOwnsItsCheckpoints pins the trainer's buffer ownership: every
// checkpoint of a trace is its own buffer — not the next interval's input,
// not the network's storage — and the Sink is handed each of them once.
func TestTraceOwnsItsCheckpoints(t *testing.T) {
	net, ds := testTask(t, 3)
	p := testParams(net.ParamVector())
	trainer := &Trainer{Net: net, Shard: ds}
	seen := map[*float64]int{}
	trainer.Sink = func(idx, step int, w tensor.Vector) error {
		seen[&w[0]]++
		return nil
	}
	trace, err := trainer.RunEpoch(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(trace.Checkpoints) {
		t.Errorf("sink saw %d distinct buffers for %d checkpoints", len(seen), len(trace.Checkpoints))
	}
	for i, c := range trace.Checkpoints {
		if seen[&c[0]] != 1 {
			t.Errorf("checkpoint %d reached the sink %d times, want once as the trace's own buffer", i, seen[&c[0]])
		}
		if &c[0] == &p.Global[0] {
			t.Errorf("checkpoint %d aliases the task's global vector", i)
		}
	}
	want := make([]tensor.Vector, len(trace.Checkpoints))
	for i, c := range trace.Checkpoints {
		want[i] = c.Clone()
	}
	params := net.ParamVector()
	for i, c := range trace.Checkpoints {
		c.Fill(float64(-1 - i))
		for j := i + 1; j < len(trace.Checkpoints); j++ {
			if !trace.Checkpoints[j].Equal(want[j], 0) {
				t.Fatalf("mutating checkpoint %d changed checkpoint %d", i, j)
			}
		}
		if !net.ParamVector().Equal(params, 0) {
			t.Fatalf("mutating checkpoint %d changed the network's parameters", i)
		}
	}
}

// TestRunEpochAllocatesOneVectorPerCheckpoint guards the trainer's steady
// state: past its first epoch RunEpoch allocates one model vector per
// checkpoint plus a constant — nothing per step, and nothing per interval
// beyond the interval's output.
func TestRunEpochAllocatesOneVectorPerCheckpoint(t *testing.T) {
	spec, err := modelzoo.Get("resnet18-cifar10")
	if err != nil {
		t.Fatal(err)
	}
	trainer, _, p := zooRun(t, spec, 0)
	// The counts compared below are exact, so keep the collector's own
	// bookkeeping allocations out of them.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := func(steps, every int) (float64, int) {
		p.Steps, p.CheckpointEvery = steps, every
		return testing.AllocsPerRun(5, func() {
			if _, err := trainer.RunEpoch(p); err != nil {
				t.Fatal(err)
			}
		}), p.NumCheckpoints()
	}
	base, baseCkpts := allocs(12, 3)
	moreSteps, _ := allocs(24, 6)
	if moreSteps != base {
		t.Errorf("RunEpoch allocates %.0f times over 12 steps but %.0f over 24 with as many checkpoints: the step loop allocates", base, moreSteps)
	}
	moreCkpts, ckpts := allocs(24, 3)
	if got, want := moreCkpts-base, float64(ckpts-baseCkpts); got != want {
		t.Errorf("%d more checkpoints cost %.0f more allocations, want one vector each", ckpts-baseCkpts, got)
	}
	if fixed := base - float64(baseCkpts); fixed > 24 {
		t.Errorf("RunEpoch allocates %.0f times besides its checkpoints, want a small constant", fixed)
	}
}

// TestParallelVerifierSlotReuse runs consecutive submissions, honest and
// tampered, with different sample counts through one verifier and through a
// fresh verifier per submission, each handed a device of the same seed: the
// outcomes must be equal, and the reused verifier must replay every
// submission on the one trainer (and runtime) it keeps — until its network is
// swapped, when it must rebuild them on the new one.
func TestParallelVerifierSlotReuse(t *testing.T) {
	netW, ds := testTask(t, 10)
	worker, err := NewHonestWorker("w1", gpu.GA10, 101, netW, ds)
	if err != nil {
		t.Fatal(err)
	}
	p := testParams(netW.ParamVector())
	p.Steps = 30
	netC, _ := testTask(t, 10)
	cal := &Calibrator{Net: netC, Shard: ds, XFactor: 5, KLsh: 16}
	calOut, fam, err := cal.Calibrate(p, gpu.G3090, gpu.GA10, [2]int64{5, 6}, 7)
	if err != nil {
		t.Fatal(err)
	}
	p.LSH = fam
	honest, err := worker.RunEpoch(p)
	if err != nil {
		t.Fatal(err)
	}
	forged, tampered := tamperedSubmission(t, worker, honest, p, fam, 2)

	newVerifier := func(net *nn.Network) *Verifier {
		return &Verifier{Scheme: SchemeV2, Net: net, Beta: calOut.Beta, LSH: fam, Workers: 2}
	}
	netV, _ := testTask(t, 10)
	reused := newVerifier(netV)
	submissions := []struct {
		samples  int
		opener   ProofOpener
		result   *EpochResult
		accepted bool
		swapNet  bool
	}{
		{samples: 2, opener: worker, result: honest, accepted: true},
		{samples: 5, opener: forged, result: tampered, accepted: false},
		{samples: 3, opener: worker, result: honest, accepted: true},
		{samples: 4, opener: worker, result: honest, accepted: true, swapNet: true},
	}
	var trainer *Trainer
	var runtime *nn.BatchTrainer
	for i, s := range submissions {
		if s.swapNet {
			reused.Net, _ = testTask(t, 10)
		}
		fresh := newVerifier(reused.Net)
		for _, v := range []*Verifier{reused, fresh} {
			v.Samples, v.Sampler = s.samples, tensor.NewRNG(int64(42+i))
			if v.Device, err = gpu.NewDevice(gpu.G3090, 999); err != nil {
				t.Fatal(err)
			}
		}
		got, err := reused.VerifySubmission(s.opener, ds, s.result, p)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.VerifySubmission(s.opener, ds, s.result, p)
		if err != nil {
			t.Fatal(err)
		}
		if got.Accepted != s.accepted {
			t.Errorf("submission %d: accepted = %v (%s), want %v", i, got.Accepted, got.FailReason, s.accepted)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("submission %d: reused verifier %+v, fresh verifier %+v", i, got, want)
		}
		switch rt := reused.trainer; {
		case rt == nil || rt.Net != reused.Net || rt.bt == nil:
			t.Errorf("submission %d: replay trainer %+v is not a built runtime on the verifier's net", i, rt)
		case s.swapNet && (rt == trainer || rt.bt == runtime):
			t.Errorf("submission %d: the trainer for the old net replayed on the new one", i)
		case !s.swapNet && trainer != nil && (rt != trainer || rt.bt != runtime):
			t.Errorf("submission %d: the verifier rebuilt its replay trainer or runtime", i)
		}
		trainer, runtime = reused.trainer, reused.trainer.bt
	}
}
