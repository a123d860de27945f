package rpol

import (
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"

	"rpol/internal/dataset"
	"rpol/internal/gpu"
	"rpol/internal/modelzoo"
	"rpol/internal/nn"
	"rpol/internal/tensor"
)

// TestTraceOwnsItsCheckpoints pins the trainer's buffer ownership: every
// checkpoint of a trace is its own buffer — not the next interval's input,
// not the network's storage — and the Sink is handed each of them once. Then
// the recycled path: the trace is handed back, and the next task trains from
// its final checkpoint, as a worker's next epoch may. The new trace must
// refill every other old buffer, leave the task's untouched, and carry the
// bits a fresh trainer produces.
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

	for i, c := range trace.Checkpoints {
		copy(c, want[i])
	}
	p2 := p
	p2.Epoch, p2.Global = 1, trace.Final()
	task := p2.Global.Clone()
	old := map[*float64]bool{}
	for _, c := range trace.Checkpoints {
		old[&c[0]] = true
	}
	trainer.Recycle(trace)
	clear(seen)
	next, err := trainer.RunEpoch(p2)
	if err != nil {
		t.Fatal(err)
	}
	if !p2.Global.Equal(task, 0) {
		t.Error("the recycled epoch wrote the task's global vector")
	}
	freshNet, _ := testTask(t, 3)
	p2.Global = task
	fresh, err := (&Trainer{Net: freshNet, Shard: ds}).RunEpoch(p2)
	if err != nil {
		t.Fatal(err)
	}
	reused := 0
	for i, c := range next.Checkpoints {
		if old[&c[0]] {
			reused++
		}
		if seen[&c[0]] != 1 {
			t.Errorf("recycled checkpoint %d reached the sink %d times, want once", i, seen[&c[0]])
		}
		if !c.Equal(fresh.Checkpoints[i], 0) {
			t.Errorf("recycled checkpoint %d differs from a fresh trainer's", i)
		}
	}
	if want := len(next.Checkpoints) - 1; reused != want {
		t.Errorf("the recycled epoch refilled %d old buffers, want %d: all but the task's", reused, want)
	}
	if trace.Checkpoints != nil {
		t.Error("the recycled trace still holds its checkpoints")
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

	setWorkers(t, 2)
	newVerifier := func(net *nn.Network) *Verifier {
		return &Verifier{Scheme: SchemeV2, Net: net, Beta: calOut.Beta, LSH: fam}
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

// steadyBytes returns the mean heap bytes a call of f allocates once a first,
// warm-up call has given every owner its buffers — testing.AllocsPerRun's
// protocol, counting bytes instead of objects, with the collector off.
func steadyBytes(runs int, f func()) float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// zooOwners builds, on the resnet18 proxy, an honest worker, a calibrator and
// a verifier, each on a network of its own, and a v2 task for them.
func zooOwners(t *testing.T) (*HonestWorker, *Calibrator, *Verifier, TaskParams) {
	t.Helper()
	spec, err := modelzoo.Get("resnet18-cifar10")
	if err != nil {
		t.Fatal(err)
	}
	build := func() (*nn.Network, *dataset.Dataset) {
		net, train, _, err := spec.BuildProxy(21)
		if err != nil {
			t.Fatal(err)
		}
		return net, train
	}
	netW, shard := build()
	worker, err := NewHonestWorker("w", gpu.GA10, 5, netW, shard)
	if err != nil {
		t.Fatal(err)
	}
	netC, probe := build()
	cal := &Calibrator{Net: netC, Shard: probe, XFactor: 5, KLsh: 16}
	netV, _ := build()
	device, err := gpu.NewDevice(gpu.G3090, 6)
	if err != nil {
		t.Fatal(err)
	}
	verifier := &Verifier{Scheme: SchemeV2, Net: netV, Device: device, Samples: 3, Sampler: tensor.NewRNG(7)}
	return worker, cal, verifier, zooParams(spec, netW.ParamVector())
}

// TestOwnersAllocateNoModelVectorPastTheirFirstEpoch is the steady-state
// guard of each owner on its own: past its first call, an honest worker's
// RunEpoch, a calibrator's Calibrate and a verifier's VerifySubmission each
// allocate less than half a model vector — proofs, digests, spans — however
// many checkpoints they produce, probe or replay.
func TestOwnersAllocateNoModelVectorPastTheirFirstEpoch(t *testing.T) {
	for _, scheme := range []Scheme{SchemeV1, SchemeV2} {
		t.Run(scheme.String(), func(t *testing.T) {
			worker, cal, verifier, p := zooOwners(t)
			vector := float64(tensor.EncodedSize(len(p.Global)))
			calOut, fam, err := cal.Calibrate(p, gpu.G3090, gpu.GA10, [2]int64{1, 2}, 3)
			if err != nil {
				t.Fatal(err)
			}
			verifier.Scheme, verifier.Beta = scheme, calOut.Beta
			if scheme == SchemeV2 {
				p.LSH, verifier.LSH = fam, fam
			}
			var result *EpochResult
			calls := []struct {
				name string
				f    func() error
			}{
				{"HonestWorker.RunEpoch", func() (err error) {
					result, err = worker.RunEpoch(p)
					return err
				}},
				{"Calibrator.Calibrate", func() error {
					_, _, err := cal.Calibrate(p, gpu.G3090, gpu.GA10, [2]int64{1, 2}, 3)
					return err
				}},
				{"Verifier.VerifySubmission", func() error {
					out, err := verifier.VerifySubmission(worker, worker.trainer.Shard, result, p)
					if err == nil && !out.Accepted {
						err = out.FailReason
					}
					return err
				}},
			}
			for _, c := range calls {
				got := steadyBytes(3, func() {
					if err := c.f(); err != nil {
						t.Fatalf("%s: %v", c.name, err)
					}
				})
				if got > vector/2 {
					t.Errorf("%s allocates %.0f bytes per call past its first, %.2f model vectors: a model-sized buffer lost its owner", c.name, got, got/vector)
				}
			}
		})
	}
}

// TestHonestWorkerNeverRefillsItsTask runs a worker whose every next task is
// its own previous final checkpoint: the task vector is never written, the
// result equals a fresh worker's, and the steady state allocates exactly the
// one vector the task takes out of the worker's reuse.
func TestHonestWorkerNeverRefillsItsTask(t *testing.T) {
	worker, _, _, p := zooOwners(t)
	vector := float64(tensor.EncodedSize(len(p.Global)))
	if _, err := worker.RunEpoch(p); err != nil {
		t.Fatal(err)
	}
	for epoch := 1; epoch <= 2; epoch++ {
		next := p
		next.Epoch, next.Global = epoch, worker.LastTrace().Final()
		task := next.Global.Clone()
		got, err := worker.RunEpoch(next)
		if err != nil {
			t.Fatal(err)
		}
		if !next.Global.Equal(task, 0) {
			t.Fatalf("epoch %d wrote its own task vector", epoch)
		}
		fresh, _, _, _ := zooOwners(t)
		next.Global = task
		want, err := fresh.RunEpoch(next)
		if err != nil {
			t.Fatal(err)
		}
		if got.MerkleRoot != want.MerkleRoot || !got.Update.Equal(want.Update, 0) {
			t.Fatalf("epoch %d: a worker that trains from its own final checkpoint commits another epoch than a fresh one", epoch)
		}
	}
	bytes := steadyBytes(3, func() {
		next := p
		next.Global = worker.LastTrace().Final()
		if _, err := worker.RunEpoch(next); err != nil {
			t.Fatal(err)
		}
	})
	if bytes < vector || bytes > 1.5*vector {
		t.Errorf("an epoch from the worker's own final checkpoint allocates %.2f model vectors, want the one the task takes", bytes/vector)
	}
}
