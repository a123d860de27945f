package rpol

import (
	"testing"

	"rpol/internal/dataset"
	"rpol/internal/gpu"
	"rpol/internal/nn"
	"rpol/internal/prf"
	"rpol/internal/tensor"
)

// testTask builds a small learnable task: a 4-class, 8-dim dataset and a
// matching MLP. netSeed individualizes the architecture's weights.
func testTask(t *testing.T, netSeed int64) (*nn.Network, *dataset.Dataset) {
	t.Helper()
	ds, err := dataset.Generate(dataset.Config{
		Name: "rpol-test", NumClasses: 4, Dim: 8, Size: 400, ClusterStd: 0.4, Seed: 77,
	})
	if err != nil {
		t.Fatal(err)
	}
	return testNet(t, netSeed, 16), ds
}

// testNet is testTask's network at a chosen hidden width.
func testNet(t *testing.T, netSeed int64, hidden int) *nn.Network {
	t.Helper()
	rng := tensor.NewRNG(netSeed)
	net, err := nn.NewNetwork(
		nn.NewDense(8, hidden, rng),
		nn.NewReLU(hidden),
		nn.NewDense(hidden, 4, rng),
	)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func testParams(global tensor.Vector) TaskParams {
	return TaskParams{
		Epoch:           0,
		Global:          global,
		Hyper:           Hyper{Optimizer: "sgdm", LR: 0.05, BatchSize: 8},
		Nonce:           12345,
		Steps:           15,
		CheckpointEvery: 5,
	}
}

func TestTaskParamsValidate(t *testing.T) {
	net, _ := testTask(t, 1)
	good := testParams(net.ParamVector())
	if err := good.Validate(); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
	cases := []func(*TaskParams){
		func(p *TaskParams) { p.Global = nil },
		func(p *TaskParams) { p.Hyper.BatchSize = 0 },
		func(p *TaskParams) { p.Hyper.LR = 0 },
		func(p *TaskParams) { p.Steps = 0 },
		func(p *TaskParams) { p.CheckpointEvery = 0 },
	}
	for i, mutate := range cases {
		p := testParams(net.ParamVector())
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid params accepted", i)
		}
	}
}

func TestNumCheckpoints(t *testing.T) {
	cases := []struct {
		steps, every, want int
	}{
		{15, 5, 4},  // 0, 5, 10, 15
		{13, 5, 4},  // 0, 5, 10, 13
		{5, 5, 2},   // 0, 5
		{4, 5, 2},   // 0, 4
		{20, 1, 21}, // every step
	}
	for _, c := range cases {
		p := TaskParams{Steps: c.steps, CheckpointEvery: c.every}
		if got := p.NumCheckpoints(); got != c.want {
			t.Errorf("steps=%d every=%d: NumCheckpoints = %d, want %d", c.steps, c.every, got, c.want)
		}
	}
}

func TestRunEpochCheckpointSchedule(t *testing.T) {
	net, ds := testTask(t, 2)
	trainer := &Trainer{Net: net, Shard: ds}
	p := testParams(net.ParamVector())
	p.Steps = 13
	trace, err := trainer.RunEpoch(p)
	if err != nil {
		t.Fatal(err)
	}
	wantSteps := []int{0, 5, 10, 13}
	if len(trace.Steps) != len(wantSteps) {
		t.Fatalf("steps = %v", trace.Steps)
	}
	for i, s := range wantSteps {
		if trace.Steps[i] != s {
			t.Errorf("step[%d] = %d, want %d", i, trace.Steps[i], s)
		}
	}
	if len(trace.Checkpoints) != p.NumCheckpoints() {
		t.Errorf("checkpoints = %d, want %d", len(trace.Checkpoints), p.NumCheckpoints())
	}
	if !trace.Checkpoints[0].Equal(p.Global, 0) {
		t.Error("first checkpoint must be the initial weights")
	}
}

func TestRunEpochDeterministicWithoutDevice(t *testing.T) {
	run := func() *Trace {
		net, ds := testTask(t, 3)
		trainer := &Trainer{Net: net, Shard: ds}
		p := testParams(net.ParamVector())
		trace, err := trainer.RunEpoch(p)
		if err != nil {
			t.Fatal(err)
		}
		return trace
	}
	a, b := run(), run()
	for i := range a.Checkpoints {
		if !a.Checkpoints[i].Equal(b.Checkpoints[i], 0) {
			t.Fatalf("noiseless training must be bit-reproducible (checkpoint %d)", i)
		}
	}
}

func TestRunEpochDeviceNoiseDiverges(t *testing.T) {
	run := func(runSeed int64) *Trace {
		net, ds := testTask(t, 4)
		device, err := gpu.NewDevice(gpu.G3090, runSeed)
		if err != nil {
			t.Fatal(err)
		}
		trainer := &Trainer{Net: net, Shard: ds, Device: device}
		p := testParams(net.ParamVector())
		trace, err := trainer.RunEpoch(p)
		if err != nil {
			t.Fatal(err)
		}
		return trace
	}
	a, b := run(1), run(2)
	final1, final2 := a.Final(), b.Final()
	d, err := tensor.Distance(final1, final2)
	if err != nil {
		t.Fatal(err)
	}
	if d == 0 {
		t.Error("different hardware runs must diverge (reproduction error)")
	}
	// The divergence must be small compared with the training progress —
	// otherwise verification could never distinguish noise from spoofing.
	progress, err := tensor.Distance(a.Checkpoints[0], final1)
	if err != nil {
		t.Fatal(err)
	}
	if d >= progress/10 {
		t.Errorf("reproduction error %v too large vs training progress %v", d, progress)
	}
}

func TestExecuteIntervalMatchesEpochSegments(t *testing.T) {
	// Re-executing interval j from checkpoint j must land on checkpoint j+1
	// exactly when both runs are noiseless — the verification identity.
	net, ds := testTask(t, 5)
	trainer := &Trainer{Net: net, Shard: ds}
	p := testParams(net.ParamVector())
	trace, err := trainer.RunEpoch(p)
	if err != nil {
		t.Fatal(err)
	}
	net2, _ := testTask(t, 5) // identical architecture + weights
	reexec := &Trainer{Net: net2, Shard: ds}
	for j := 0; j+1 < len(trace.Checkpoints); j++ {
		startStep, steps, err := trace.IntervalSteps(j)
		if err != nil {
			t.Fatal(err)
		}
		got, err := reexec.ExecuteInterval(nil, trace.Checkpoints[j], startStep, steps, p.Hyper, p.Nonce)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(trace.Checkpoints[j+1], 0) {
			t.Errorf("interval %d: noiseless re-execution diverged", j)
		}
	}
}

// TestTrainersTakeTurnsOnOneNetwork: the manager builds its verifier and its
// calibrator on one network, so their trainers share its layers, gradients
// and batch buffers. Interleaved interval by interval, with different
// shards, optimizers, batch sizes, devices and nonces, each trainer must
// land on the bits it reaches alone on a network of its own.
func TestTrainersTakeTurnsOnOneNetwork(t *testing.T) {
	_, shardA := testTask(t, 0)
	shardB, err := dataset.Generate(dataset.Config{
		Name: "rpol-test-b", NumClasses: 4, Dim: 8, Size: 300, ClusterStd: 0.5, Seed: 78,
	})
	if err != nil {
		t.Fatal(err)
	}
	type role struct {
		shard   *dataset.Dataset
		profile gpu.Profile
		hyper   Hyper
		nonce   prf.Nonce
	}
	roles := []role{
		{shardA, gpu.G3090, Hyper{Optimizer: "sgdm", LR: 0.05, BatchSize: 8}, 11},
		{shardB, gpu.GA10, Hyper{Optimizer: "adam", LR: 0.01, BatchSize: 5}, 22},
	}
	const intervals, every = 4, 3
	trainer := func(r role, net *nn.Network, seed int64) *Trainer {
		device, err := gpu.NewDevice(r.profile, seed)
		if err != nil {
			t.Fatal(err)
		}
		return &Trainer{Net: net, Shard: r.shard, Device: device}
	}
	// Each role starts from weights of its own.
	starts := []tensor.Vector{testNet(t, 31, 16).ParamVector(), testNet(t, 32, 16).ParamVector()}

	// Alone: each role on a network of its own.
	alone := make([][]tensor.Vector, len(roles))
	for i, r := range roles {
		tr := trainer(r, testNet(t, 30, 16), int64(i))
		w := starts[i]
		for k := 0; k < intervals; k++ {
			if w, err = tr.ExecuteInterval(nil, w, k*every, every, r.hyper, r.nonce); err != nil {
				t.Fatal(err)
			}
			alone[i] = append(alone[i], w)
		}
	}

	// Together: both roles on one network, taking turns.
	shared := testNet(t, 30, 16)
	trainers := make([]*Trainer, len(roles))
	ws := make([]tensor.Vector, len(roles))
	for i, r := range roles {
		trainers[i], ws[i] = trainer(r, shared, int64(i)), starts[i]
	}
	for k := 0; k < intervals; k++ {
		for i, r := range roles {
			if ws[i], err = trainers[i].ExecuteInterval(nil, ws[i], k*every, every, r.hyper, r.nonce); err != nil {
				t.Fatal(err)
			}
			if !ws[i].Equal(alone[i][k], 0) {
				t.Fatalf("role %d interval %d: sharing a network changed the weights", i, k)
			}
		}
	}
}

func TestIntervalStepsBounds(t *testing.T) {
	tr := &Trace{Steps: []int{0, 5, 10}}
	if _, _, err := tr.IntervalSteps(-1); err == nil {
		t.Error("want error for negative interval")
	}
	if _, _, err := tr.IntervalSteps(2); err == nil {
		t.Error("want error for final checkpoint")
	}
	start, steps, err := tr.IntervalSteps(1)
	if err != nil || start != 5 || steps != 5 {
		t.Errorf("IntervalSteps(1) = %d, %d, %v", start, steps, err)
	}
}

func TestTraceUpdate(t *testing.T) {
	tr := &Trace{Checkpoints: []tensor.Vector{{1, 1}, {3, 0}}}
	u, err := tr.update()
	if err != nil {
		t.Fatal(err)
	}
	if !u.Equal(tensor.Vector{2, -1}, 0) {
		t.Errorf("Update = %v", u)
	}
	short := &Trace{Checkpoints: []tensor.Vector{{1}}}
	if _, err := short.update(); err == nil {
		t.Error("want error for single-checkpoint trace")
	}
	if (&Trace{}).Final() != nil {
		t.Error("Final of empty trace must be nil")
	}
}

func TestRunEpochRejectsBadParams(t *testing.T) {
	net, ds := testTask(t, 6)
	trainer := &Trainer{Net: net, Shard: ds}
	p := testParams(net.ParamVector())
	p.Steps = 0
	if _, err := trainer.RunEpoch(p); err == nil {
		t.Error("want error for zero steps")
	}
}

func TestExecuteIntervalUnknownOptimizer(t *testing.T) {
	net, ds := testTask(t, 7)
	trainer := &Trainer{Net: net, Shard: ds}
	h := Hyper{Optimizer: "nope", LR: 0.1, BatchSize: 4}
	if _, err := trainer.ExecuteInterval(nil, net.ParamVector(), 0, 1, h, 1); err == nil {
		t.Error("want error for unknown optimizer")
	}
}
