package rpol

import (
	"errors"
	"testing"

	"rpol/internal/dataset"
	"rpol/internal/gpu"
	"rpol/internal/stats"
	"rpol/internal/tensor"
)

func TestCalibrateProducesUsableBounds(t *testing.T) {
	net, ds := testTask(t, 20)
	cal := &Calibrator{Net: net, Shard: ds, XFactor: 5, KLsh: 16}
	p := testParams(net.ParamVector())
	out, fam, err := cal.Calibrate(p, gpu.G3090, gpu.GA10, [2]int64{1, 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if out.Alpha <= 0 {
		t.Errorf("alpha = %v", out.Alpha)
	}
	if out.Beta != 5*out.Alpha {
		t.Errorf("beta = %v, want 5α = %v", out.Beta, 5*out.Alpha)
	}
	if out.Params.K*out.Params.L > 16 {
		t.Errorf("LSH budget violated: %+v", out.Params)
	}
	if out.WorstFNR > 0.15 || out.WorstFPR > 0.15 {
		t.Errorf("worst-case rates too high: FNR %v FPR %v", out.WorstFNR, out.WorstFPR)
	}
	if fam == nil || fam.Dim() != len(p.Global) {
		t.Error("family missing or wrong dimension")
	}
	if out.NumProbes != p.NumCheckpoints()-1 {
		t.Errorf("probes = %d, want %d", out.NumProbes, p.NumCheckpoints()-1)
	}
}

func TestCalibrateBetaExceedsHonestErrors(t *testing.T) {
	// β from the top-2-GPU probe must upper-bound the reproduction errors of
	// an honest worker on slower hardware — the property that yields the
	// paper's 0-false-negative result (Sec. VII-D).
	net, ds := testTask(t, 21)
	cal := &Calibrator{Net: net, Shard: ds, XFactor: 5, KLsh: 16}
	p := testParams(net.ParamVector())
	out, _, err := cal.Calibrate(p, gpu.G3090, gpu.GA10, [2]int64{4, 5}, 6)
	if err != nil {
		t.Fatal(err)
	}
	errsList, err := cal.MeasureErrors(p, gpu.GA10, gpu.GP100, [2]int64{7, 8})
	if err != nil {
		t.Fatal(err)
	}
	s, err := stats.Summarize(errsList)
	if err != nil {
		t.Fatal(err)
	}
	if s.Max >= out.Beta {
		t.Errorf("honest max error %v exceeds β %v", s.Max, out.Beta)
	}
}

func TestCalibrateValidation(t *testing.T) {
	cal := &Calibrator{}
	if _, _, err := cal.Calibrate(TaskParams{}, gpu.G3090, gpu.GA10, [2]int64{1, 2}, 3); err == nil {
		t.Error("want error for calibrator without net/shard")
	}
}

func TestTraceDistances(t *testing.T) {
	a := &Trace{Checkpoints: []tensor.Vector{{0, 0}, {1, 0}, {2, 0}}}
	b := &Trace{Checkpoints: []tensor.Vector{{0, 0}, {1, 1}, {2, 2}}}
	ds, err := TraceDistances(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 2 || ds[0] != 1 || ds[1] != 2 {
		t.Errorf("distances = %v", ds)
	}
	if _, err := TraceDistances(a, &Trace{Checkpoints: []tensor.Vector{{0, 0}}}); err == nil {
		t.Error("want error for mismatched traces")
	}
	short := &Trace{Checkpoints: []tensor.Vector{{0, 0}}}
	if _, err := TraceDistances(short, short); !errors.Is(err, ErrNoErrors) {
		t.Errorf("err = %v", err)
	}
}

func TestAggregateEquation1(t *testing.T) {
	global := tensor.Vector{1, 1}
	updates := []*EpochResult{
		{WorkerID: "a", DataSize: 100, Update: tensor.Vector{2, 0}},
		{WorkerID: "b", DataSize: 300, Update: tensor.Vector{0, 4}},
	}
	next, err := Aggregate(nil, global, updates, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	// weights: a 0.25, b 0.75 ⇒ θ = [1+0.5, 1+3]
	if !next.Equal(tensor.Vector{1.5, 4}, 1e-12) {
		t.Errorf("aggregate = %v", next)
	}
	// Written into caller storage — θ_t's own included — the bits are the
	// same.
	own := global.Clone()
	for _, c := range []struct{ dst, global tensor.Vector }{{tensor.NewVector(2), global}, {own, own}} {
		got, err := Aggregate(c.dst, c.global, updates, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		if !tensor.SameStorage(got, c.dst) || !got.Equal(next, 0) {
			t.Errorf("aggregate into caller storage = %v, want %v in place", got, next)
		}
	}
	// η scales the step.
	half, err := Aggregate(nil, global, updates, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !half.Equal(tensor.Vector{1.25, 2.5}, 1e-12) {
		t.Errorf("aggregate η=0.5 = %v", half)
	}
}

func TestAggregateErrors(t *testing.T) {
	if _, err := Aggregate(nil, tensor.Vector{1}, nil, 1); !errors.Is(err, ErrNothingToAggregate) {
		t.Errorf("err = %v", err)
	}
	bad := []*EpochResult{{WorkerID: "x", DataSize: 0, Update: tensor.Vector{1}}}
	if _, err := Aggregate(nil, tensor.Vector{1}, bad, 1); err == nil {
		t.Error("want error for zero data size")
	}
	mismatch := []*EpochResult{{WorkerID: "x", DataSize: 1, Update: tensor.Vector{1, 2}}}
	if _, err := Aggregate(nil, tensor.Vector{1}, mismatch, 1); err == nil {
		t.Error("want error for shape mismatch")
	}
}

// buildPool assembles a manager over n honest workers on a shared task.
func buildPool(t *testing.T, scheme Scheme, n int) *Manager {
	t.Helper()
	return buildPoolShape(t, scheme, n, 15, 5, 16)
}

// buildPoolShape is buildPool at a chosen epoch shape and hidden width.
func buildPoolShape(t *testing.T, scheme Scheme, n, steps, every, hidden int) *Manager {
	t.Helper()
	ds, err := dataset.Generate(dataset.Config{
		Name: "pool", NumClasses: 4, Dim: 8, Size: 1200, ClusterStd: 0.4, Seed: 55,
	})
	if err != nil {
		t.Fatal(err)
	}
	shards, err := ds.Partition(n + 1)
	if err != nil {
		t.Fatal(err)
	}
	profiles := gpu.Profiles()
	workers := make([]Worker, n)
	shardMap := make(map[string]*dataset.Dataset, n)
	for i := 0; i < n; i++ {
		net := testNet(t, 30, hidden) // same seed ⇒ same initial weights everywhere
		id := "w" + string(rune('A'+i))
		w, err := NewHonestWorker(id, profiles[i%len(profiles)], int64(1000+i), net, shards[i])
		if err != nil {
			t.Fatal(err)
		}
		workers[i] = w
		shardMap[id] = shards[i]
	}
	managerNet := testNet(t, 30, hidden)
	mgr, err := NewManager(ManagerConfig{
		Address:         "pool-manager",
		Scheme:          scheme,
		Hyper:           Hyper{Optimizer: "sgdm", LR: 0.05, BatchSize: 8},
		StepsPerEpoch:   steps,
		CheckpointEvery: every,
		Samples:         3,
		GPU:             gpu.G3090,
		MasterKey:       []byte("master"),
		Seed:            99,
	}, managerNet, workers, shardMap, shards[n])
	if err != nil {
		t.Fatal(err)
	}
	return mgr
}

func TestManagerEpochAllHonestAccepted(t *testing.T) {
	for _, scheme := range []Scheme{SchemeV1, SchemeV2} {
		t.Run(scheme.String(), func(t *testing.T) {
			mgr := buildPool(t, scheme, 4)
			report, err := mgr.RunEpoch()
			if err != nil {
				t.Fatal(err)
			}
			if report.Accepted != 4 || report.Rejected != 0 {
				for _, o := range report.Outcomes {
					if !o.Accepted {
						t.Logf("%s rejected: %s", o.WorkerID, o.FailReason)
					}
				}
				t.Fatalf("accepted %d rejected %d", report.Accepted, report.Rejected)
			}
			if report.Calibration == nil {
				t.Error("verification schemes must calibrate")
			}
			if mgr.Epoch() != 1 {
				t.Errorf("epoch = %d", mgr.Epoch())
			}
		})
	}
}

func TestManagerBaselineSkipsCalibration(t *testing.T) {
	mgr := buildPool(t, SchemeBaseline, 3)
	report, err := mgr.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if report.Calibration != nil {
		t.Error("baseline must not calibrate")
	}
	if report.VerifyCommBytes != 0 {
		t.Error("baseline must not incur verification traffic")
	}
	if report.Accepted != 3 {
		t.Errorf("accepted = %d", report.Accepted)
	}
}

func TestManagerGlobalModelImproves(t *testing.T) {
	mgr := buildPool(t, SchemeV2, 3)
	// Global is the manager's own vector, valid until its next epoch: the
	// test keeps a copy across three.
	before := mgr.Global().Clone()
	var report *EpochReport
	for i := 0; i < 3; i++ {
		var err error
		if report, err = mgr.RunEpoch(); err != nil {
			t.Fatal(err)
		}
	}
	after := mgr.Global()
	d, err := tensor.Distance(before, after)
	if err != nil {
		t.Fatal(err)
	}
	if d == 0 {
		t.Error("global model did not move after 3 epochs")
	}
	if report.Calibration == nil {
		t.Error("the last epoch reports no calibration")
	}
}

// TestManagerV2CommCheaperThanV1 is the paper's Table III headline at a
// paper-shaped point: 24 intervals, q = 3. RPoLv1 opens both ends of each
// sampled interval, RPoLv2 its input and a digest, so v2 moves about half
// the bytes once the vectors outweigh the commitment (here 13 KB against the
// hash list's 800 B). (At a 3-interval shape the claim does not hold: every leaf v1
// would open at an interval's end is the next one's input or a bound leaf,
// so both schemes open the same two vectors and v2 adds its digests.)
func TestManagerV2CommCheaperThanV1(t *testing.T) {
	var comm [2]int64
	for i, scheme := range []Scheme{SchemeV1, SchemeV2} {
		mgr := buildPoolShape(t, scheme, 6, 48, 2, 128)
		for epoch := 0; epoch < 2; epoch++ {
			r, err := mgr.RunEpoch()
			if err != nil {
				t.Fatal(err)
			}
			if r.Rejected != 0 {
				t.Fatalf("%s: %d honest workers rejected", scheme, r.Rejected)
			}
			comm[i] += r.VerifyCommBytes
		}
	}
	ratio := float64(comm[1]) / float64(comm[0])
	t.Logf("v2 %d B / v1 %d B = %.3f", comm[1], comm[0], ratio)
	if ratio < 0.45 || ratio > 0.60 {
		t.Errorf("v2 comm %d is %.3f of v1 comm %d, want ≈ half (0.45–0.60)", comm[1], ratio, comm[0])
	}
}

func TestNewManagerValidation(t *testing.T) {
	net, ds := testTask(t, 31)
	shards, err := ds.Partition(2)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewHonestWorker("w", gpu.GA10, 1, net, shards[0])
	if err != nil {
		t.Fatal(err)
	}
	good := ManagerConfig{
		Scheme: SchemeV1, Hyper: Hyper{Optimizer: "sgd", LR: 0.1, BatchSize: 4},
		StepsPerEpoch: 5, CheckpointEvery: 5, GPU: gpu.G3090, MasterKey: []byte("k"),
	}
	shardMap := map[string]*dataset.Dataset{"w": shards[0]}
	if _, err := NewManager(good, net, []Worker{w}, shardMap, shards[1]); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	if _, err := NewManager(good, net, nil, shardMap, shards[1]); err == nil {
		t.Error("want error for no workers")
	}
	bad := good
	bad.MasterKey = nil
	if _, err := NewManager(bad, net, []Worker{w}, shardMap, shards[1]); err == nil {
		t.Error("want error for missing master key")
	}
	bad = good
	bad.StepsPerEpoch = 0
	if _, err := NewManager(bad, net, []Worker{w}, shardMap, shards[1]); err == nil {
		t.Error("want error for zero steps")
	}
	bad = good
	bad.Samples = -2
	if _, err := NewManager(bad, net, []Worker{w}, shardMap, shards[1]); err == nil {
		t.Error("want error for a negative sample count")
	}
	if _, err := NewManager(good, net, []Worker{w}, map[string]*dataset.Dataset{}, shards[1]); err == nil {
		t.Error("want error for missing shard")
	}
	if _, err := NewManager(good, net, []Worker{w}, shardMap, nil); err == nil {
		t.Error("want error for missing probe under verification scheme")
	}
}

func TestSchemeString(t *testing.T) {
	if SchemeBaseline.String() != "baseline" || SchemeV1.String() != "RPoLv1" ||
		SchemeV2.String() != "RPoLv2" || Scheme(0).String() != "unknown" {
		t.Error("scheme names wrong")
	}
}

func TestManagerConcurrentCollectionEquivalent(t *testing.T) {
	// Concurrent collection must produce exactly the same epoch outcome as
	// sequential collection (workers are independent and deterministic).
	runPool := func(concurrent bool) (float64, int) {
		mgr := buildPoolWithConcurrency(t, SchemeV2, 4, concurrent)
		report, err := mgr.RunEpoch()
		if err != nil {
			t.Fatal(err)
		}
		g := mgr.Global()
		return g.Norm2(), report.Accepted
	}
	seqNorm, seqAcc := runPool(false)
	conNorm, conAcc := runPool(true)
	if seqNorm != conNorm || seqAcc != conAcc {
		t.Errorf("concurrent collection diverged: (%v, %d) vs (%v, %d)",
			conNorm, conAcc, seqNorm, seqAcc)
	}
}

// buildPoolWithConcurrency mirrors buildPool with the collection mode
// exposed.
func buildPoolWithConcurrency(t *testing.T, scheme Scheme, n int, concurrent bool) *Manager {
	t.Helper()
	ds, err := dataset.Generate(dataset.Config{
		Name: "pool-conc", NumClasses: 4, Dim: 8, Size: 1200, ClusterStd: 0.4, Seed: 55,
	})
	if err != nil {
		t.Fatal(err)
	}
	shards, err := ds.Partition(n + 1)
	if err != nil {
		t.Fatal(err)
	}
	profiles := gpu.Profiles()
	workers := make([]Worker, n)
	shardMap := make(map[string]*dataset.Dataset, n)
	for i := 0; i < n; i++ {
		net, _ := testTask(t, 30)
		id := "w" + string(rune('A'+i))
		w, err := NewHonestWorker(id, profiles[i%len(profiles)], int64(1000+i), net, shards[i])
		if err != nil {
			t.Fatal(err)
		}
		workers[i] = w
		shardMap[id] = shards[i]
	}
	managerNet, _ := testTask(t, 30)
	mgr, err := NewManager(ManagerConfig{
		Address:              "conc-manager",
		Scheme:               scheme,
		Hyper:                Hyper{Optimizer: "sgdm", LR: 0.05, BatchSize: 8},
		StepsPerEpoch:        15,
		CheckpointEvery:      5,
		Samples:              3,
		GPU:                  gpu.G3090,
		MasterKey:            []byte("master"),
		Seed:                 99,
		ConcurrentCollection: concurrent,
	}, managerNet, workers, shardMap, shards[n])
	if err != nil {
		t.Fatal(err)
	}
	return mgr
}
