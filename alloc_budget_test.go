package rpol_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	rpolapi "rpol"
	"rpol/internal/adversary"
	"rpol/internal/checkpoint"
	"rpol/internal/tensor"
)

// allocSink keeps TestEpochAllocationBudget's measured vector on the heap.
var allocSink tensor.Vector

// TestEpochAllocationBudget is the standing guard on what an epoch
// allocates: a seeded five-worker RPoLv2 Merkle pool over a loopback TCP hub,
// assembled the way benchmark/ assembles ref10_v2_tcp — both of its attackers
// included — must stay under a budget counted in model vectors. The first
// epoch gets an inventory of what the owners keep plus a stated slack, so a
// buffer larger than what its owner keeps (a second probe trace, an arena
// chunk thrown away for a larger one) fails; every later epoch gets a stated
// slack and nothing else, since every model-sized buffer has an owner that
// keeps it. A buffer that loses its owner (a trace not handed back to its
// trainer or attacker, a family or probe trace rebuilt from scratch, a task,
// update or opening decoded into a fresh vector, an endpoint frame never
// released, a replay output per sampled interval, an aggregate per epoch)
// fails here instead of rotting the benchmark.
func TestEpochAllocationBudget(t *testing.T) {
	const (
		workers = 5 // three honest, one Adv1, one Adv2
		steps   = 20
		every   = 5
		samples = 3
	)
	spec, err := rpolapi.Task("resnet18-cifar10")
	if err != nil {
		t.Fatal(err)
	}
	_, train, _, err := spec.BuildProxy(5)
	if err != nil {
		t.Fatal(err)
	}
	shards, err := train.Partition(workers + 1)
	if err != nil {
		t.Fatal(err)
	}
	hub, err := rpolapi.NewTCPHub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var servers sync.WaitGroup
	defer func() {
		hub.Close()
		servers.Wait()
	}()
	managerConn, err := rpolapi.DialHub(hub.Addr(), "manager")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = managerConn.Close() }()
	port, err := rpolapi.NewManagerPort(managerConn)
	if err != nil {
		t.Fatal(err)
	}
	profiles := rpolapi.GPUProfiles()
	remotes := make([]rpolapi.ProtocolWorker, 0, workers)
	shardMap := make(map[string]*rpolapi.Dataset, workers)
	for i := 0; i < workers; i++ {
		net, err := spec.BuildProxyNet(6)
		if err != nil {
			t.Fatal(err)
		}
		var local rpolapi.ProtocolWorker
		switch i {
		case 0:
			local = adversary.NewAdv1("adv1-0", profiles[0], shards[i].Len())
		case 1:
			local, err = adversary.NewAdv2("adv2-1", profiles[1], 1001, net, shards[i], 0.1, 0.5)
		default:
			var hw *rpolapi.HonestWorker
			hw, err = rpolapi.NewHonestWorker(fmt.Sprintf("worker-%d", i), profiles[i%len(profiles)], int64(1000+i), net, shards[i])
			if err == nil {
				hw.SetStore(checkpoint.NewMemoryStore())
				local = hw
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		conn, err := rpolapi.DialHub(hub.Addr(), local.ID())
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = conn.Close() }()
		server, err := rpolapi.NewWorkerServer(conn, local)
		if err != nil {
			t.Fatal(err)
		}
		servers.Add(1)
		go func() {
			defer servers.Done()
			if err := server.Run(); err != nil {
				t.Errorf("server %s: %v", local.ID(), err)
			}
		}()
		remote, err := rpolapi.NewRemoteWorker(local.ID(), profiles[i%len(profiles)], port)
		if err != nil {
			t.Fatal(err)
		}
		remotes = append(remotes, remote)
		shardMap[local.ID()] = shards[i]
	}
	managerNet, err := spec.BuildProxyNet(6)
	if err != nil {
		t.Fatal(err)
	}
	manager, err := rpolapi.NewManager(rpolapi.ManagerConfig{
		Address:         "pool-manager",
		Scheme:          rpolapi.SchemeV2,
		Hyper:           rpolapi.Hyper{Optimizer: "sgdm", LR: 0.02, BatchSize: 16},
		StepsPerEpoch:   steps,
		CheckpointEvery: every,
		Samples:         samples,
		GPU:             profiles[0],
		MasterKey:       []byte("alloc-budget"),
		Seed:            12,
	}, managerNet, remotes, shardMap, shards[workers])
	if err != nil {
		t.Fatal(err)
	}

	totalAlloc := func() uint64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.TotalAlloc
	}
	const measured = 3
	// Epoch 0 runs between start0 and start, the measured epochs after.
	var start0, start uint64
	var first *rpolapi.EpochReport
	doubleChecks := 0
	for epoch := 0; epoch <= measured; epoch++ {
		switch epoch {
		case 0:
			start0 = totalAlloc()
		case 1:
			start = totalAlloc()
		}
		report, err := manager.RunEpoch()
		if err != nil {
			t.Fatal(err)
		}
		if epoch == 0 {
			first = report
		}
		for _, o := range report.Outcomes {
			if attacker := o.WorkerID == "adv1-0" || o.WorkerID == "adv2-1"; o.Accepted == attacker {
				t.Errorf("epoch %d: %s accepted = %v (%s)", epoch, o.WorkerID, o.Accepted, o.FailReason)
			}
			if epoch > 0 {
				doubleChecks += o.DoubleChecks
			}
		}
	}
	// sync.Pool drops a quarter of its Puts under the race detector, so the
	// race build allows every routed frame its hub-side buffer again.
	const raceFrames = 2*workers + workers*samples
	dim := len(manager.Global())
	vector := float64(tensor.EncodedSize(dim))
	perEpoch := float64(totalAlloc()-start) / measured / vector

	// The first epoch's budget is an inventory of what its owners keep, in
	// model vectors, plus a stated slack: the first epoch allocates what it
	// keeps and nothing it throws away. A vector allocated whole takes its
	// heap size, which rounds it up to whole pages.
	heap := totalAlloc()
	allocSink = tensor.NewVector(dim)
	whole := float64(totalAlloc()-heap) / vector
	kl := first.Calibration.Params.K * first.Calibration.Params.L
	checkpoints := steps/every + 1
	opened, firstDoubleChecks := 0, 0
	for _, o := range first.Outcomes {
		opened += o.ReexecSteps/every + o.DoubleChecks
		firstDoubleChecks += o.DoubleChecks
	}
	trainers := workers - 1 // every worker but Adv1 trains
	inventory := []struct {
		what    string
		vectors float64
	}{
		{"an LSH family per v2 worker server and the manager's, K·L vectors each", float64((workers + 1) * kl)},
		{"a trace per worker, attackers included, and the calibrator's first probe", float64((workers+1)*checkpoints) * whole},
		{"an update per worker and Adv2's Spoof scratch", float64(workers+1) * whole},
		{"the manager's task buffer per worker and its aggregate", float64(workers+1) * whole},
		{"the calibrator's walk, the verifier's replay output and θ_t + L", 3 * whole},
		{"the wire's decodes: a task global per server and an update per proxy", float64(2*workers) * whole},
		{"the proxies' openings: at most one per re-executed interval and double check", float64(opened) * whole},
		{"the encode buffers: a result per server and the manager's task", float64(workers+1) * whole},
		{"the device biases: one per worker that trains, the verifier's and the calibrator's two", float64(trainers + 3)},
		{"the optimizer state: one per worker that trains, the verifier's and the calibrator's", float64(trainers + 2)},
	}
	// The slack: the hub's and endpoints' frames in flight (a whole vector
	// each, about seventeen vectors at five workers), six networks' batch
	// arenas (each its batch's scratch, about nine vectors in all) and
	// everything smaller than a model vector. A second probe trace (five
	// vectors) or arenas that double their chunks (about fifteen) break it.
	budget0 := 30.0
	if raceEnabled {
		budget0 += raceFrames + float64(firstDoubleChecks)
	}
	for _, item := range inventory {
		budget0 += item.vectors
	}
	first0 := float64(start-start0) / vector
	t.Logf("epoch 0 allocates %.1f model vectors, budget %.1f", first0, budget0)
	if first0 > budget0 {
		for _, item := range inventory {
			t.Logf("  %5.1f  %s", item.vectors, item.what)
		}
		t.Errorf("epoch 0 allocates %.1f model vectors, over the budget of %.1f: a first-epoch buffer is larger than what its owner keeps", first0, budget0)
	}

	// The budget, in model vectors per epoch. Past epoch 0 every model-sized
	// buffer an owner keeps is refilled, not allocated: the trace checkpoints
	// (which each honest worker's memory store only indexes, and its
	// openings hand out as they are) and update of each honest worker and
	// each attacker, Adv2's Spoof scratch, the calibrator's probe trace and
	// walk and their devices' biases, the LSH family, the manager's task
	// buffer per worker and its two global models, the verifier's θ_t + L
	// and replay output, the endpoint frames, and every vector the wire
	// decodes (task global, update, opened checkpoint). What is left is
	// everything smaller than a model vector — proofs, digests, RNG sources,
	// spans, slice headers — and the hub frames the collector evicts from
	// the hub's pool mid-run: about four vectors, so a trace of five
	// checkpoints not handed back breaks it.
	budget := 7.0
	if raceEnabled {
		budget += raceFrames + float64(doubleChecks)/measured
	}
	t.Logf("epoch allocates %.1f model vectors, budget %.1f", perEpoch, budget)
	if perEpoch > budget {
		t.Errorf("epoch allocates %.1f model vectors, over the budget of %.1f: a model-sized buffer is being allocated per use instead of kept by its owner", perEpoch, budget)
	}
}
