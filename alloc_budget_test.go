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

// TestEpochAllocationBudget is the standing guard on what an epoch
// allocates: a seeded five-worker RPoLv2 Merkle pool over a loopback TCP hub,
// assembled the way benchmark/ assembles ref10_v2_tcp — both of its attackers
// included — must stay under a budget counted in model vectors: a stated
// slack, and nothing else, since every model-sized buffer has an owner that
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
	var start uint64
	doubleChecks := 0
	for epoch := 0; epoch <= measured; epoch++ {
		if epoch == 1 {
			start = totalAlloc() // epoch 0 warmed every lazily built buffer
		}
		report, err := manager.RunEpoch()
		if err != nil {
			t.Fatal(err)
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
	perEpoch := float64(totalAlloc()-start) / measured / float64(tensor.EncodedSize(len(manager.Global())))

	// The budget, in model vectors per epoch. Past epoch 0 every model-sized
	// buffer an owner keeps is refilled, not allocated: the trace checkpoints
	// (which each honest worker's memory store only indexes, and its
	// openings hand out as they are) and update of each honest worker and
	// each attacker, Adv2's Spoof scratch, both calibration probes and their
	// devices' biases, the LSH family, the manager's task buffer per worker
	// and its two global models, the verifier's θ_t + L and replay output,
	// the endpoint frames, and every vector the wire decodes (task global,
	// update, opened checkpoint). What is left is everything smaller than a
	// model vector — proofs, digests, RNG sources, spans, slice headers — and
	// the hub frames the collector evicts from the hub's pool mid-run: about
	// four vectors, so a trace of five checkpoints not handed back breaks it.
	budget := 7.0
	if raceEnabled {
		// sync.Pool drops a quarter of its Puts under the race detector, so
		// allow every routed frame its hub-side buffer again.
		budget += 2*workers + float64(workers*samples) + float64(doubleChecks)/measured
	}
	t.Logf("epoch allocates %.1f model vectors, budget %.1f", perEpoch, budget)
	if perEpoch > budget {
		t.Errorf("epoch allocates %.1f model vectors, over the budget of %.1f: a model-sized buffer is being allocated per use instead of kept by its owner", perEpoch, budget)
	}
}
