package rpol_test

import (
	"sync"
	"testing"

	rpolapi "rpol"
)

// TestDistributedDeploymentThroughFacade assembles a manager and remote
// workers entirely through the public façade, over a loopback TCP hub.
func TestDistributedDeploymentThroughFacade(t *testing.T) {
	spec, err := rpolapi.Task("resnet18-cifar10")
	if err != nil {
		t.Fatal(err)
	}
	_, train, _, err := spec.BuildProxy(61)
	if err != nil {
		t.Fatal(err)
	}
	const n = 2
	shards, err := train.Partition(n + 1)
	if err != nil {
		t.Fatal(err)
	}

	hub, err := rpolapi.NewTCPHub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	defer func() {
		hub.Close()
		wg.Wait()
	}()

	managerEP, err := rpolapi.DialHub(hub.Addr(), "manager")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = managerEP.Close() }()
	port, err := rpolapi.NewManagerPort(managerEP)
	if err != nil {
		t.Fatal(err)
	}

	profiles := rpolapi.GPUProfiles()
	workers := make([]rpolapi.ProtocolWorker, 0, n)
	shardMap := make(map[string]*rpolapi.Dataset, n)
	for i := 0; i < n; i++ {
		id := "fw" + string(rune('0'+i))
		net, err := spec.BuildProxyNet(62)
		if err != nil {
			t.Fatal(err)
		}
		local, err := rpolapi.NewHonestWorker(id, profiles[i%len(profiles)], int64(700+i), net, shards[i])
		if err != nil {
			t.Fatal(err)
		}
		ep, err := rpolapi.DialHub(hub.Addr(), id)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = ep.Close() })
		server, err := rpolapi.NewWorkerServer(ep, local)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := server.Run(); err != nil {
				t.Errorf("server: %v", err)
			}
		}()
		remote, err := rpolapi.NewRemoteWorker(id, profiles[i%len(profiles)], port)
		if err != nil {
			t.Fatal(err)
		}
		workers = append(workers, remote)
		shardMap[id] = shards[i]
	}

	managerNet, err := spec.BuildProxyNet(62)
	if err != nil {
		t.Fatal(err)
	}
	manager, err := rpolapi.NewManager(rpolapi.ManagerConfig{
		Address:         "facade-manager",
		Scheme:          rpolapi.SchemeV2,
		Hyper:           rpolapi.Hyper{Optimizer: "sgdm", LR: 0.02, BatchSize: spec.ProxyBatchSize},
		StepsPerEpoch:   10,
		CheckpointEvery: 5,
		Samples:         2,
		GPU:             profiles[0],
		MasterKey:       []byte("facade"),
		Seed:            63,
	}, managerNet, workers, shardMap, shards[n])
	if err != nil {
		t.Fatal(err)
	}
	report, err := manager.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if report.Accepted != n {
		t.Fatalf("accepted %d of %d", report.Accepted, n)
	}
	if hub.Meter().Total() == 0 {
		t.Error("no traffic metered")
	}
}
