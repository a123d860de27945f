// Distributed: the same pool protocol, but over real sockets. A TCP hub
// routes protocol messages between the manager and the workers; each worker
// runs behind a WorkerServer in its own goroutine (in a real deployment,
// its own machine), streams its checkpoints into an append-only segment on
// disk, and the unmodified rpol.Manager coordinates and verifies everything
// through RemoteWorker proxies. The hub meters every byte and mirrors its
// totals into the net_tcp_* counters of a registry, so the printout compares
// measured verification traffic against the cost model's prediction.
//
// Run with:
//
//	go run ./examples/distributed
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sync"

	"rpol/internal/checkpoint"
	"rpol/internal/dataset"
	"rpol/internal/fsio"
	"rpol/internal/gpu"
	"rpol/internal/modelzoo"
	"rpol/internal/netsim"
	"rpol/internal/obs"
	"rpol/internal/rpol"
	"rpol/internal/wire"
)

// kinds are the message kinds the hub meters: each client's registration
// handshake, then the pool's protocol, where RPoLv2 pulls Merkle proofs
// beside the raw checkpoint openings.
var kinds = []string{
	netsim.KindRegister, netsim.KindRegistered,
	wire.KindTask, wire.KindResult, wire.KindOpenRequest, wire.KindOpenResponse, wire.KindProofRequest, wire.KindProofResponse,
}

func main() {
	if _, err := run(obs.NewRegistry()); err != nil {
		log.Fatal(err)
	}
}

// run drives the pool, mirroring the hub's traffic into reg's net_tcp_*
// counters, and returns the hub's meter.
func run(reg *obs.Registry) (*netsim.Meter, error) {
	hub, err := netsim.NewTCPHub("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hub.Observe(reg)
	// Shutdown order matters: closing the hub is what unblocks the worker
	// servers, so it must happen before waiting for them.
	var wg sync.WaitGroup
	defer func() {
		hub.Close()
		wg.Wait()
	}()
	fmt.Printf("hub listening on %s\n\n", hub.Addr())

	spec, err := modelzoo.Get("resnet18-cifar10")
	if err != nil {
		return nil, err
	}
	_, train, _, err := spec.BuildProxy(21)
	if err != nil {
		return nil, err
	}
	const n = 4
	shards, err := train.Partition(n + 1)
	if err != nil {
		return nil, err
	}

	ckptRoot, err := os.MkdirTemp("", "rpol-checkpoints-")
	if err != nil {
		return nil, err
	}
	defer func() { _ = os.RemoveAll(ckptRoot) }()

	managerConn, err := netsim.DialHub(hub.Addr(), "manager")
	if err != nil {
		return nil, err
	}
	defer func() { _ = managerConn.Close() }()
	port, err := wire.NewManagerPort(managerConn)
	if err != nil {
		return nil, err
	}

	profiles := gpu.Profiles()
	workers := make([]rpol.Worker, 0, n)
	shardMap := make(map[string]*dataset.Dataset, n)
	locals := make([]*rpol.HonestWorker, 0, n)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("worker-%d", i)
		profile := profiles[i%len(profiles)]
		net, err := spec.BuildProxyNet(22)
		if err != nil {
			return nil, err
		}
		local, err := rpol.NewHonestWorker(id, profile, int64(500+i), net, shards[i])
		if err != nil {
			return nil, err
		}
		seg, err := checkpoint.NewSegment(fsio.OS, filepath.Join(ckptRoot, id))
		if err != nil {
			return nil, err
		}
		local.SetSegment(seg)
		locals = append(locals, local)

		conn, err := netsim.DialHub(hub.Addr(), id)
		if err != nil {
			return nil, err
		}
		server, err := wire.NewWorkerServer(conn, local)
		if err != nil {
			return nil, err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := server.Run(); err != nil {
				log.Printf("server %s: %v", id, err)
			}
		}()

		remote, err := wire.NewRemoteWorker(id, profile, port)
		if err != nil {
			return nil, err
		}
		workers = append(workers, remote)
		shardMap[id] = shards[i]
	}

	managerNet, err := spec.BuildProxyNet(22)
	if err != nil {
		return nil, err
	}
	manager, err := rpol.NewManager(rpol.ManagerConfig{
		Address:         "distributed-manager",
		Scheme:          rpol.SchemeV2,
		Hyper:           rpol.Hyper{Optimizer: "sgdm", LR: 0.02, BatchSize: spec.ProxyBatchSize},
		StepsPerEpoch:   10,
		CheckpointEvery: 5,
		Samples:         2,
		GPU:             gpu.G3090,
		MasterKey:       []byte("distributed"),
		Seed:            23,
	}, managerNet, workers, shardMap, shards[n])
	if err != nil {
		return nil, err
	}

	for epoch := 0; epoch < 3; epoch++ {
		report, err := manager.RunEpoch()
		if err != nil {
			return nil, err
		}
		tcp := reg.Snapshot().Counters
		fmt.Printf("epoch %d: accepted %d/%d, verification proofs %.1f KB (cost model), hub metered %.1f KB in %d messages (net_tcp_bytes_total %.1f KB, net_tcp_messages_total %d)\n",
			report.Epoch, report.Accepted, report.Accepted+report.Rejected,
			float64(report.VerifyCommBytes)/1024, float64(hub.Meter().Total())/1024, hub.Meter().Messages(),
			float64(tcp["net_tcp_bytes_total"])/1024, tcp["net_tcp_messages_total"])
	}

	var stored int64
	for _, local := range locals {
		stored += local.StorageBytes()
	}
	fmt.Printf("\nworkers hold %.1f KB of checkpoint proofs on disk under %s\n",
		float64(stored)/1024, ckptRoot)
	byKind := hub.Meter().ByKind()
	fmt.Println("traffic by message kind:")
	for _, kind := range kinds {
		fmt.Printf("  %-14s %8.1f KB\n", kind, float64(byKind[kind])/1024)
	}
	return hub.Meter(), nil
}
