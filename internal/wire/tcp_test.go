package wire

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"rpol/internal/adversary"
	"rpol/internal/dataset"
	"rpol/internal/gpu"
	"rpol/internal/netsim"
	"rpol/internal/obs"
	"rpol/internal/parallel"
	"rpol/internal/rpol"
)

// TestManagerOverTCPEndToEnd runs the full manager/worker protocol through
// the TCP hub: the same rpol.Manager an in-process pool runs, its workers
// behind WorkerServers.
//
// Each case's fingerprint is every verdict's tallies and the global model
// after two epochs; the second epoch re-enters the manager's long-lived
// verifier and calibrator trainers. wantProtocol is the same fingerprint
// without the two byte tallies (CommBytes, CommitBytes): every sampled index,
// verdict, replayed step, LSH miss, double-check and global-model bit is in
// it. (Both cases share it: honest workers, no LSH miss, and the scheme does
// not enter the training.) It was pinned on the commit before the verifier
// stopped pulling leaves it holds or can compute, and want re-pinned on each
// change to what is pulled or committed — the verifier's leaf store, then the
// v1 case's move from an inline hash list to the Merkle root. Such a change
// moves want and must leave wantProtocol alone. Both were re-pinned once
// when device noise and the LSH projections became keyed draws, which moves
// every trained bit. Each case runs at process compute settings 0 and 4
// against the same pins: the setting never crosses the wire, and every
// trainer behind a WorkerServer follows its own process's setting — here the
// test's, which the manager's probes and replays follow too.
func TestManagerOverTCPEndToEnd(t *testing.T) {
	cases := []struct {
		name         string
		scheme       rpol.Scheme
		want         string
		wantProtocol string
	}{
		{"v1-merkle", rpol.SchemeV1, "fd22ea6e3cec15f129aabad0850018f5", "c46675766c9f820f231daf1de589fb61"},
		{"v2-merkle", rpol.SchemeV2, "1c54fe04d2a319316ea2e2c6c880c0bb", "c46675766c9f820f231daf1de589fb61"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, jobs := range []int{0, 4} {
				t.Run(fmt.Sprintf("jobs-%d", jobs), func(t *testing.T) {
					prev := parallel.DefaultWorkers()
					parallel.SetDefaultWorkers(jobs)
					t.Cleanup(func() { parallel.SetDefaultWorkers(prev) })
					run := runOverTCP(t, tcpRun{scheme: c.scheme, workers: 2, epochs: 2})
					for _, o := range run.outcomes {
						if !o.Accepted {
							t.Errorf("epoch %d: %s rejected: %s", o.Epoch, o.WorkerID, o.FailReason)
						}
					}
					if runtime.GOARCH != "amd64" {
						t.Skipf("fingerprints %s / %s pinned on amd64 only: math.Exp and math.Log are assembly there and pure Go elsewhere", run.full, run.protocol)
					}
					if run.protocol != c.wantProtocol {
						t.Errorf("protocol fingerprint %s, want %s", run.protocol, c.wantProtocol)
					}
					if run.full != c.want {
						t.Errorf("fingerprint %s, want %s", run.full, c.want)
					}
				})
			}
		})
	}
}

// tcpRun is one manager run over a loopback hub, every worker behind its own
// WorkerServer and all of them driven through one ManagerPort.
type tcpRun struct {
	scheme          rpol.Scheme
	workers, epochs int
	adv1            int // the first adv1 workers are replay attackers
	concurrent      bool
	plan            *netsim.FaultPlan // installed once every endpoint is registered
	attempts        int
}

// tcpResult is what a run left behind.
type tcpResult struct {
	// full fingerprints every verdict's tallies and the global model, and
	// protocol the same without the two byte tallies (CommBytes,
	// CommitBytes).
	full, protocol string
	outcomes       []*rpol.VerifyOutcome
	bytes          map[string]int64 // metered bytes by kind
	drops, delays  int64            // injected by the plan
	retries        int64
	timeouts       int64
}

// runOverTCP runs cfg.epochs manager epochs over a fresh hub.
func runOverTCP(t *testing.T, cfg tcpRun) tcpResult {
	t.Helper()
	hub, err := netsim.NewTCPHub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()

	n := cfg.workers
	_, fullDS := wireTask(t, 50)
	shards, err := fullDS.Partition(n + 1)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	workers := make([]rpol.Worker, 0, n)
	shardMap := make(map[string]*dataset.Dataset, n)
	managerConn, err := netsim.DialHub(hub.Addr(), "manager")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = managerConn.Close() }()
	port, err := NewManagerPort(managerConn)
	if err != nil {
		t.Fatal(err)
	}
	observer := obs.NewObserver(obs.NewRegistry(), nil)
	port.SetObserver(observer)
	port.SetRetryPolicy(&RetryPolicy{Attempts: cfg.attempts})
	hub.Observe(observer.Registry())

	for i := 0; i < n; i++ {
		net, _ := wireTask(t, 50)
		id := "tcp-w" + string(rune('0'+i))
		var local rpol.Worker = adversary.NewAdv1(id, gpu.GA10, shards[i].Len())
		if i >= cfg.adv1 {
			if local, err = rpol.NewHonestWorker(id, gpu.GA10, int64(200+i), net, shards[i]); err != nil {
				t.Fatal(err)
			}
		}
		conn, err := netsim.DialHub(hub.Addr(), id)
		if err != nil {
			t.Fatal(err)
		}
		server, err := NewWorkerServer(conn, local)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			if err := server.Run(); err != nil {
				t.Errorf("server %s: %v", id, err)
			}
		}(id)
		t.Cleanup(func() { _ = conn.Close() })

		remote, err := NewRemoteWorker(id, gpu.GA10, port)
		if err != nil {
			t.Fatal(err)
		}
		workers = append(workers, remote)
		shardMap[id] = shards[i]
	}
	hub.InjectFaults(cfg.plan, obs.NewSimClock(0))

	managerNet, _ := wireTask(t, 50)
	manager, err := rpol.NewManager(rpol.ManagerConfig{
		Address:              "tcp-manager",
		Scheme:               cfg.scheme,
		Hyper:                rpol.Hyper{Optimizer: "sgdm", LR: 0.02, BatchSize: 8},
		StepsPerEpoch:        10,
		CheckpointEvery:      5,
		Samples:              2,
		GPU:                  gpu.G3090,
		MasterKey:            []byte("tcp"),
		Seed:                 60,
		ConcurrentCollection: cfg.concurrent,
	}, managerNet, workers, shardMap, shards[n])
	if err != nil {
		t.Fatal(err)
	}

	var res tcpResult
	h, hp := sha256.New(), sha256.New()
	for epoch := 0; epoch < cfg.epochs; epoch++ {
		report, err := manager.RunEpoch()
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range report.Outcomes {
			fmt.Fprintf(h, "%s/%v/%v/%d/%d/%d/%d/%d;", o.WorkerID, o.Accepted, o.SampledCheckpoints,
				o.CommBytes, o.CommitBytes, o.ReexecSteps, o.LSHMisses, o.DoubleChecks)
			fmt.Fprintf(hp, "%s/%v/%v/%d/%d/%d;", o.WorkerID, o.Accepted, o.SampledCheckpoints,
				o.ReexecSteps, o.LSHMisses, o.DoubleChecks)
		}
		res.outcomes = append(res.outcomes, report.Outcomes...)
	}
	global := manager.Global().Encode()
	h.Write(global)
	hp.Write(global)
	if hub.Meter().Total() == 0 {
		t.Error("no bytes metered over TCP")
	}

	// Shut the servers down cleanly.
	hub.Close()
	wg.Wait()
	res.full, res.protocol = hex.EncodeToString(h.Sum(nil)[:16]), hex.EncodeToString(hp.Sum(nil)[:16])
	res.bytes = hub.Meter().ByKind()
	res.drops = observer.Counter("net_tcp_injected_drops_total").Value()
	res.delays = observer.Counter("net_tcp_injected_delays_total").Value()
	res.retries = observer.Counter("net_retries_total").Value()
	res.timeouts = observer.Counter("net_timeouts_total").Value()
	return res
}
