package wire

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"rpol/internal/dataset"
	"rpol/internal/gpu"
	"rpol/internal/netsim"
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
// moves want and must leave wantProtocol alone. Remote workers run at
// Workers 0 (TaskParams.Workers is not transmitted).
func TestManagerOverTCPEndToEnd(t *testing.T) {
	cases := []struct {
		name         string
		scheme       rpol.Scheme
		want         string
		wantProtocol string
	}{
		{"v1-merkle", rpol.SchemeV1, "c0ec6200887cc86411485f8556c2130b", "f465b1b9702fe118cfb3672e71ab25dd"},
		{"v2-merkle", rpol.SchemeV2, "000094987d5bd87c3aa986415b95f1db", "f465b1b9702fe118cfb3672e71ab25dd"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, gotProtocol := tcpEpochsFingerprint(t, c.scheme)
			if runtime.GOARCH != "amd64" {
				t.Skipf("fingerprints %s / %s pinned on amd64 only: other targets may fuse multiply-adds", got, gotProtocol)
			}
			if gotProtocol != c.wantProtocol {
				t.Errorf("protocol fingerprint %s, want %s", gotProtocol, c.wantProtocol)
			}
			if got != c.want {
				t.Errorf("fingerprint %s, want %s", got, c.want)
			}
		})
	}
}

// tcpEpochsFingerprint returns the full fingerprint and the one that omits
// the verdicts' byte tallies.
func tcpEpochsFingerprint(t *testing.T, scheme rpol.Scheme) (full, protocol string) {
	hub, err := netsim.NewTCPHub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()

	const n = 2
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

	for i := 0; i < n; i++ {
		net, _ := wireTask(t, 50)
		id := "tcp-w" + string(rune('0'+i))
		local, err := rpol.NewHonestWorker(id, gpu.GA10, int64(200+i), net, shards[i])
		if err != nil {
			t.Fatal(err)
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

	managerNet, _ := wireTask(t, 50)
	manager, err := rpol.NewManager(rpol.ManagerConfig{
		Address:         "tcp-manager",
		Scheme:          scheme,
		Hyper:           rpol.Hyper{Optimizer: "sgdm", LR: 0.02, BatchSize: 8},
		StepsPerEpoch:   10,
		CheckpointEvery: 5,
		Samples:         2,
		GPU:             gpu.G3090,
		MasterKey:       []byte("tcp"),
		Seed:            60,
	}, managerNet, workers, shardMap, shards[n])
	if err != nil {
		t.Fatal(err)
	}

	h, hp := sha256.New(), sha256.New()
	for epoch := 0; epoch < 2; epoch++ {
		report, err := manager.RunEpoch()
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range report.Outcomes {
			if !o.Accepted {
				t.Errorf("epoch %d: %s rejected: %s", epoch, o.WorkerID, o.FailReason)
			}
			fmt.Fprintf(h, "%s/%v/%v/%d/%d/%d/%d/%d;", o.WorkerID, o.Accepted, o.SampledCheckpoints,
				o.CommBytes, o.CommitBytes, o.ReexecSteps, o.LSHMisses, o.DoubleChecks)
			fmt.Fprintf(hp, "%s/%v/%v/%d/%d/%d;", o.WorkerID, o.Accepted, o.SampledCheckpoints,
				o.ReexecSteps, o.LSHMisses, o.DoubleChecks)
		}
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
	return hex.EncodeToString(h.Sum(nil)[:16]), hex.EncodeToString(hp.Sum(nil)[:16])
}
