package wire

import (
	"errors"
	"sync"
	"testing"

	"rpol/internal/adversary"
	"rpol/internal/dataset"
	"rpol/internal/gpu"
	"rpol/internal/lsh"
	"rpol/internal/netsim"
	"rpol/internal/nn"
	"rpol/internal/prf"
	"rpol/internal/rpol"
	"rpol/internal/tensor"
)

func wireTask(t *testing.T, netSeed int64) (*nn.Network, *dataset.Dataset) {
	t.Helper()
	ds, err := dataset.Generate(dataset.Config{
		Name: "wire-test", NumClasses: 4, Dim: 8, Size: 400, ClusterStd: 0.4, Seed: 66,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(netSeed)
	net, err := nn.NewNetwork(
		nn.NewDense(8, 16, rng),
		nn.NewReLU(16),
		nn.NewDense(16, 4, rng),
	)
	if err != nil {
		t.Fatal(err)
	}
	return net, ds
}

func wireParams(global tensor.Vector) rpol.TaskParams {
	return rpol.TaskParams{
		Global:          global,
		Hyper:           rpol.Hyper{Optimizer: "sgdm", LR: 0.02, BatchSize: 8},
		Nonce:           999,
		Steps:           10,
		CheckpointEvery: 5,
	}
}

func TestTaskRoundTrip(t *testing.T) {
	net, _ := wireTask(t, 1)
	p := wireParams(net.ParamVector())
	fam, err := lsh.NewFamily(len(p.Global), lsh.Params{R: 0.5, K: 4, L: 4}, 77)
	if err != nil {
		t.Fatal(err)
	}
	p.LSH = fam
	data, err := EncodeTask(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeTask(data)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Global.Equal(p.Global, 0) {
		t.Error("global weights changed")
	}
	if got.Hyper != p.Hyper || got.Nonce != p.Nonce || got.Steps != p.Steps ||
		got.CheckpointEvery != p.CheckpointEvery || got.Epoch != p.Epoch {
		t.Errorf("params changed: %+v", got)
	}
	if got.LSH == nil {
		t.Fatal("LSH family lost")
	}
	// The reconstructed family must hash identically (pure function of
	// dim/params/seed).
	x := tensor.NewRNG(5).NormalVector(len(p.Global), 0, 1)
	d1, err := p.LSH.Hash(x)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := got.LSH.Hash(x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatal("reconstructed LSH family hashes differently")
		}
	}
}

func TestTaskDecodeErrors(t *testing.T) {
	if _, err := DecodeTask([]byte("{")); !errors.Is(err, ErrFormat) {
		t.Errorf("JSON fragment: err = %v, want ErrFormat", err)
	}
	net, _ := wireTask(t, 1)
	data, err := EncodeTask(wireParams(net.ParamVector()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeTask(data[:len(data)-3]); err == nil {
		t.Error("want error for bad global encoding")
	}
}

func TestResultRoundTrip(t *testing.T) {
	net, ds := wireTask(t, 2)
	worker, err := rpol.NewHonestWorker("w1", gpu.GA10, 3, net, ds)
	if err != nil {
		t.Fatal(err)
	}
	p := wireParams(net.ParamVector())
	fam, err := lsh.NewFamily(len(p.Global), lsh.Params{R: 0.5, K: 2, L: 2}, 9)
	if err != nil {
		t.Fatal(err)
	}
	p.LSH = fam
	result, err := worker.RunEpoch(p)
	if err != nil {
		t.Fatal(err)
	}
	data, err := EncodeResult(result)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeResult(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.WorkerID != result.WorkerID || got.DataSize != result.DataSize ||
		got.NumCheckpoints != result.NumCheckpoints {
		t.Errorf("metadata changed: %+v", got)
	}
	if !got.Update.Equal(result.Update, 0) {
		t.Error("update changed")
	}
	if got.MerkleRoot != result.MerkleRoot {
		t.Error("commitment changed")
	}
}

func TestEncodeResultValidation(t *testing.T) {
	if _, err := EncodeResult(nil); err == nil {
		t.Error("want error for nil result")
	}
}

// testHub starts a loopback hub that is closed when the test ends.
func testHub(t *testing.T) *netsim.TCPHub {
	t.Helper()
	hub, err := netsim.NewTCPHub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(hub.Close)
	return hub
}

// dialTest registers name on the hub; the endpoint is closed when the test
// ends.
func dialTest(t *testing.T, hub *netsim.TCPHub, name string) *netsim.TCPEndpoint {
	t.Helper()
	ep, err := netsim.DialHub(hub.Addr(), name)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ep.Close() })
	return ep
}

// testPort registers the manager's endpoint on the hub and wraps it.
func testPort(t *testing.T, hub *netsim.TCPHub) *ManagerPort {
	t.Helper()
	port, err := NewManagerPort(dialTest(t, hub, "manager"))
	if err != nil {
		t.Fatal(err)
	}
	return port
}

// startServedWorker registers a worker server on the hub under the worker's
// ID and runs it until the hub closes.
func startServedWorker(t *testing.T, hub *netsim.TCPHub, wg *sync.WaitGroup, w rpol.Worker) {
	t.Helper()
	server, err := NewWorkerServer(dialTest(t, hub, w.ID()), w)
	if err != nil {
		t.Fatal(err)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := server.Run(); err != nil {
			t.Errorf("server %s: %v", w.ID(), err)
		}
	}()
}

// TestManagerOverBusEndToEnd runs a v2 epoch of three honest workers behind
// the hub, each served by its own WorkerServer, and checks that the hub
// metered the traffic of every protocol message kind in both directions.
func TestManagerOverBusEndToEnd(t *testing.T) {
	hub := testHub(t)
	var wg sync.WaitGroup
	defer func() {
		hub.Close()
		wg.Wait()
	}()

	// Three honest workers behind the hub.
	const n = 3
	shardsNet, fullDS := wireTask(t, 30)
	_ = shardsNet
	shards, err := fullDS.Partition(n + 1)
	if err != nil {
		t.Fatal(err)
	}
	port := testPort(t, hub)
	workers := make([]rpol.Worker, 0, n)
	shardMap := make(map[string]*dataset.Dataset, n)
	for i := 0; i < n; i++ {
		net, _ := wireTask(t, 30)
		id := "w" + string(rune('0'+i))
		local, err := rpol.NewHonestWorker(id, gpu.GA10, int64(70+i), net, shards[i])
		if err != nil {
			t.Fatal(err)
		}
		startServedWorker(t, hub, &wg, local)
		remote, err := NewRemoteWorker(id, gpu.GA10, port)
		if err != nil {
			t.Fatal(err)
		}
		workers = append(workers, remote)
		shardMap[id] = shards[i]
	}

	managerNet, _ := wireTask(t, 30)
	manager, err := rpol.NewManager(rpol.ManagerConfig{
		Address:         "wire-manager",
		Scheme:          rpol.SchemeV2,
		Hyper:           rpol.Hyper{Optimizer: "sgdm", LR: 0.02, BatchSize: 8},
		StepsPerEpoch:   10,
		CheckpointEvery: 5,
		Samples:         2,
		GPU:             gpu.G3090,
		MasterKey:       []byte("wire"),
		Seed:            55,
	}, managerNet, workers, shardMap, shards[n])
	if err != nil {
		t.Fatal(err)
	}

	report, err := manager.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if report.Accepted != n || report.Rejected != 0 {
		for _, o := range report.Outcomes {
			if !o.Accepted {
				t.Logf("%s: %s", o.WorkerID, o.FailReason)
			}
		}
		t.Fatalf("accepted %d rejected %d", report.Accepted, report.Rejected)
	}

	// The meter must have recorded real traffic in both directions.
	meter := hub.Meter()
	if meter.Total() == 0 {
		t.Fatal("no bytes metered")
	}
	byKind := meter.ByKind()
	for _, kind := range []string{KindTask, KindResult, KindOpenRequest, KindOpenResponse} {
		if byKind[kind] == 0 {
			t.Errorf("no %s traffic metered", kind)
		}
	}
}

// TestAdversaryOverBusRejected: behind the hub, the replay attacker is
// rejected and the honest worker beside it accepted.
func TestAdversaryOverBusRejected(t *testing.T) {
	hub := testHub(t)
	var wg sync.WaitGroup
	defer func() {
		hub.Close()
		wg.Wait()
	}()

	net, ds := wireTask(t, 31)
	shards, err := ds.Partition(3)
	if err != nil {
		t.Fatal(err)
	}
	port := testPort(t, hub)

	honestNet, _ := wireTask(t, 31)
	honest, err := rpol.NewHonestWorker("honest", gpu.GA10, 80, honestNet, shards[0])
	if err != nil {
		t.Fatal(err)
	}
	startServedWorker(t, hub, &wg, honest)
	cheater := adversary.NewAdv1("cheater", gpu.GT4, shards[1].Len())
	startServedWorker(t, hub, &wg, cheater)

	remoteHonest, err := NewRemoteWorker("honest", gpu.GA10, port)
	if err != nil {
		t.Fatal(err)
	}
	remoteCheater, err := NewRemoteWorker("cheater", gpu.GT4, port)
	if err != nil {
		t.Fatal(err)
	}

	managerNet, _ := wireTask(t, 31)
	manager, err := rpol.NewManager(rpol.ManagerConfig{
		Address:         "wire-manager",
		Scheme:          rpol.SchemeV1,
		Hyper:           rpol.Hyper{Optimizer: "sgdm", LR: 0.02, BatchSize: 8},
		StepsPerEpoch:   10,
		CheckpointEvery: 5,
		Samples:         2,
		GPU:             gpu.G3090,
		MasterKey:       []byte("wire"),
		Seed:            56,
	}, managerNet,
		[]rpol.Worker{remoteHonest, remoteCheater},
		map[string]*dataset.Dataset{"honest": shards[0], "cheater": shards[1]},
		shards[2])
	if err != nil {
		t.Fatal(err)
	}
	_ = net

	report, err := manager.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range report.Outcomes {
		switch o.WorkerID {
		case "honest":
			if !o.Accepted {
				t.Errorf("honest remote worker rejected: %s", o.FailReason)
			}
		case "cheater":
			if o.Accepted {
				t.Error("replay attacker accepted over the wire")
			}
		}
	}
}

func TestRemoteWorkerErrorPropagation(t *testing.T) {
	hub := testHub(t)
	var wg sync.WaitGroup
	defer func() {
		hub.Close()
		wg.Wait()
	}()
	net, ds := wireTask(t, 32)
	local, err := rpol.NewHonestWorker("w", gpu.GA10, 90, net, ds)
	if err != nil {
		t.Fatal(err)
	}
	startServedWorker(t, hub, &wg, local)
	remote, err := NewRemoteWorker("w", gpu.GA10, testPort(t, hub))
	if err != nil {
		t.Fatal(err)
	}
	// Invalid task (zero steps) must surface the remote error.
	bad := wireParams(net.ParamVector())
	bad.Steps = 0
	if _, err := remote.RunEpoch(bad); err == nil {
		t.Error("want remote error for invalid task")
	}
	// Opening before any epoch must surface the remote error.
	if _, err := remote.OpenCheckpoint(0); !errors.Is(err, ErrRemote) {
		t.Errorf("err = %v, want ErrRemote", err)
	}
}

func TestRemoteWorkerValidation(t *testing.T) {
	hub := testHub(t)
	port := testPort(t, hub)
	if _, err := NewRemoteWorker("", gpu.GA10, port); err == nil {
		t.Error("want error for empty id")
	}
	if _, err := NewRemoteWorker("w", gpu.GA10, nil); err == nil {
		t.Error("want error for nil port")
	}
	if _, err := NewRemoteWorker("w", gpu.GA10, port); err != nil {
		t.Fatal(err)
	}
	if _, err := NewRemoteWorker("w", gpu.GA10, port); err == nil {
		t.Error("want error for a second proxy to one worker on one port")
	}
	if _, err := NewWorkerServer(dialTest(t, hub, "w"), nil); err == nil {
		t.Error("want error for nil worker")
	}
	net, ds := wireTask(t, 33)
	local, err := rpol.NewHonestWorker("w2", gpu.GA10, 91, net, ds)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewWorkerServer(nil, local); err == nil {
		t.Error("want error for nil endpoint")
	}
	if _, err := NewManagerPort(nil); err == nil {
		t.Error("want error for nil manager endpoint")
	}
}

// keep prf import meaningful: nonce identity across the wire.
func TestNonceSurvivesWire(t *testing.T) {
	net, _ := wireTask(t, 34)
	p := wireParams(net.ParamVector())
	p.Nonce = prf.DeriveNonce([]byte("k"), "w", 3)
	data, err := EncodeTask(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeTask(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Nonce != p.Nonce {
		t.Error("nonce changed across the wire")
	}
}

func TestMeteredTrafficMatchesProtocolAccounting(t *testing.T) {
	// The verifier's CommBytes counts raw proof payloads; the hub meters
	// the framed bytes actually moved. The metered open-response traffic
	// must be the accounted openings — CommBytes less the commitment, which
	// arrived with the result — inflated only by the framing: every opened
	// checkpoint crossed the wire, and none the verifier did not account.
	hub := testHub(t)
	var wg sync.WaitGroup
	defer func() {
		hub.Close()
		wg.Wait()
	}()

	net, ds := wireTask(t, 35)
	local, err := rpol.NewHonestWorker("w", gpu.GA10, 95, net, ds)
	if err != nil {
		t.Fatal(err)
	}
	startServedWorker(t, hub, &wg, local)
	remote, err := NewRemoteWorker("w", gpu.GA10, testPort(t, hub))
	if err != nil {
		t.Fatal(err)
	}

	p := wireParams(net.ParamVector())
	result, err := remote.RunEpoch(p)
	if err != nil {
		t.Fatal(err)
	}
	verifyNet, _ := wireTask(t, 35)
	device, err := gpu.NewDevice(gpu.G3090, 96)
	if err != nil {
		t.Fatal(err)
	}
	verifier := &rpol.Verifier{
		Scheme: rpol.SchemeV1, Net: verifyNet, Device: device,
		Beta: 0.05, Samples: 2, Sampler: tensor.NewRNG(97),
	}
	out, err := verifier.VerifySubmission(remote, ds, result, p)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Accepted {
		t.Fatalf("rejected: %s", out.FailReason)
	}

	// One hub goroutine routes and meters the worker's replies in order, so
	// once one more reply has arrived every open-response is in the meter.
	if _, err := remote.OpenProof(0); err != nil {
		t.Fatal(err)
	}
	metered := hub.Meter().ByKind()[KindOpenResponse]
	opened := out.CommBytes - out.CommitBytes
	if opened <= 0 {
		t.Fatalf("no opening accounted: CommBytes %d, CommitBytes %d", out.CommBytes, out.CommitBytes)
	}
	if metered < opened {
		t.Errorf("metered %d below accounted openings %d", metered, opened)
	}
	if metered > opened*3/2 {
		t.Errorf("metered %d far above accounted openings %d (+framing)", metered, opened)
	}
	t.Logf("metered %d, accounted openings %d", metered, opened)
}
