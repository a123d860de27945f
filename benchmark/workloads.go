package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"

	"rpol"
	"rpol/internal/adversary"
	"rpol/internal/checkpoint"
	"rpol/internal/dataset"
	"rpol/internal/fsio"
	"rpol/internal/obs"
	"rpol/internal/prf"
	proto "rpol/internal/rpol"
	"rpol/internal/tensor"
)

// epochsPerTask is the length of one mining task. A pool gets a new task per
// block, and ten epochs keep the proxy model short of convergence, where the
// paper's adversaries are still detectable.
const epochsPerTask = 10

// workload is one fixed pool shape. Names are permanent: later changes cite
// them.
type workload struct {
	Name string
	Why  string

	Task    string
	Workers int
	Adv1    int // replay attackers
	Adv2    int // spoofing attackers
	Scheme  proto.Scheme
	Steps   int
	Every   int // checkpoint interval
	Samples int // q
	Batch   int
	Durable bool // in-process pool with a journal on disk instead of TCP
}

var workloads = []workload{
	{
		Name: "ref10_v2_tcp",
		Why:  "the paper's prototype shape: 10 workers over one TCP hub, RPoLv2; serial nn training inside remote workers does most of the work",
		Task: "resnet18-cifar10", Workers: 10, Adv1: 1, Adv2: 1,
		Scheme: proto.SchemeV2, Steps: 40, Every: 5, Samples: 3, Batch: 32,
	},
	{
		Name: "proofs4_v2_tcp",
		Why:  "challenge-heavy: cheap training, 33-leaf trees and 26 proof pulls per submission, so commitment, lsh, per-RPC wire/netsim hops and calibration dominate",
		Task: "resnet18-cifar10", Workers: 4, Adv2: 1,
		Scheme: proto.SchemeV2, Steps: 64, Every: 2, Samples: 12, Batch: 8,
	},
	{
		Name: "wide16_v1_tcp",
		Why:  "bytes-heavy: 16 workers, 143 KB vectors, RPoLv1 opens raw checkpoints at both ends and runs no LSH, so wire/tensor codecs and hub throughput carry it",
		Task: "vgg16-imagenet", Workers: 16, Adv1: 1, Adv2: 1,
		Scheme: proto.SchemeV1, Steps: 6, Every: 2, Samples: 2, Batch: 32,
	},
	{
		Name: "durable8_v2_disk",
		Why:  "writes beside reads: in-process pool with the journal on a real disk, so fsio fsyncs, journal appends and DiskStore writes do about half the work; no wire, no hub",
		Task: "resnet18-cifar10", Workers: 8, Adv1: 1, Adv2: 1,
		Scheme: proto.SchemeV2, Steps: 40, Every: 5, Samples: 3, Batch: 32, Durable: true,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// setIfPresent sets a bool field by name when the struct still has it. The
// roadmap removes MerkleCommit once Merkle is the only commitment; an absent
// field then means the benchmark already gets what it asked for.
func setIfPresent(cfg any, field string, value bool) {
	f := reflect.ValueOf(cfg).Elem().FieldByName(field)
	if f.IsValid() && f.Kind() == reflect.Bool && f.CanSet() {
		f.SetBool(value)
	}
}

// taskSeed derives the seed of one task from the run's seed, so every random
// stream in a run is a pure function of (-seed, workload, task).
func taskSeed(seed int64, w workload, task int) int64 {
	return prf.SeedFromString(fmt.Sprintf("benchmark/%s/%d/%d", w.Name, seed, task))
}

// taskResult is everything one task (ten epochs on freshly built state)
// yields. Counts are compared exactly between a traced and an untraced run of
// the same seed.
type taskResult struct {
	SetupNs  int64
	EpochNs  []int64
	ResumeNs int64 // durable workloads: reopening the journal with Resume

	Submissions int // results that reached the manager
	Verdicts    int // accept/reject decisions delivered
	AdvSubs     int // verdicts on adversarial submissions
	AdvRejected int
	Attempted   int // worker-epochs
	Failed      int // errored, absent, or honest-but-rejected
	Sampled     int // intervals the verifier drew
	ReexecSteps int
	LSHMisses   int
	DoubleChks  int

	WireBytes   int64
	WireMsgs    int64
	ByKind      map[string]int64
	VerifyBytes int64 // open-/proof- request/response bytes (cost model when nothing is metered)
	FS          fsCounts
	CkptBytes   int64 // encoded bytes put into checkpoint stores
	AllocBytes  uint64

	ModelDim int // parameters in the global model
	Accuracy float64
	Chance   float64
	Digest   string // final global model
	Problems []string
}

func (r *taskResult) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// counts returns the fields that must not depend on tracing or timing.
func (r *taskResult) counts() string {
	return fmt.Sprintf("sub=%d ver=%d adv=%d/%d ops=%d/%d sampled=%d reexec=%d miss=%d dbl=%d wire=%d/%d verify=%d disk=%d fsync=%d jrec=%d acc=%.6f digest=%s",
		r.Submissions, r.Verdicts, r.AdvRejected, r.AdvSubs, r.Failed, r.Attempted,
		r.Sampled, r.ReexecSteps, r.LSHMisses, r.DoubleChks, r.WireBytes, r.WireMsgs,
		r.VerifyBytes, r.FS.BytesWritten, r.FS.Fsyncs, r.FS.JournalRecords, r.Accuracy, r.Digest)
}

func modelDigest(global tensor.Vector) string {
	sum := sha256.Sum256(global.Encode())
	return hex.EncodeToString(sum[:8])
}

func allocated() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// runTask builds one task's pool from seed, runs its epochs (none, to time
// set-up alone) and tears it down. A non-nil tracer installs the decorators;
// a nil one leaves the program exactly as a user assembles it.
func runTask(w workload, seed int64, task, epochs int, clock obs.Clock, tr *tracer) (*taskResult, error) {
	runtime.GC()
	if w.Durable {
		return runDurableTask(w, taskSeed(seed, w, task), task, epochs, clock, tr)
	}
	return runTCPTask(w, taskSeed(seed, w, task), task, epochs, clock, tr)
}

// runTCPTask assembles the pool the way examples/distributed does — one hub
// on loopback, one connection per worker, one ManagerPort — with the worker
// mix, seeds and hyper-parameters pool.New uses.
func runTCPTask(w workload, seed int64, task, epochs int, clock obs.Clock, tr *tracer) (res *taskResult, err error) {
	res = &taskResult{}
	start := clock.Now()

	spec, err := rpol.Task(w.Task)
	if err != nil {
		return nil, err
	}
	res.Chance = 1 / float64(spec.ProxyClasses)
	_, train, test, err := spec.BuildProxy(seed)
	if err != nil {
		return nil, err
	}
	shards, err := train.Partition(w.Workers + 1)
	if err != nil {
		return nil, err
	}

	hub, err := rpol.NewTCPHub("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	// Closing the hub is what unblocks the worker servers, so it comes
	// before waiting for them.
	var servers sync.WaitGroup
	serveErrs := make([]error, w.Workers)
	defer func() {
		hub.Close()
		servers.Wait()
		for _, e := range serveErrs {
			if e != nil && err == nil {
				err = e
			}
		}
	}()
	managerConn, err := rpol.DialHub(hub.Addr(), "manager")
	if err != nil {
		return nil, err
	}
	defer func() { _ = managerConn.Close() }()
	port, err := rpol.NewManagerPort(managerConn)
	if err != nil {
		return nil, err
	}

	profiles := rpol.GPUProfiles()
	honest := make(map[string]bool, w.Workers)
	remotes := make([]proto.Worker, 0, w.Workers)
	shardMap := make(map[string]*dataset.Dataset, w.Workers)
	var stores []*tracedStore
	for i := 0; i < w.Workers; i++ {
		profile := profiles[i%len(profiles)]
		runSeed := seed + int64(1000+i)
		var local proto.Worker
		switch {
		case i < w.Adv1:
			local = adversary.NewAdv1(fmt.Sprintf("adv1-%02d", i), profile, shards[i].Len())
		case i < w.Adv1+w.Adv2:
			net, err := spec.BuildProxyNet(seed + 1)
			if err != nil {
				return nil, err
			}
			local, err = adversary.NewAdv2(fmt.Sprintf("adv2-%02d", i), profile, runSeed, net, shards[i], 0.1, 0.5)
			if err != nil {
				return nil, err
			}
		default:
			net, err := spec.BuildProxyNet(seed + 1)
			if err != nil {
				return nil, err
			}
			hw, err := rpol.NewHonestWorker(fmt.Sprintf("worker-%02d", i), profile, runSeed, net, shards[i])
			if err != nil {
				return nil, err
			}
			var store checkpoint.Store = checkpoint.NewMemoryStore()
			if tr != nil {
				ts := &tracedStore{inner: store, tr: tr, worker: hw.ID()}
				stores = append(stores, ts)
				store = ts
			}
			hw.SetStore(store)
			honest[hw.ID()] = true
			local = hw
		}
		id := local.ID()
		if tr != nil {
			local = &tracedWorker{inner: local, tr: tr}
		}
		conn, err := rpol.DialHub(hub.Addr(), id)
		if err != nil {
			return nil, err
		}
		server, err := rpol.NewWorkerServer(conn, local)
		if err != nil {
			return nil, err
		}
		servers.Add(1)
		go func(i int) {
			defer servers.Done()
			serveErrs[i] = server.Run()
		}(i)

		var remote proto.Worker
		remote, err = rpol.NewRemoteWorker(id, profile, port)
		if err != nil {
			return nil, err
		}
		if tr != nil {
			remote = &tracedWorker{inner: remote, tr: tr, remote: true}
		}
		remotes = append(remotes, remote)
		shardMap[id] = shards[i]
	}

	managerNet, err := spec.BuildProxyNet(seed + 1)
	if err != nil {
		return nil, err
	}
	cfg := rpol.ManagerConfig{
		Address:         "pool-manager",
		Scheme:          w.Scheme,
		Hyper:           rpol.Hyper{Optimizer: "sgdm", LR: 0.02, BatchSize: w.Batch},
		StepsPerEpoch:   w.Steps,
		CheckpointEvery: w.Every,
		Samples:         w.Samples,
		GPU:             profiles[0],
		MasterKey:       []byte("pool-manager/nonce-master"),
		Seed:            seed + 7,
	}
	setIfPresent(&cfg, "MerkleCommit", true)
	manager, err := rpol.NewManager(cfg, managerNet, remotes, shardMap, shards[w.Workers])
	if err != nil {
		return nil, err
	}
	evalNet, err := spec.BuildProxyNet(seed + 1)
	if err != nil {
		return nil, err
	}
	testXs := make([]tensor.Vector, test.Len())
	testYs := make([]int, test.Len())
	for i, ex := range test.Examples {
		testXs[i], testYs[i] = ex.Features, ex.Label
	}
	res.SetupNs = clock.Now() - start

	alloc0 := allocated()
	for e := 0; e < epochs; e++ {
		res.Attempted += w.Workers
		id := tr.beginEpoch(task, e)
		t0 := clock.Now()
		report, err := manager.RunEpoch()
		t1 := clock.Now()
		tr.endEpoch(id)
		if err != nil {
			res.Failed += w.Workers
			res.problem("task %d epoch %d: %v", task, e, err)
			break
		}
		res.EpochNs = append(res.EpochNs, t1-t0)
		for _, o := range report.Outcomes {
			if o.Outcome == proto.OutcomeAbsent {
				res.Failed++
				res.problem("task %d epoch %d: %s absent", task, e, o.WorkerID)
				continue
			}
			res.Submissions++
			res.Verdicts++
			res.Sampled += len(o.SampledCheckpoints)
			res.ReexecSteps += o.ReexecSteps
			res.LSHMisses += o.LSHMisses
			res.DoubleChks += o.DoubleChecks
			switch {
			case !honest[o.WorkerID]:
				res.AdvSubs++
				if !o.Accepted {
					res.AdvRejected++
				}
			case !o.Accepted:
				res.Failed++
				res.problem("task %d epoch %d: honest %s rejected: %s", task, e, o.WorkerID, o.FailReason)
			}
		}
	}
	res.AllocBytes = allocated() - alloc0

	meter := hub.Meter()
	res.WireBytes, res.WireMsgs, res.ByKind = meter.Total(), meter.Messages(), meter.ByKind()
	for _, kind := range verifyKinds {
		res.VerifyBytes += res.ByKind[kind]
	}
	for _, s := range stores {
		res.CkptBytes += s.bytesPut()
	}
	global := manager.Global()
	res.ModelDim = len(global)
	res.Digest = modelDigest(global)
	if err := evalNet.SetParamVector(global); err != nil {
		return nil, err
	}
	if res.Accuracy, err = evalNet.Accuracy(testXs, testYs); err != nil {
		return nil, err
	}
	return res, nil
}

// journalRoot is where durable workloads keep their journals: inside the
// checkout, under the directory .gitignore names for build outputs. Tests
// point it at a temporary directory.
var journalRoot = ".bench_build/journal"

// runDurableTask runs the in-process pool with its journal, state snapshots
// and per-worker DiskStores on the real filesystem, then reopens the journal
// to time and check recovery.
func runDurableTask(w workload, seed int64, task, epochs int, clock obs.Clock, tr *tracer) (*taskResult, error) {
	res := &taskResult{}
	dir := filepath.Join(journalRoot, fmt.Sprintf("%s-%d-%d", w.Name, seed, task))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	defer func() { _ = os.RemoveAll(dir) }()

	cfs := &countingFS{inner: fsio.OS, tr: tr}
	cfg := rpol.PoolConfig{
		TaskName:        w.Task,
		Scheme:          w.Scheme,
		NumWorkers:      w.Workers,
		Adv1Fraction:    float64(w.Adv1) / float64(w.Workers),
		Adv2Fraction:    float64(w.Adv2) / float64(w.Workers),
		StepsPerEpoch:   w.Steps,
		CheckpointEvery: w.Every,
		Samples:         w.Samples,
		Seed:            seed,
		Journal:         dir,
		FS:              cfs,
	}
	setIfPresent(&cfg, "MerkleCommit", true)

	start := clock.Now()
	p, err := rpol.NewPool(cfg)
	if err != nil {
		return nil, err
	}
	res.SetupNs = clock.Now() - start
	res.Chance = 1 / float64(p.Spec().ProxyClasses)
	adversaries := w.Adv1 + w.Adv2

	setupFS := cfs.counts()
	alloc0 := allocated()
	for e := 0; e < epochs; e++ {
		res.Attempted += w.Workers
		id := tr.beginEpoch(task, e)
		t0 := clock.Now()
		stats, err := p.RunEpoch()
		t1 := clock.Now()
		tr.endEpoch(id)
		if err != nil {
			res.Failed += w.Workers
			res.problem("task %d epoch %d: %v", task, e, err)
			break
		}
		res.EpochNs = append(res.EpochNs, t1-t0)
		delivered := stats.Accepted + stats.Rejected
		res.Submissions += delivered
		res.Verdicts += delivered
		res.AdvSubs += adversaries
		res.AdvRejected += stats.DetectedAdversaries
		res.Failed += stats.FalseRejections + stats.AbsentWorkers
		if stats.FalseRejections+stats.AbsentWorkers > 0 {
			res.problem("task %d epoch %d: %d honest rejected, %d absent", task, e, stats.FalseRejections, stats.AbsentWorkers)
		}
		res.Sampled += int(stats.Phases[obs.PhaseChallenge].Count)
		res.ReexecSteps += stats.ReexecSteps
		res.LSHMisses += int(stats.Phases[obs.PhaseLSH].Count)
		res.VerifyBytes += stats.VerifyCommBytes
		res.Accuracy = stats.TestAccuracy
	}
	res.AllocBytes = allocated() - alloc0
	res.FS = cfs.counts().minus(setupFS)
	res.CkptBytes = res.FS.CkptBytes
	global := p.Manager().Global()
	res.ModelDim = len(global)
	res.Digest = modelDigest(global)
	done := p.CompletedEpochs()
	if err := p.Close(); err != nil {
		return nil, err
	}
	if epochs == 0 {
		return res, nil // set-up only
	}

	cfg.Resume = true
	cfg.FS = &countingFS{inner: fsio.OS}
	start = clock.Now()
	resumed, err := rpol.NewPool(cfg)
	if err != nil {
		res.problem("task %d: resume: %v", task, err)
		return res, nil
	}
	res.ResumeNs = clock.Now() - start
	if got := resumed.CompletedEpochs(); got != done {
		res.problem("task %d: resume reports %d completed epochs, want %d", task, got, done)
	}
	if got := modelDigest(resumed.Manager().Global()); got != res.Digest {
		res.problem("task %d: resumed global model %s, want %s", task, got, res.Digest)
	}
	if err := resumed.Close(); err != nil {
		return nil, err
	}
	return res, nil
}

// verifyKinds are the message kinds that carry verification traffic.
var verifyKinds = []string{"open-request", "open-response", "proof-request", "proof-response"}

// fsTypeOf names the filesystem holding dir, from statfs magic numbers.
func fsTypeOf(dir string) string {
	magic, err := statfsMagic(dir)
	if err != nil {
		return "unknown"
	}
	if name, ok := fsNames[magic]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", magic)
}

var fsNames = map[int64]string{
	0xEF53:     "ext4",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x794C7630: "overlayfs",
	0x01021994: "tmpfs",
	0x6969:     "nfs",
	0x2FC12FC1: "zfs",
}
