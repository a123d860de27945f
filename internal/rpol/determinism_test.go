package rpol

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"rpol/internal/commitment"
	"rpol/internal/dataset"
	"rpol/internal/gpu"
	"rpol/internal/lsh"
	"rpol/internal/parallel"
)

// setWorkers sets the process compute setting (parallel.SetDefaultWorkers)
// to n until the test ends. A trainer reads it when it builds its runtime.
func setWorkers(t testing.TB, n int) {
	prev := parallel.DefaultWorkers()
	parallel.SetDefaultWorkers(n)
	t.Cleanup(func() { parallel.SetDefaultWorkers(prev) })
}

// detPool builds the determinism suite's in-process RPoLv2 pool: four honest
// workers and a manager over one seeded dataset.
func detPool(t *testing.T) (*Manager, []*HonestWorker) {
	t.Helper()
	const n = 4
	ds, err := dataset.Generate(dataset.Config{
		Name: "det", NumClasses: 4, Dim: 8, Size: 1200, ClusterStd: 0.4, Seed: 55,
	})
	if err != nil {
		t.Fatal(err)
	}
	shards, err := ds.Partition(n + 1)
	if err != nil {
		t.Fatal(err)
	}
	profiles := gpu.Profiles()
	pool := make([]*HonestWorker, n)
	workerIfs := make([]Worker, n)
	shardMap := make(map[string]*dataset.Dataset, n)
	for i := 0; i < n; i++ {
		net, _ := testTask(t, 30)
		id := "w" + string(rune('A'+i))
		w, err := NewHonestWorker(id, profiles[i%len(profiles)], int64(1000+i), net, shards[i])
		if err != nil {
			t.Fatal(err)
		}
		pool[i] = w
		workerIfs[i] = w
		shardMap[id] = shards[i]
	}
	managerNet, _ := testTask(t, 30)
	mgr, err := NewManager(ManagerConfig{
		Address:         "pool-manager",
		Scheme:          SchemeV2,
		Hyper:           Hyper{Optimizer: "sgdm", LR: 0.05, BatchSize: 8},
		StepsPerEpoch:   15,
		CheckpointEvery: 5,
		Samples:         3,
		GPU:             gpu.G3090,
		MasterKey:       []byte("master"),
		Seed:            99,
	}, managerNet, workerIfs, shardMap, shards[n])
	if err != nil {
		t.Fatal(err)
	}
	return mgr, pool
}

// epochFingerprints runs one full RPoLv2 epoch — training, commitment,
// calibration, sampling, verification, aggregation — at the given process
// compute setting and condenses the result into two digests:
//
//   - train covers every protocol artifact: checkpoint traces, commitment
//     roots and leaves, LSH digests, submitted updates, acceptance flags,
//     and the aggregated global model;
//   - verify covers the verification accounting: sampled intervals,
//     fail reasons, comm bytes, re-executed steps, misses and double-checks.
func epochFingerprints(t *testing.T, workers int) (train, verify string) {
	t.Helper()
	setWorkers(t, workers)
	mgr, pool := detPool(t)
	report, err := mgr.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}

	ht := sha256.New()
	for _, w := range pool {
		for _, c := range w.lastTrace.Checkpoints {
			ht.Write(c.Encode())
		}
		res := w.lastResult
		// The submission carries only the root; the retained epoch commitment
		// still exposes the per-leaf digests for hashing.
		ht.Write(res.MerkleRoot[:])
		for _, d := range w.lastCommit.Digests {
			ht.Write(d.Encode())
		}
		ht.Write(res.Update.Encode())
	}
	for _, o := range report.Outcomes {
		fmt.Fprintf(ht, "%s/%v;", o.WorkerID, o.Accepted)
	}
	ht.Write(mgr.Global().Encode())

	hv := sha256.New()
	for _, o := range report.Outcomes {
		fmt.Fprintf(hv, "%s/%v/%q/%v/%d/%d/%d/%d;", o.WorkerID, o.Accepted, reasonText(o.FailReason),
			o.SampledCheckpoints, o.CommBytes, o.ReexecSteps, o.LSHMisses, o.DoubleChecks)
	}
	return hex.EncodeToString(ht.Sum(nil)), hex.EncodeToString(hv.Sum(nil))
}

// TestEpochBitIdenticalAcrossWorkers is the protocol-wide determinism
// regression test for the data-parallel runtime: one epoch run at process
// compute settings 0, 1, 2, and 8 must produce bit-identical checkpoints, LSH
// digests, commitment roots, verification outcomes, and global model.
// Everything the protocol hashes or compares is covered, so any
// scheduling-dependent float reduction sneaking into a hot path fails this
// test (and trips the race detector in the -race CI job).
func TestEpochBitIdenticalAcrossWorkers(t *testing.T) {
	baseTrain, baseVerify := epochFingerprints(t, 1)
	for _, w := range []int{2, 8} {
		train, verify := epochFingerprints(t, w)
		if train != baseTrain {
			t.Errorf("workers=%d: training artifacts differ from workers=1", w)
		}
		if verify != baseVerify {
			t.Errorf("workers=%d: verification outcomes differ from workers=1", w)
		}
	}

	// The test nets are dense-only stacks: setting 0 runs the same kernels
	// without goroutines, and the verifier replays the sampled intervals in
	// turn on one device at every setting, so both digests must agree with
	// it too.
	serialTrain, serialVerify := epochFingerprints(t, 0)
	if serialTrain != baseTrain {
		t.Errorf("workers=0 training artifacts differ from workers=1")
	}
	if serialVerify != baseVerify {
		t.Errorf("workers=0 verification outcomes differ from workers=1")
	}
}

// TestDefaultWorkersReachesEveryTrainer: bits are equal at every pool size,
// so no fingerprint tells a trainer left serial from one on the pool. At
// process setting n, one RPoLv2 epoch builds every trainer it runs on an
// n-worker pool: each worker's, the calibrator's (both probes train on it)
// and the verifier's replay trainer.
func TestDefaultWorkersReachesEveryTrainer(t *testing.T) {
	const n = 3
	setWorkers(t, n)
	mgr, pool := detPool(t)
	if _, err := mgr.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	type built struct {
		name    string
		trainer *Trainer
	}
	trainers := []built{{"calibrator", mgr.calibrator.trainer}, {"verifier", mgr.verifier.trainer}}
	for _, w := range pool {
		trainers = append(trainers, built{"worker " + w.id, w.trainer})
	}
	for _, b := range trainers {
		if b.trainer == nil || b.trainer.bt == nil {
			t.Errorf("%s: the epoch built no training runtime", b.name)
		} else if got := b.trainer.pool.Workers(); got != n {
			t.Errorf("%s: trained on a %d-worker pool, the process setting is %d", b.name, got, n)
		}
	}
}

// TestEpochBitIdenticalAcrossWorkersMerkle: the root an honest worker
// streams while it trains is, at every process compute setting, the root
// CommitTrace builds over the same finished trace — under v1 (raw-weight
// leaves) and v2 (digest leaves) — and one root per scheme.
func TestEpochBitIdenticalAcrossWorkersMerkle(t *testing.T) {
	net0, _ := testTask(t, 10)
	p := testParams(net0.ParamVector())
	fam, err := lsh.NewFamily(len(p.Global), lsh.Params{R: 1, K: 4, L: 4}, 3)
	if err != nil {
		t.Fatal(err)
	}
	var roots []commitment.Hash
	for _, f := range []*lsh.Family{nil, fam} {
		for _, workers := range []int{0, 1, 2, 8} {
			setWorkers(t, workers)
			net, ds := testTask(t, 10)
			w, err := NewHonestWorker("w", gpu.GA10, 101, net, ds)
			if err != nil {
				t.Fatal(err)
			}
			p.LSH = f
			res, err := w.RunEpoch(p)
			if err != nil {
				t.Fatal(err)
			}
			batch, err := CommitTrace(nil, w.LastTrace().Checkpoints, f)
			if err != nil {
				t.Fatal(err)
			}
			if res.MerkleRoot != batch.Root {
				t.Errorf("lsh=%t workers=%d: streamed root differs from the batch root", f != nil, workers)
			}
			roots = append(roots, res.MerkleRoot)
		}
	}
	for i, r := range roots {
		if r != roots[i/4*4] {
			t.Errorf("root %d differs from its scheme's workers=0 root", i)
		}
	}
}
