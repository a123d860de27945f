package rpol

import (
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"testing"

	"rpol/internal/commitment"
	"rpol/internal/dataset"
	"rpol/internal/fsio"
	"rpol/internal/gpu"
	"rpol/internal/journal"
	"rpol/internal/nn"
	"rpol/internal/obs"
	"rpol/internal/tensor"
)

// flakyWorker wraps a Worker and fails collection with cause on epoch 0 —
// ErrWorkerUnavailable imitates a transport that exhausted its retry budget
// against a crashed peer.
type flakyWorker struct {
	Worker
	cause error
}

func (f *flakyWorker) RunEpoch(p TaskParams) (*EpochResult, error) {
	if p.Epoch == 0 {
		return nil, fmt.Errorf("test: %s down: %w", f.Worker.ID(), f.cause)
	}
	return f.Worker.RunEpoch(p)
}

// buildQuorumPool assembles three honest workers under the given collection
// mode, journal (nil for none) and an observer of its own, and wraps the
// first worker as wrap says (nil leaves it honest).
func buildQuorumPool(t *testing.T, concurrent bool, wrap func(Worker) Worker, j *journal.Journal) (*Manager, *obs.Observer) {
	t.Helper()
	return buildTestPool(t, 3, wrap, func(cfg *ManagerConfig) {
		cfg.ConcurrentCollection, cfg.Journal = concurrent, j
	})
}

// buildTestPool assembles n honest workers, wA, wB, …, and a manager with an
// observer of its own, as tune adjusts the configuration (nil keeps it),
// and wraps the first worker as wrap says (nil leaves it honest).
func buildTestPool(t *testing.T, n int, wrap func(Worker) Worker, tune func(*ManagerConfig)) (*Manager, *obs.Observer) {
	t.Helper()
	ds, err := dataset.Generate(dataset.Config{
		Name: "quorum-pool", NumClasses: 4, Dim: 8, Size: 1200, ClusterStd: 0.4, Seed: 55,
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
	if wrap != nil {
		workers[0] = wrap(workers[0])
	}
	observer := obs.NewObserver(obs.NewRegistry(), nil)
	cfg := ManagerConfig{
		Address:         "pool-manager",
		Scheme:          SchemeV2,
		Hyper:           Hyper{Optimizer: "sgdm", LR: 0.05, BatchSize: 8},
		StepsPerEpoch:   15,
		CheckpointEvery: 5,
		Samples:         3,
		GPU:             gpu.G3090,
		MasterKey:       []byte("master"),
		Seed:            99,
		Obs:             observer,
	}
	if tune != nil {
		tune(&cfg)
	}
	mgr, err := NewManager(cfg, mustNet(t), workers, shardMap, shards[n])
	if err != nil {
		t.Fatal(err)
	}
	return mgr, observer
}

// down fails a worker's epoch-0 collection with cause.
func down(cause error) func(Worker) Worker {
	return func(w Worker) Worker { return &flakyWorker{Worker: w, cause: cause} }
}

func mustNet(t *testing.T) *nn.Network {
	t.Helper()
	net, _ := testTask(t, 30)
	return net
}

func TestManagerQuorumRecordsAbsent(t *testing.T) {
	for _, concurrent := range []bool{false, true} {
		t.Run(fmt.Sprintf("concurrent=%v", concurrent), func(t *testing.T) {
			mgr, _ := buildQuorumPool(t, concurrent, down(ErrWorkerUnavailable), nil)
			report, err := mgr.RunEpoch()
			if err != nil {
				t.Fatal(err)
			}
			if report.Absent != 1 || report.Accepted != 2 || report.Rejected != 0 {
				t.Fatalf("absent=%d accepted=%d rejected=%d, want 1/2/0",
					report.Absent, report.Accepted, report.Rejected)
			}
			if len(report.Outcomes) != 3 {
				t.Fatalf("outcomes = %d, want one per worker", len(report.Outcomes))
			}
			o := report.Outcomes[0]
			if o.Outcome != OutcomeAbsent || o.Accepted || o.WorkerID != "wA" {
				t.Fatalf("worker 0 outcome = %+v, want absent wA", o)
			}
			for _, o := range report.Outcomes[1:] {
				if o.Outcome != OutcomeAccepted || !o.Accepted {
					t.Fatalf("responsive worker outcome = %+v", o)
				}
			}

			// Epoch 1: the worker is back; everyone participates again.
			report, err = mgr.RunEpoch()
			if err != nil {
				t.Fatal(err)
			}
			if report.Absent != 0 || report.Accepted != 3 {
				t.Fatalf("epoch 1: absent=%d accepted=%d, want 0/3", report.Absent, report.Accepted)
			}
		})
	}
}

// TestManagerStrictModeAbortsOnUnavailable: a collection failure that is not
// an unreachable worker aborts the epoch, in both collection modes — only
// ErrWorkerUnavailable makes a worker absent.
func TestManagerStrictModeAbortsOnUnavailable(t *testing.T) {
	cause := errors.New("test: disk full")
	for _, concurrent := range []bool{false, true} {
		mgr, _ := buildQuorumPool(t, concurrent, down(cause), nil)
		_, err := mgr.RunEpoch()
		if !errors.Is(err, cause) || errors.Is(err, ErrWorkerUnavailable) {
			t.Fatalf("concurrent=%v: err = %v, want the collection failure surfaced as it is", concurrent, err)
		}
	}
}

// TestManagerQuorumNotMet: with every worker unreachable no submission
// arrives, and the epoch fails with an availability error rather than
// settle.
func TestManagerQuorumNotMet(t *testing.T) {
	for _, concurrent := range []bool{false, true} {
		mgr, _ := buildQuorumPool(t, concurrent, nil, nil)
		for i, w := range mgr.workers {
			mgr.workers[i] = &flakyWorker{Worker: w, cause: ErrWorkerUnavailable}
		}
		if _, err := mgr.RunEpoch(); !errors.Is(err, ErrWorkerUnavailable) {
			t.Fatalf("concurrent=%v: err = %v, want a failure wrapping ErrWorkerUnavailable", concurrent, err)
		}
	}
}

// dodger trains honestly, then forges one interval: it commits its trace with
// leaf forged replaced by noise, and goes silent (ErrWorkerUnavailable)
// whenever that leaf is asked for, as a worker that drops its connection to
// dodge the challenge would.
type dodger struct {
	*HonestWorker
	forged int
	opener ProofOpener
}

func (d *dodger) RunEpoch(p TaskParams) (*EpochResult, error) {
	res, err := d.HonestWorker.RunEpoch(p)
	if err != nil {
		return nil, err
	}
	trace := &Trace{Checkpoints: slices.Clone(d.LastTrace().Checkpoints)}
	trace.Checkpoints[d.forged] = tensor.NewRNG(1).NormalVector(len(p.Global), 0, 1)
	ec, err := CommitTrace(nil, trace.Checkpoints, p.LSH)
	if err != nil {
		return nil, err
	}
	ec.Apply(res)
	d.opener = &faultyOpener{inner: ec, at: d.forged,
		err: fmt.Errorf("test: %s silent: %w", d.ID(), ErrWorkerUnavailable)}
	return res, nil
}

func (d *dodger) OpenCheckpoint(idx int) (tensor.Vector, error) { return d.opener.OpenCheckpoint(idx) }

func (d *dodger) OpenProof(idx int) (LeafProof, error) { return d.opener.OpenProof(idx) }

// TestManagerAbsentAfterCommit: a worker that commits a forged interval and
// goes silent when the interval is sampled (every interval is, here) is
// absent, not rejected. It is never accepted and never aggregated, its
// commitment and its verdict are journaled, its sampled intervals are the ones
// re-derived from the journaled root, and it is counted by
// rpol_absent_total, never by rpol_rejected_total.
func TestManagerAbsentAfterCommit(t *testing.T) {
	for _, concurrent := range []bool{false, true} {
		t.Run(fmt.Sprintf("concurrent=%v", concurrent), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "epoch.wal")
			j, err := journal.Create(fsio.OS, path, nil)
			if err != nil {
				t.Fatal(err)
			}
			mgr, observer := buildQuorumPool(t, concurrent, func(w Worker) Worker {
				return &dodger{HonestWorker: w.(*HonestWorker), forged: 1}
			}, j)
			report, err := mgr.RunEpoch()
			if err != nil {
				t.Fatal(err)
			}
			if report.Absent != 1 || report.Accepted != 2 || report.Rejected != 0 {
				t.Fatalf("absent=%d accepted=%d rejected=%d, want 1/2/0", report.Absent, report.Accepted, report.Rejected)
			}
			o := report.Outcomes[0]
			if o.Outcome != OutcomeAbsent || o.Accepted || !errors.Is(o.FailReason, ErrWorkerUnavailable) || len(o.SampledCheckpoints) == 0 {
				t.Fatalf("dodger outcome %v (%v) after sampling %v, want absent after its samples were drawn",
					o.Outcome, o.FailReason, o.SampledCheckpoints)
			}
			for name, want := range map[string]int64{"rpol_rejected_total": 0, "rpol_absent_total": 1, "rpol_accepted_total": 2} {
				if got := observer.Counter(name).Value(); got != want {
					t.Errorf("%s = %d, want %d", name, got, want)
				}
			}
			// Not aggregated: the global is the one an absence before
			// committing leaves.
			ref, _ := buildQuorumPool(t, concurrent, down(ErrWorkerUnavailable), nil)
			if _, err := ref.RunEpoch(); err != nil {
				t.Fatal(err)
			}
			if !mgr.Global().Equal(ref.Global(), 0) {
				t.Error("the dodger's update reached the global model")
			}

			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			j, rec, err := journal.Open(fsio.OS, path, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			st, err := journal.Reconstruct(rec.Records)
			if err != nil {
				t.Fatal(err)
			}
			// Its challenge is not journaled: it is re-derived from the
			// journaled commitment.
			commits := 0
			for _, c := range st.Commits {
				if c.Worker == o.WorkerID {
					commits++
					if got := challengeIndices(mgr.cfg.MasterKey, c.Epoch, c.Worker, commitment.Hash(c.Root), c.NumCheckpoints, mgr.cfg.Samples); !slices.Equal(got, o.SampledCheckpoints) {
						t.Errorf("indices re-derived from the journaled root %v, drawn %v", got, o.SampledCheckpoints)
					}
				}
			}
			if commits != 1 {
				t.Errorf("%d commit records for the dodger, want 1", commits)
			}
			for _, v := range st.Verdicts {
				if v.Worker == o.WorkerID && (v.Outcome != "absent" || v.Reason != o.FailReason.Error()) {
					t.Errorf("journaled verdict %+v, want absent with reason %q", v, o.FailReason)
				}
			}
		})
	}
}

func TestOutcomeString(t *testing.T) {
	cases := map[Outcome]string{
		OutcomeAccepted: "accepted",
		OutcomeRejected: "rejected",
		OutcomeAbsent:   "absent",
		Outcome(0):      "unknown",
	}
	for o, want := range cases {
		if o.String() != want {
			t.Errorf("Outcome(%d).String() = %q, want %q", o, o.String(), want)
		}
	}
}
