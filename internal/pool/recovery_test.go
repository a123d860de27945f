package pool

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rpol/internal/checkpoint"
	"rpol/internal/commitment"
	"rpol/internal/fsio"
	"rpol/internal/journal"
	"rpol/internal/netsim"
	"rpol/internal/obs"
	"rpol/internal/parallel"
	"rpol/internal/rpol"
)

// setWorkers sets the process compute setting (parallel.SetDefaultWorkers)
// to n until the test ends. A trainer reads it when it builds its runtime.
func setWorkers(t testing.TB, n int) {
	prev := parallel.DefaultWorkers()
	parallel.SetDefaultWorkers(n)
	t.Cleanup(func() { parallel.SetDefaultWorkers(prev) })
}

// journaledConfig is the recovery suite's pool: small enough to sweep every
// crash point, structured enough (multiple checkpoints per epoch, multiple
// workers, sampled verification) that the crash points land in every phase
// of the durable write schedule.
func journaledConfig(dir string, fs fsio.FS) Config {
	return Config{
		TaskName:        "resnet18-cifar10",
		Scheme:          rpol.SchemeV2,
		NumWorkers:      2,
		StepsPerEpoch:   6,
		CheckpointEvery: 2,
		Samples:         2,
		Seed:            99,
		Journal:         dir,
		FS:              fs,
	}
}

func sealSummary(s journal.Seal) epochSummary {
	return epochSummary{
		Epoch:           s.Epoch,
		TestAccuracy:    s.TestAccuracy,
		Accepted:        s.Accepted,
		Rejected:        s.Rejected,
		Absent:          s.Absent,
		Detected:        s.Detected,
		Missed:          s.Missed,
		FalseRejections: s.FalseRejections,
		VerifyCommBytes: s.VerifyCommBytes,
		ReexecSteps:     s.ReexecSteps,
	}
}

func globalDigest(p *Pool) uint64 {
	return fsio.Checksum(p.Manager().Global().Encode())
}

func sameRewards(a, b map[string]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// baseline is the uninterrupted journaled run's ground truth: per-epoch
// summaries, the final global model digest, the reward ledger, the model's
// dimension, and the total number of durable operations the run issued (the
// crash sweep's schedule size).
type baseline struct {
	summaries []epochSummary
	digest    uint64
	rewards   map[string]float64
	dim       int
	ops       uint64
	roots     map[string][]byte // journaled Merkle root per epoch/worker
}

// sweep is the pool a crash sweep runs: journaledConfig, optionally under a
// fault plan. wrap, when non-nil, layers a test filesystem between the pool
// and the FaultFS below it — the counting one of the baseline run, the
// crashing one of each swept run.
type sweep struct {
	faults *netsim.FaultPlan
	wrap   func(fsio.FS) fsio.FS
}

func (s sweep) config(dir string, fs fsio.FS) Config {
	cfg := journaledConfig(dir, fs)
	cfg.Faults = s.faults
	return cfg
}

// runBaseline runs the uninterrupted journaled pool.
func runBaseline(t *testing.T, s sweep, epochs int) baseline {
	t.Helper()
	counter := fsio.NewFaultFS(fsio.OS, nil)
	var fs fsio.FS = counter
	if s.wrap != nil {
		fs = s.wrap(fs)
	}
	dir := t.TempDir()
	p, err := New(s.config(dir, fs))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	history, err := p.RunEpochs(epochs)
	if err != nil {
		t.Fatal(err)
	}
	summaries := make([]epochSummary, len(history))
	for i, s := range history {
		summaries[i] = summarize(s)
	}
	roots, err := journalRoots(dir)
	if err != nil {
		t.Fatal(err)
	}
	return baseline{summaries, globalDigest(p), p.Rewards(), len(p.Manager().Global()), counter.Writes(), roots}
}

// journalRoots collects the Merkle root of every commit record in dir's
// journal, keyed by epoch and worker; records of one key — a crashed
// attempt's and its retry's — must agree.
func journalRoots(dir string) (map[string][]byte, error) {
	wal, err := os.ReadFile(filepath.Join(dir, journalFile))
	if err != nil {
		return nil, err
	}
	rec, err := journal.Recover(wal)
	if err != nil {
		return nil, err
	}
	roots := make(map[string][]byte)
	for _, r := range rec.Records {
		if r.Kind() != journal.KindCommit {
			continue
		}
		c, err := journal.DecodeCommit(r.Body)
		if err != nil {
			return nil, err
		}
		key := fmt.Sprintf("%d/%s", c.Epoch, c.Worker)
		if prev, ok := roots[key]; ok && !bytes.Equal(prev, c.Root) {
			return nil, fmt.Errorf("%s committed root %x, then %x", key, prev, c.Root)
		}
		roots[key] = c.Root
	}
	return roots, nil
}

// TestJournaledRunMatchesPlainSchedule sanity-checks the baseline itself:
// two journaled runs with the same seed in different directories are
// bit-identical, and journaling leaves the zero-false-rejection invariant
// intact.
func TestJournaledRunIsDeterministic(t *testing.T) {
	first, second := runBaseline(t, sweep{}, 2), runBaseline(t, sweep{}, 2)
	for e := range first.summaries {
		if first.summaries[e] != second.summaries[e] {
			t.Fatalf("epoch %d diverged between journaled runs:\n  %+v\n  %+v", e, first.summaries[e], second.summaries[e])
		}
		if first.summaries[e].FalseRejections != 0 {
			t.Fatalf("epoch %d: journaled honest pool rejected %d honest workers", e, first.summaries[e].FalseRejections)
		}
	}
	if first.digest != second.digest {
		t.Fatalf("global digests diverged: %x vs %x", first.digest, second.digest)
	}
	if first.ops != second.ops || first.ops < 20 {
		t.Fatalf("%d and %d durable operations across 2 epochs; the crash sweep needs one dense, repeatable schedule", first.ops, second.ops)
	}
}

// TestJournalChangesNoOutcome: a journal changes what is written, never an
// outcome. The same configuration, an adversary among its workers, gives
// equal epoch stats — β, verification bytes, verdicts, accuracy — and an
// equal global model with and without one, epoch after epoch.
func TestJournalChangesNoOutcome(t *testing.T) {
	const epochs = 3
	run := func(dir string) ([]string, uint64) {
		t.Helper()
		cfg := journaledConfig(dir, nil)
		cfg.Adv2Fraction = 0.5
		p, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		stats := make([]string, epochs)
		for e := range stats {
			s, err := p.RunEpoch()
			if err != nil {
				t.Fatal(err)
			}
			stats[e] = fmt.Sprintf("%+v β=%v", summarize(s), s.Calibration.Beta)
		}
		return stats, globalDigest(p)
	}
	plain, plainDigest := run("")
	journaled, journaledDigest := run(t.TempDir())
	for e := range plain {
		if plain[e] != journaled[e] {
			t.Errorf("epoch %d:\n  without a journal %s\n  with a journal    %s", e, plain[e], journaled[e])
		}
	}
	if plainDigest != journaledDigest {
		t.Errorf("global digest %x without a journal, %x with one", plainDigest, journaledDigest)
	}
}

// TestResumeAfterCleanStop is the graceful half of recovery: run one epoch,
// close the pool, reopen with Resume, run the second epoch — and the spliced
// history must be bit-identical to the uninterrupted run.
func TestResumeAfterCleanStop(t *testing.T) {
	const epochs = 2
	base := runBaseline(t, sweep{}, epochs)
	want, wantDigest, wantRewards := base.summaries, base.digest, base.rewards

	dir := t.TempDir()
	p, err := New(journaledConfig(dir, nil))
	if err != nil {
		t.Fatal(err)
	}
	stats, err := p.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	got := []epochSummary{summarize(stats)}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(filepath.Join(dir, "epoch.wal"))
	if err != nil {
		t.Fatal(err)
	}
	journaled, err := journal.Recover(data)
	if err != nil {
		t.Fatal(err)
	}
	rcfg := journaledConfig(dir, nil)
	rcfg.Resume = true
	rcfg.Obs = obs.NewObserver(obs.NewRegistry(), nil)
	rcfg.Obs.AttachEvents(obs.NewEvents(0, nil))
	resumed, err := New(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	if resumed.CompletedEpochs() != 1 {
		t.Fatalf("resumed pool at epoch %d, want 1", resumed.CompletedEpochs())
	}
	// The resume is counted and announced once, and replays every record
	// the first run journaled.
	if n := rcfg.Obs.Counter("pool_resumes_total").Value(); n != 1 {
		t.Errorf("pool_resumes_total = %d, want 1", n)
	}
	if n := rcfg.Obs.Counter("recovery_replayed_total").Value(); n != int64(len(journaled.Records)) {
		t.Errorf("recovery_replayed_total = %d, the journal holds %d records", n, len(journaled.Records))
	}
	evs, _, _ := rcfg.Obs.Events().Since(0)
	kinds := map[string]int{}
	for _, ev := range evs {
		kinds[ev.Kind]++
	}
	if kinds[obs.EventPoolResumed] != 1 || kinds[obs.EventJournalRecovery] != 1 {
		t.Errorf("resume published %v, want one %s and one %s", kinds, obs.EventPoolResumed, obs.EventJournalRecovery)
	}
	if rec := resumed.recovered; len(rec) != 1 || sealSummary(rec[0]) != got[0] {
		t.Fatalf("recovered seals %+v do not match the epoch actually run", rec)
	}
	for resumed.CompletedEpochs() < epochs {
		stats, err := resumed.RunEpoch()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, summarize(stats))
	}
	for e := range want {
		if got[e] != want[e] {
			t.Fatalf("epoch %d diverged after clean-stop resume:\n  want %+v\n  got  %+v", e, want[e], got[e])
		}
	}
	if d := globalDigest(resumed); d != wantDigest {
		t.Fatalf("global digest %x after resume, want %x", d, wantDigest)
	}
	if !sameRewards(resumed.Rewards(), wantRewards) {
		t.Fatalf("rewards %v after resume, want %v", resumed.Rewards(), wantRewards)
	}
}

// TestCrashRecoveryEquivalence is the exhaustive crash sweep: for every
// durable-operation ordinal in the baseline schedule — every append, every
// sync, every atomic write — run the pool with a fault plan that kills the
// filesystem at exactly that operation (costing every open file its
// un-synced tail), check that what survived on disk still honours the sync
// points' promises, then resume from it and finish the run. Every crash
// point must recover to EpochStats, a reward ledger, and a global model
// bit-identical to the uninterrupted run — at process compute settings 0 (no
// goroutines, the default), 1 and 4. The subtests run one after another:
// the setting belongs to the process.
func TestCrashRecoveryEquivalence(t *testing.T) {
	const epochs = 2
	for _, workers := range []int{0, 1, 4} {
		t.Run(fmt.Sprintf("workers-%d", workers), func(t *testing.T) {
			setWorkers(t, workers)
			base := runBaseline(t, sweep{}, epochs)

			// -short keeps a representative stride through the schedule;
			// the full sweep (CI's crash-soak step) hits every ordinal.
			stride := uint64(1)
			if testing.Short() {
				stride = 7
			}
			var adopted int64
			for ord := uint64(0); ord < base.ops; ord += stride {
				n, err := crashAndRecover(t.TempDir(), sweep{}, epochs, ord, base)
				if err != nil {
					t.Fatalf("ordinal %d of %d: %v", ord, base.ops, err)
				}
				adopted += n
			}
			// Retraining everything is always safe, so equivalence alone
			// would pass with recovery doing nothing. An adopted prefix is
			// re-pushed into the streaming tree, and crashAndRecover holds
			// the root the resumed epoch commits to the uncrashed one.
			if adopted == 0 {
				t.Errorf("no crash point among %d resumed from a durable checkpoint", base.ops)
			}
		})
	}
}

// downInFirstEpoch returns the first crash-only fault plan, by seed, that
// takes exactly one of journaledConfig's two workers down for epoch 0 and
// neither for epoch 1.
func downInFirstEpoch(t *testing.T) *netsim.FaultPlan {
	t.Helper()
	for seed := int64(1); seed < 1000; seed++ {
		plan := netsim.NewFaultPlan(seed, netsim.FaultConfig{CrashRate: 0.5, MaxCrashLen: 1})
		down0 := plan.WorkerDown("worker-00", 0) != plan.WorkerDown("worker-01", 0)
		up1 := !plan.WorkerDown("worker-00", 1) && !plan.WorkerDown("worker-01", 1)
		if down0 && up1 {
			return plan
		}
	}
	t.Fatal("no seed below 1000 takes one worker down for epoch 0 only")
	return nil
}

// TestCrashRecoveryAfterDownEpoch: a worker that was down for a sealed epoch
// trained nothing in it, and recovery has nothing to replay for it. Under a
// fault plan that takes one honest worker down for epoch 0, a crash at every
// durable ordinal of epoch 1 (a stride of them under -short) resumes to the
// uninterrupted run's EpochStats, reward ledger and global model.
func TestCrashRecoveryAfterDownEpoch(t *testing.T) {
	const epochs = 2
	s := sweep{faults: downInFirstEpoch(t)}
	base := runBaseline(t, s, epochs)
	if base.summaries[0].Absent != 1 || base.summaries[1].Absent != 0 {
		t.Fatalf("absences %d and %d in epochs 0 and 1, want 1 and 0", base.summaries[0].Absent, base.summaries[1].Absent)
	}
	// Epoch 1's durable operations follow the ones a one-epoch run issues.
	sealed := runBaseline(t, s, 1).ops
	stride := uint64(1)
	if testing.Short() {
		stride = 5
	}
	for ord := sealed; ord < base.ops; ord += stride {
		if _, err := crashAndRecover(t.TempDir(), s, epochs, ord, base); err != nil {
			t.Fatalf("ordinal %d of %d: %v", ord, base.ops, err)
		}
	}
}

// dropSegmentSyncFS is the sweep's negative control: a filesystem on which a
// worker's pre-commit barrier never happens. Syncs on files under a ckpt-*
// directory are swallowed before they reach the FaultFS below, so the bytes
// they should have covered stay un-synced there.
type dropSegmentSyncFS struct{ fsio.FS }

func (f dropSegmentSyncFS) Append(path string) (fsio.Appender, error) {
	ap, err := f.FS.Append(path)
	if err != nil || !strings.HasPrefix(filepath.Base(filepath.Dir(path)), "ckpt-") {
		return ap, err
	}
	return noSyncAppender{ap}, nil
}

type noSyncAppender struct{ fsio.Appender }

func (noSyncAppender) Sync() error { return nil }

// TestCrashSweepCatchesMissingWorkerSync shows the sweep bites: with the
// worker's pre-commit Sync removed, some crash point leaves a journaled
// commitment whose checkpoints are not all on disk, and the sweep says so.
func TestCrashSweepCatchesMissingWorkerSync(t *testing.T) {
	const epochs = 2
	s := sweep{wrap: func(fs fsio.FS) fsio.FS { return dropSegmentSyncFS{fs} }}
	base := runBaseline(t, s, epochs)
	caught := 0
	for ord := uint64(0); ord < base.ops; ord++ {
		_, err := crashAndRecover(t.TempDir(), s, epochs, ord, base)
		switch {
		case err == nil:
		case errors.Is(err, errDurability):
			caught++
		default:
			// Losing checkpoints costs retraining, never correctness.
			t.Fatalf("ordinal %d: %v", ord, err)
		}
	}
	if caught == 0 {
		t.Fatalf("no crash point among %d exposed the missing pre-commit sync", base.ops)
	}
	t.Logf("%d of %d crash points exposed the missing pre-commit sync", caught, base.ops)
}

// errDurability marks a crash survivor that breaks a sync point's promise.
var errDurability = errors.New("durability invariant violated")

// checkDurable reads what a crash left in dir and checks the promises the
// protocol's sync points make about it: a journaled commitment implies its
// worker's segment holds every committed checkpoint intact (the worker
// synced before it answered), and a journaled seal implies a state snapshot
// at least that recent (state.bin lands before the seal).
func checkDurable(dir string, dim int) error {
	data, err := fsio.OS.ReadFile(filepath.Join(dir, journalFile))
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	rec, err := journal.Recover(data)
	if err != nil {
		return fmt.Errorf("surviving journal: %v: %w", err, errDurability)
	}
	st, err := journal.Reconstruct(rec.Records)
	if err != nil {
		return fmt.Errorf("surviving journal: %v: %w", err, errDurability)
	}
	if len(st.Sealed) > 0 {
		if _, err := fsio.OS.ReadFile(filepath.Join(dir, stateFile)); err != nil {
			return fmt.Errorf("%d epochs sealed but no state snapshot: %w", len(st.Sealed), errDurability)
		}
	}
	for _, c := range st.Commits {
		seg, err := fsio.OS.ReadFile(filepath.Join(dir, "ckpt-"+c.Worker, "segment.bin"))
		if err != nil {
			return fmt.Errorf("epoch %d: %s committed, segment unreadable (%v): %w", c.Epoch, c.Worker, err, errDurability)
		}
		frames, _, stop := checkpoint.ScanSegment(seg, c.Epoch, st.Task.GlobalDigest, dim, c.NumCheckpoints)
		if len(frames) != c.NumCheckpoints-1 || stop != nil {
			return fmt.Errorf("epoch %d: %s committed %d checkpoints, segment holds %d after the header (%v): %w",
				c.Epoch, c.Worker, c.NumCheckpoints, len(frames), stop, errDurability)
		}
	}
	return nil
}

// crashAndRecover replays one crash point: run against a FaultFS that dies
// at durable-operation ordinal ord, check the survivor's durability
// invariants, then resume on the real filesystem and compare the spliced
// history against the baseline. It returns how many durable checkpoints the
// resumed workers adopted.
func crashAndRecover(dir string, s sweep, epochs int, ord uint64, base baseline) (int64, error) {
	var crashFS fsio.FS = fsio.NewFaultFS(fsio.OS, fsio.CrashAtWrite(int64(ord)+1, ord))
	if s.wrap != nil {
		crashFS = s.wrap(crashFS)
	}
	sawCrash := false
	crashed, err := New(s.config(dir, crashFS))
	if err != nil {
		if !errors.Is(err, fsio.ErrInjectedCrash) {
			return 0, fmt.Errorf("New failed with non-injected error: %w", err)
		}
		sawCrash = true
	} else {
		for e := 0; e < epochs; e++ {
			if _, err := crashed.RunEpoch(); err != nil {
				if !errors.Is(err, fsio.ErrInjectedCrash) {
					return 0, fmt.Errorf("epoch failed with non-injected error: %w", err)
				}
				sawCrash = true
				break
			}
		}
		_ = crashed.Close() // the handle may already be down; release it regardless
	}
	if !sawCrash {
		return 0, errors.New("run completed without hitting the injected crash (write schedule drifted from the baseline count)")
	}
	if err := checkDurable(dir, base.dim); err != nil {
		return 0, err
	}

	rcfg := s.config(dir, nil)
	rcfg.Resume = true
	rcfg.Obs = obs.NewObserver(obs.NewRegistry(), nil)
	resumed, err := New(rcfg)
	if err != nil {
		return 0, fmt.Errorf("resume: %w", err)
	}
	defer resumed.Close()
	got := make([]epochSummary, 0, epochs)
	for _, seal := range resumed.recovered {
		got = append(got, sealSummary(seal))
	}
	for resumed.CompletedEpochs() < epochs {
		stats, err := resumed.RunEpoch()
		if err != nil {
			return 0, fmt.Errorf("resumed epoch: %w", err)
		}
		got = append(got, summarize(stats))
	}
	if len(got) != len(base.summaries) {
		return 0, fmt.Errorf("recovered %d epochs, want %d", len(got), len(base.summaries))
	}
	for e, want := range base.summaries {
		if got[e] != want {
			return 0, fmt.Errorf("epoch %d diverged after crash recovery:\n  want %+v\n  got  %+v", e, want, got[e])
		}
	}
	if d := globalDigest(resumed); d != base.digest {
		return 0, fmt.Errorf("global digest %x after recovery, want %x", d, base.digest)
	}
	roots, err := journalRoots(dir)
	if err != nil {
		return 0, err
	}
	for key, want := range base.roots {
		if !bytes.Equal(roots[key], want) {
			return 0, fmt.Errorf("%s committed root %x after recovery, want %x", key, roots[key], want)
		}
	}
	if !sameRewards(resumed.Rewards(), base.rewards) {
		return 0, fmt.Errorf("rewards %v after recovery, want %v", resumed.Rewards(), base.rewards)
	}
	return rcfg.Obs.Counter("rpol_resumed_checkpoints_total").Value(), nil
}

// TestResumeMerkleCommit replays the clean-stop resume and holds the
// journal to what it promises about commitments: every commit record carries
// the worker's 32-byte Merkle root, its digest the root's checksum and its
// leaf count the task's, and a resumed pool splices into a history
// bit-identical to the uninterrupted run.
func TestResumeMerkleCommit(t *testing.T) {
	const epochs = 2
	merkled := func(dir string) Config { return journaledConfig(dir, nil) }

	base, err := New(merkled(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()
	history, err := base.RunEpochs(epochs)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]epochSummary, len(history))
	for i, s := range history {
		want[i] = summarize(s)
	}
	wantDigest := globalDigest(base)

	dir := t.TempDir()
	p, err := New(merkled(dir))
	if err != nil {
		t.Fatal(err)
	}
	stats, err := p.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	got := []epochSummary{summarize(stats)}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	wal, err := os.ReadFile(filepath.Join(dir, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	rec, err := journal.Recover(wal)
	if err != nil {
		t.Fatal(err)
	}
	commits := 0
	for _, r := range rec.Records {
		if r.Kind() != journal.KindCommit {
			continue
		}
		c, err := journal.DecodeCommit(r.Body)
		if err != nil {
			t.Fatal(err)
		}
		commits++
		if len(c.Root) != commitment.HashSize || c.Digest != fsio.Checksum(c.Root) || c.NumCheckpoints != (rpol.TaskParams{Steps: p.cfg.StepsPerEpoch, CheckpointEvery: p.cfg.CheckpointEvery}).NumCheckpoints() {
			t.Errorf("commit record %+v: want a %d-byte root, its checksum and the task's leaf count", c, commitment.HashSize)
		}
	}
	if commits != p.cfg.NumWorkers {
		t.Errorf("%d commit records for %d workers", commits, p.cfg.NumWorkers)
	}

	rcfg := merkled(dir)
	rcfg.Resume = true
	resumed, err := New(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	if resumed.CompletedEpochs() != 1 {
		t.Fatalf("resumed pool at epoch %d, want 1", resumed.CompletedEpochs())
	}
	for resumed.CompletedEpochs() < epochs {
		stats, err := resumed.RunEpoch()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, summarize(stats))
	}
	for e := range want {
		if got[e] != want[e] {
			t.Fatalf("epoch %d diverged after resume:\n  want %+v\n  got  %+v", e, want[e], got[e])
		}
	}
	if d := globalDigest(resumed); d != wantDigest {
		t.Fatalf("global digest %x after resume, want %x", d, wantDigest)
	}
}
