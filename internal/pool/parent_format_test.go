package pool

import (
	"path/filepath"
	"strings"
	"testing"

	"rpol/internal/fsio"
	"rpol/internal/obs"
)

// TestResumeParentFormatJournal resumes a journal directory the parent
// commit (PR 22) wrote: testdata/journal_pr22 holds the epoch.wal and
// state.bin of a 2-worker pool that sealed epoch 0 and crashed inside epoch 1
// while a worker was journaling a `ckpt` record. That build kept one
// ckpt-N.bin file per checkpoint beside the journal (recreated here; their
// content no longer matters). This build skips the `ckpt` records, retrains
// the in-flight epoch, clears the old files at its first truncation, and
// ends on the model an uninterrupted run of this build produces.
func TestResumeParentFormatJournal(t *testing.T) {
	const epochs = 2
	config := func(dir string) Config {
		cfg := journaledConfig(1, dir, nil)
		cfg.CheckpointEvery = 3 // what the parent's recovery suite ran
		return cfg
	}
	fresh, err := New(config(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	want, err := fresh.RunEpochs(epochs)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	for _, name := range []string{journalFile, stateFile} {
		data, err := fsio.OS.ReadFile(filepath.Join("testdata", "journal_pr22", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := fsio.OS.WriteFileAtomic(filepath.Join(dir, name), data); err != nil {
			t.Fatal(err)
		}
	}
	for _, worker := range []string{"worker-00", "worker-01"} {
		ckpt := filepath.Join(dir, "ckpt-"+worker)
		if err := fsio.OS.MkdirAll(ckpt); err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"ckpt-0.bin", "ckpt-1.bin", "ckpt-2.bin"} {
			if err := fsio.OS.WriteFileAtomic(filepath.Join(ckpt, name), fsio.EncodeFile([]byte("a parent-format checkpoint"))); err != nil {
				t.Fatal(err)
			}
		}
	}

	cfg := config(dir)
	cfg.Resume = true
	cfg.Obs = obs.NewObserver(obs.NewRegistry(), nil)
	resumed, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	if resumed.CompletedEpochs() != 1 {
		t.Fatalf("resumed at epoch %d, want 1", resumed.CompletedEpochs())
	}
	// The parent's pool committed with an inline hash list and its verifier
	// re-opened leaves it already held, so its seal bills other verification
	// bytes; every other number is this build's.
	rec := resumed.Recovered()
	if len(rec) != 1 {
		t.Fatalf("recovered %d seals, want 1", len(rec))
	}
	parent, this := sealSummary(rec[0]), summarize(want[0])
	parent.VerifyCommBytes = this.VerifyCommBytes
	if parent != this {
		t.Fatalf("the parent's seal of epoch 0 %+v is not this build's epoch 0 %+v", rec, this)
	}
	stats, err := resumed.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if summarize(stats) != summarize(want[1]) {
		t.Fatalf("epoch 1 after resuming the parent's journal:\n  want %+v\n  got  %+v", summarize(want[1]), summarize(stats))
	}
	if got, want := globalDigest(resumed), globalDigest(fresh); got != want {
		t.Fatalf("global digest %x, want %x", got, want)
	}
	if n := cfg.Obs.Counter("rpol_resumed_checkpoints_total").Value(); n != 0 {
		t.Errorf("adopted %d checkpoints from a format this build does not read", n)
	}
	for _, worker := range []string{"worker-00", "worker-01"} {
		names, err := fsio.OS.ReadDir(filepath.Join(dir, "ckpt-"+worker))
		if err != nil {
			t.Fatal(err)
		}
		if len(names) != 1 || strings.HasPrefix(names[0], "ckpt-") {
			t.Errorf("ckpt-%s holds %v after an epoch, want only the segment", worker, names)
		}
	}
}
