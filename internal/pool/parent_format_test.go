package pool

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"rpol/internal/fsio"
)

// Parent-format files: testdata/journal_pr22 holds the epoch.wal and
// state.bin of a 2-worker pool that sealed epoch 0 and crashed inside epoch
// 1, written in the JSON-bodied, FNV-checksummed format; testdata/segment_fnv
// holds a checkpoint segment of the same format (its header frame).
// testdata/journal_v2 is the whole directory the same pool left in durable
// format 2, whose journal still held samples records, with a torn frame at
// the end of its journal.
var parentFiles = map[string]string{
	journalFile:                  filepath.Join("testdata", "journal_pr22", journalFile),
	stateFile:                    filepath.Join("testdata", "journal_pr22", stateFile),
	"ckpt-worker-00/segment.bin": filepath.Join("testdata", "segment_fnv", "segment.bin"),
	"ckpt-worker-01/segment.bin": filepath.Join("testdata", "segment_fnv", "segment.bin"),
}

// readTree returns every regular file under dir by slash-separated relative
// path.
func readTree(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	tree := make(map[string][]byte)
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		tree[filepath.ToSlash(rel)] = data
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func sameTree(a, b map[string][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for name, data := range a {
		if other, ok := b[name]; !ok || !bytes.Equal(data, other) {
			return false
		}
	}
	return true
}

// writeFile puts data at dir/name, creating its directory.
func writeFile(t *testing.T, dir, name string, data []byte) {
	t.Helper()
	path := filepath.Join(dir, filepath.FromSlash(name))
	if err := fsio.OS.MkdirAll(filepath.Dir(path)); err != nil {
		t.Fatal(err)
	}
	if err := fsio.OS.WriteFileAtomic(path, data); err != nil {
		t.Fatal(err)
	}
}

// TestResumeParentFormatJournal holds the deliberate format breaks to their
// promise. A directory an earlier format wrote — the JSON-bodied,
// FNV-checksummed journal, state file and segments, or format 2 with its
// samples records — is refused with fsio.ErrVersion and left byte-identical,
// whichever of its files is the foreign one; so is a directory of this build's whose durable files carry a
// single flipped bit in their version header. Refusal happens before the
// journal could read its foreign frames as a torn tail and rewrite them. A
// directory this build wrote, crashed inside epoch 1 like the parent's
// fixture, resumes bit-identically to the uninterrupted run.
func TestResumeParentFormatJournal(t *testing.T) {
	const epochs = 2
	config := func(dir string, fs fsio.FS) Config {
		cfg := journaledConfig(dir, fs)
		cfg.CheckpointEvery = 3 // what the parent's recovery suite ran
		return cfg
	}
	counter := fsio.NewFaultFS(fsio.OS, nil)
	fresh, err := New(config(t.TempDir(), counter))
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	first, err := fresh.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	sealedOps := counter.Writes()
	second, err := fresh.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	want := []epochSummary{summarize(first), summarize(second)}

	// thisBuild writes this build's directory: epoch 0 sealed, then a crash
	// a few durable operations into epoch 1, and a torn frame at the end of
	// the journal — which a resume cuts away, so a refusal that came after
	// the journal's recovery would show as a rewritten file.
	thisBuild := func() string {
		t.Helper()
		dir := t.TempDir()
		crashed, err := New(config(dir, fsio.NewFaultFS(fsio.OS, fsio.CrashAtWrite(1, sealedOps+4))))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := crashed.RunEpochs(epochs); !errors.Is(err, fsio.ErrInjectedCrash) {
			t.Fatalf("the crash inside epoch 1 did not fire: %v", err)
		}
		_ = crashed.Close()
		wal := filepath.Join(dir, journalFile)
		data, err := os.ReadFile(wal)
		if err != nil {
			t.Fatal(err)
		}
		torn := fsio.AppendFrame(nil, []byte("a record cut short"))
		writeFile(t, dir, journalFile, append(data, torn[:len(torn)/2]...))
		return dir
	}
	resume := func(dir string) (*Pool, error) {
		cfg := config(dir, nil)
		cfg.Resume = true
		return New(cfg)
	}
	// refused holds a resume of dir to the typed error and to leaving every
	// file as it was.
	refused := func(t *testing.T, dir string) {
		t.Helper()
		before := readTree(t, dir)
		p, err := resume(dir)
		if err == nil {
			_ = p.Close()
		}
		if !errors.Is(err, fsio.ErrVersion) {
			t.Fatalf("resume err = %v, want fsio.ErrVersion", err)
		}
		if !sameTree(before, readTree(t, dir)) {
			t.Fatal("a refused resume changed the directory")
		}
	}

	t.Run("this build's journal resumes bit-identically", func(t *testing.T) {
		p, err := resume(thisBuild())
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		if rec := p.recovered; len(rec) != 1 || sealSummary(rec[0]) != want[0] {
			t.Fatalf("recovered seals %+v, want epoch 0 %+v", rec, want[0])
		}
		stats, err := p.RunEpoch()
		if err != nil {
			t.Fatal(err)
		}
		if got := summarize(stats); got != want[1] {
			t.Fatalf("epoch 1 after resume:\n  got  %+v\n  want %+v", got, want[1])
		}
		if got, want := globalDigest(p), globalDigest(fresh); got != want {
			t.Fatalf("global digest %x after resume, want %x", got, want)
		}
	})

	t.Run("the parent's directory is refused untouched", func(t *testing.T) {
		dir := t.TempDir()
		for name, src := range parentFiles {
			data, err := os.ReadFile(src)
			if err != nil {
				t.Fatal(err)
			}
			writeFile(t, dir, name, data)
		}
		refused(t, dir)
	})

	// Format 2 differs from this build's only in its version and its samples
	// records: without the version its torn tail would be cut away before
	// the first samples record was refused.
	t.Run("the format-2 directory with a torn tail is refused untouched", func(t *testing.T) {
		dir := t.TempDir()
		for name, data := range readTree(t, filepath.Join("testdata", "journal_v2")) {
			writeFile(t, dir, name, data)
		}
		refused(t, dir)
	})

	// One parent-format file in a directory of this build's: each is
	// checked before the journal replays or rewrites anything.
	for _, name := range []string{journalFile, stateFile, "ckpt-worker-00/segment.bin"} {
		t.Run("parent-format "+name, func(t *testing.T) {
			dir := thisBuild()
			data, err := os.ReadFile(parentFiles[name])
			if err != nil {
				t.Fatal(err)
			}
			writeFile(t, dir, name, data)
			refused(t, dir)
		})
	}

	// Every bit of every durable file's version header.
	for _, name := range []string{journalFile, stateFile, "ckpt-worker-00/segment.bin", "ckpt-worker-01/segment.bin"} {
		t.Run("flipped header bit in "+name, func(t *testing.T) {
			dir := thisBuild()
			good := readTree(t, dir)[name]
			if len(good) < 8 {
				t.Fatalf("%s holds %d bytes, want at least its header", name, len(good))
			}
			for bit := 0; bit < 64; bit++ {
				flipped := append([]byte(nil), good...)
				flipped[bit/8] ^= 1 << (bit % 8)
				writeFile(t, dir, name, flipped)
				refused(t, dir)
			}
		})
	}
}
