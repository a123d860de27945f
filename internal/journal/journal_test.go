package journal

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"rpol/internal/fsio"
	"rpol/internal/obs"
)

func testObserver() *obs.Observer {
	return obs.NewObserver(obs.NewRegistry(), nil)
}

// writeRecords appends n trivially-bodied records and closes the journal.
func writeRecords(t *testing.T, path string, n int) {
	t.Helper()
	j, err := Create(fsio.OS, path, testObserver())
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for i := 0; i < n; i++ {
		if err := j.LogVerdict(Verdict{Epoch: 0, Worker: "w", Outcome: "accepted"}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestAppendReplayRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "epoch.wal")
	j, err := Create(fsio.OS, path, testObserver())
	if err != nil {
		t.Fatal(err)
	}
	if err := j.LogTask(Task{Epoch: 0, GlobalDigest: 42, Workers: 3}); err != nil {
		t.Fatal(err)
	}
	if err := j.LogCommit(Commit{Epoch: 0, Worker: "w-0", Digest: 7, NumCheckpoints: 4}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.LogTask(Task{Epoch: 1}); err == nil {
		t.Fatal("append after close succeeded")
	}

	data, err := fsio.OS.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(data)
	if err != nil {
		t.Fatal(err)
	}
	recs := rec.Records
	if rec.DiscardedTailBytes != 0 || rec.SkippedDuplicates != 0 {
		t.Fatalf("torn=%d dups=%d", rec.DiscardedTailBytes, rec.SkippedDuplicates)
	}
	if len(recs) != 2 || recs[0].Kind() != KindTask || recs[1].Kind() != KindCommit {
		t.Fatalf("records = %+v", recs)
	}
	if recs[0].Seq != 1 || recs[1].Seq != 2 {
		t.Fatalf("seqs = %d, %d", recs[0].Seq, recs[1].Seq)
	}
}

// TestSyncIsTheOnlyBarrier pins the group-commit contract: Log* only frames
// records, Sync hands the whole batch to the file in one append followed by
// one barrier, and a crash before the Sync may lose every record of the
// batch — never one that an earlier Sync covered.
func TestSyncIsTheOnlyBarrier(t *testing.T) {
	path := filepath.Join(t.TempDir(), "epoch.wal")
	counter := fsio.NewFaultFS(fsio.OS, nil)
	j, err := Create(counter, path, testObserver())
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	created := counter.Writes()
	for w := 0; w < 3; w++ {
		if err := j.LogCommit(Commit{Epoch: 0, Worker: "w", NumCheckpoints: 3}); err != nil {
			t.Fatal(err)
		}
	}
	if data, err := fsio.OS.ReadFile(path); err != nil || string(data) != fileHeader {
		t.Fatalf("before Sync the file holds %d bytes (%v), want only its header", len(data), err)
	}
	if got := counter.Writes() - created; got != 0 {
		t.Fatalf("three Log calls issued %d durable operations, want 0", got)
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := counter.Writes() - created; got != 2 {
		t.Fatalf("Sync issued %d durable operations, want one append and one barrier", got)
	}
	data, err := fsio.OS.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if rec, err := Recover(data); err != nil || len(rec.Records) != 3 || rec.DiscardedTailBytes != 0 {
		t.Fatalf("after Sync: %+v, %v", rec, err)
	}
	// A Sync with nothing pending is still a barrier, and writes nothing.
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := counter.Writes() - created; got != 3 {
		t.Fatalf("empty Sync: %d durable operations in total, want 3", got)
	}

	// Crash at the second batch's append (ordinals: create 0, batch 1,
	// sync 2, batch 3): the first batch is intact under every seed, the
	// second survives as a prefix of whole records plus a discarded tail.
	for seed := int64(1); seed <= 16; seed++ {
		path := filepath.Join(t.TempDir(), "epoch.wal")
		j, err := Create(fsio.NewFaultFS(fsio.OS, fsio.CrashAtWrite(seed, 3)), path, testObserver())
		if err != nil {
			t.Fatal(err)
		}
		if err := j.LogTask(Task{Epoch: 0, Workers: 2}); err != nil {
			t.Fatal(err)
		}
		if err := j.Sync(); err != nil {
			t.Fatal(err)
		}
		for w := 0; w < 4; w++ {
			if err := j.LogCommit(Commit{Epoch: 0, Worker: "w", NumCheckpoints: 3}); err != nil {
				t.Fatal(err)
			}
		}
		if err := j.Sync(); !errors.Is(err, fsio.ErrInjectedCrash) {
			t.Fatalf("seed %d: Sync err = %v", seed, err)
		}
		_ = j.Close()
		data, err := fsio.OS.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := Recover(data)
		if err != nil {
			t.Fatal(err)
		}
		if recs := rec.Records; len(recs) < 1 || len(recs) > 5 || rec.SkippedDuplicates != 0 || recs[0].Kind() != KindTask {
			t.Fatalf("seed %d: replayed %d records (%d dups) after a torn batch", seed, len(recs), rec.SkippedDuplicates)
		}
	}
}

func TestReplayTable(t *testing.T) {
	mk := func(n int) []byte {
		var buf []byte
		for i := 1; i <= n; i++ {
			buf = encodeRecord(buf, Record{Seq: uint64(i), Body: Verdict{Worker: "w"}.AppendBody(nil)})
		}
		return buf
	}
	whole := mk(3)
	frame1 := encodeRecord(nil, Record{Seq: 1, Body: Verdict{Worker: "w"}.AppendBody(nil)})

	cases := []struct {
		name     string
		data     []byte
		wantRecs int
		wantTorn bool
		wantDups int
	}{
		{"empty", nil, 0, false, 0},
		{"intact", whole, 3, false, 0},
		{"torn tail", whole[:len(whole)-5], 2, true, 0},
		{"torn mid-length-prefix", whole[:len(frame1)+2], 1, true, 0},
		{"bit flip ends prefix", func() []byte {
			d := append([]byte(nil), whole...)
			d[len(frame1)+17] ^= 0x40 // corrupt the second record's body
			return d
		}(), 1, true, 0},
		{"duplicate seq skipped", append(append([]byte(nil), whole...), whole[:len(frame1)]...), 3, false, 1},
		{"garbage", []byte("not a journal at all"), 0, true, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			recs, torn, dups := Replay(tc.data)
			if len(recs) != tc.wantRecs {
				t.Errorf("records = %d, want %d", len(recs), tc.wantRecs)
			}
			if (torn > 0) != tc.wantTorn {
				t.Errorf("torn = %d, want torn=%v", torn, tc.wantTorn)
			}
			if dups != tc.wantDups {
				t.Errorf("dups = %d, want %d", dups, tc.wantDups)
			}
			for i := 1; i < len(recs); i++ {
				if recs[i].Seq <= recs[i-1].Seq {
					t.Errorf("non-increasing seq at %d", i)
				}
			}
		})
	}
}

func TestOpenDiscardsTornTailAndRewrites(t *testing.T) {
	path := filepath.Join(t.TempDir(), "epoch.wal")
	writeRecords(t, path, 3)
	data, err := fsio.OS.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the last record mid-frame.
	if err := fsio.OS.WriteFileAtomic(path, data[:len(data)-4]); err != nil {
		t.Fatal(err)
	}

	o := testObserver()
	j, rec, err := Open(fsio.OS, path, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 2 || rec.DiscardedTailBytes == 0 {
		t.Fatalf("recovery = %+v", rec)
	}
	if got := o.Counter("recovery_replayed_total").Value(); got != 2 {
		t.Errorf("recovery_replayed_total = %d", got)
	}
	if got := o.Counter("recovery_discarded_tail_total").Value(); got != int64(rec.DiscardedTailBytes) {
		t.Errorf("recovery_discarded_tail_total = %d, the open discarded %d bytes", got, rec.DiscardedTailBytes)
	}
	// The torn tail is physically gone and appends continue the sequence.
	if err := j.LogVerdict(Verdict{Epoch: 0, Worker: "w", Outcome: "rejected"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err = fsio.OS.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rec, err = Recover(data)
	if err != nil {
		t.Fatal(err)
	}
	recs := rec.Records
	if rec.DiscardedTailBytes != 0 || rec.SkippedDuplicates != 0 || len(recs) != 3 {
		t.Fatalf("after reopen: %+v", rec)
	}
	if recs[2].Seq != recs[1].Seq+1 {
		t.Fatalf("sequence not continued: %d after %d", recs[2].Seq, recs[1].Seq)
	}
}

func TestOpenMissingFileIsEmptyJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "none.wal")
	j, rec, err := Open(fsio.OS, path, testObserver())
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if len(rec.Records) != 0 || rec.DiscardedTailBytes != 0 {
		t.Fatalf("recovery = %+v", rec)
	}
	if err := j.LogTask(Task{Epoch: 0}); err != nil {
		t.Fatal(err)
	}

	// A first write torn inside the header is an empty journal too, and the
	// header is rewritten whole.
	torn := filepath.Join(t.TempDir(), "torn.wal")
	if err := fsio.OS.WriteFileAtomic(torn, []byte(fileHeader[:3])); err != nil {
		t.Fatal(err)
	}
	j, rec, err = Open(fsio.OS, torn, testObserver())
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if len(rec.Records) != 0 || rec.DiscardedTailBytes != 3 {
		t.Fatalf("torn header: recovery = %+v", rec)
	}
	if data, err := fsio.OS.ReadFile(torn); err != nil || string(data) != fileHeader {
		t.Fatalf("torn header rewritten as %q (%v)", data, err)
	}
}

func TestJournalRecordsMetric(t *testing.T) {
	o := testObserver()
	j, err := Create(fsio.OS, filepath.Join(t.TempDir(), "m.wal"), o)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for i := 0; i < 5; i++ {
		if err := j.LogVerdict(Verdict{Epoch: 0, Worker: "w", Outcome: "accepted"}); err != nil {
			t.Fatal(err)
		}
	}
	if got := o.Counter("journal_records_total").Value(); got != 5 {
		t.Errorf("journal_records_total = %d", got)
	}
}

func TestReconstructMidEpoch(t *testing.T) {
	recs := []Record{}
	add := func(b body) {
		recs = append(recs, Record{Seq: uint64(len(recs) + 1), Body: b.AppendBody(nil)})
	}
	add(Task{Epoch: 0, GlobalDigest: 1, Workers: 2})
	add(Commit{Epoch: 0, Worker: "w-0", Digest: 5, NumCheckpoints: 3})
	add(Seal{Epoch: 0, Accepted: 2, GlobalDigest: 9, AcceptedWorkers: []string{"w-0", "w-1"}})
	add(Task{Epoch: 1, GlobalDigest: 9, Workers: 2})
	add(Commit{Epoch: 1, Worker: "w-0", Digest: 6, NumCheckpoints: 3})
	add(Verdict{Epoch: 1, Worker: "w-0", Outcome: "accepted"})

	st, err := Reconstruct(recs)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Sealed) != 1 || st.Sealed[0].Epoch != 0 {
		t.Fatalf("sealed = %+v", st.Sealed)
	}
	if st.InFlight != 1 {
		t.Fatalf("in-flight = %d", st.InFlight)
	}
	if st.Task == nil || st.Task.GlobalDigest != 9 {
		t.Fatalf("in-flight task = %+v", st.Task)
	}
	if len(st.Commits) != 1 || st.Commits[0].Worker != "w-0" || st.Commits[0].Digest != 6 {
		t.Fatalf("in-flight commits = %+v", st.Commits)
	}

	if len(st.Verdicts) != 1 || st.Verdicts[0].Outcome != "accepted" {
		t.Fatalf("in-flight verdicts = %+v", st.Verdicts)
	}

	// A retried attempt's task record supersedes the first attempt.
	add(Task{Epoch: 1, GlobalDigest: 9, Workers: 2})
	st, err = Reconstruct(recs)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Commits) != 0 || st.InFlight != 1 {
		t.Fatalf("retried attempt kept stale transitions: %+v", st)
	}
}

func TestReconstructRejectsEpochGaps(t *testing.T) {
	_, err := Reconstruct([]Record{{Seq: 1, Body: Seal{Epoch: 2}.AppendBody(nil)}})
	if err == nil {
		t.Fatal("seal gap accepted")
	}
	_, err = Reconstruct([]Record{{Seq: 1, Body: Task{Epoch: 3}.AppendBody(nil)}})
	if err == nil {
		t.Fatal("task gap accepted")
	}
	// A body that is not this build's format — a truncated field, trailing
	// bytes, another version, an unknown kind, the parent's JSON — is one
	// typed error, never a silent skip.
	task := Task{Epoch: 0, Workers: 2}.AppendBody(nil)
	otherVersion := append([]byte(nil), task...)
	otherVersion[1]++
	for name, body := range map[string][]byte{
		"truncated":     task[:len(task)-1],
		"trailing":      append(append([]byte(nil), task...), 0),
		"other version": otherVersion,
		"unknown kind":  append(fsio.AppendBodyHeader(nil, 'Z'), 0),
		"samples kind":  append(fsio.AppendBodyHeader(nil, 'S'), 0), // retired: a challenge is re-derived
		"json":          []byte(`{"epoch":0,"workers":2}`),
	} {
		if _, err := Reconstruct([]Record{{Seq: 1, Body: body}}); !errors.Is(err, fsio.ErrVersion) {
			t.Errorf("%s body: err = %v, want fsio.ErrVersion", name, err)
		}
	}
}

// TestBodiesRoundTrip holds every record kind's body to an exact round trip,
// negative and empty fields included.
func TestBodiesRoundTrip(t *testing.T) {
	seal := Seal{Epoch: 3, TestAccuracy: 0.1 + 0.2, Accepted: 5, Rejected: 2, Absent: 1, Detected: 2,
		Missed: 0, FalseRejections: -1, VerifyCommBytes: 1 << 40, ReexecSteps: 17, GlobalDigest: ^uint64(0),
		AcceptedWorkers: []string{"w-0", "", "w-2"}}
	got, err := DecodeSeal(seal.AppendBody(nil))
	if err != nil || fmt.Sprint(got) != fmt.Sprint(seal) {
		t.Fatalf("seal %+v, %v; want %+v", got, err, seal)
	}
	commit := Commit{Epoch: 1, Worker: "w-1", Digest: 9, Root: bytes.Repeat([]byte{7}, 32), NumCheckpoints: 9}
	if got, err := DecodeCommit(commit.AppendBody(nil)); err != nil || fmt.Sprint(got) != fmt.Sprint(commit) {
		t.Fatalf("commit %+v, %v; want %+v", got, err, commit)
	}
	verdict := Verdict{Epoch: 2, Worker: "w", Outcome: "rejected", Reason: "lsh miss"}
	if got, err := DecodeVerdict(verdict.AppendBody(nil)); err != nil || got != verdict {
		t.Fatalf("verdict %+v, %v; want %+v", got, err, verdict)
	}
	task := Task{Epoch: 4, GlobalDigest: 1 << 63, Workers: 10}
	if got, err := DecodeTask(task.AppendBody(nil)); err != nil || got != task {
		t.Fatalf("task %+v, %v; want %+v", got, err, task)
	}
}

// TestOpenRefusesOtherFormats: a journal whose header is not this build's —
// the parent's headerless frames, or this build's header with any one bit
// flipped — is refused with fsio.ErrVersion before anything is replayed or
// rewritten, never read as an empty journal with a torn tail.
func TestOpenRefusesOtherFormats(t *testing.T) {
	path := filepath.Join(t.TempDir(), "epoch.wal")
	writeRecords(t, path, 2)
	good, err := fsio.OS.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The parent's layout: the same frames with no header in front.
	files := [][]byte{good[len(fileHeader):]}
	for bit := 0; bit < 8*len(fileHeader); bit++ {
		flipped := append([]byte(nil), good...)
		flipped[bit/8] ^= 1 << (bit % 8)
		files = append(files, flipped)
	}
	for i, data := range files {
		if err := fsio.OS.WriteFileAtomic(path, data); err != nil {
			t.Fatal(err)
		}
		if _, _, err := Open(fsio.OS, path, testObserver()); !errors.Is(err, fsio.ErrVersion) {
			t.Fatalf("file %d: Open err = %v, want fsio.ErrVersion", i, err)
		}
		if after, err := fsio.OS.ReadFile(path); err != nil || !bytes.Equal(after, data) {
			t.Fatalf("file %d: Open rewrote a refused journal (%v)", i, err)
		}
	}
}

func TestCreateTruncatesPreviousContent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "epoch.wal")
	writeRecords(t, path, 4)
	j, err := Create(fsio.OS, path, testObserver())
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	data, err := fsio.OS.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != fileHeader {
		t.Fatalf("Create left %d bytes, want only the header", len(data))
	}
}

func TestOpenPropagatesFSFailures(t *testing.T) {
	ffs := fsio.NewFaultFS(fsio.OS, fsio.CrashAtWrite(5, 0))
	path := filepath.Join(t.TempDir(), "epoch.wal")
	// Create's truncating write is the first ordinal: the crash surfaces.
	if _, err := Create(ffs, path, testObserver()); !errors.Is(err, fsio.ErrInjectedCrash) {
		t.Fatalf("err = %v", err)
	}
}
