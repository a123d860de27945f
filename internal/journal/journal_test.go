package journal

import (
	"encoding/json"
	"errors"
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
	if _, err := j.Append(KindTask, nil); err == nil {
		t.Fatal("append after close succeeded")
	}

	data, err := fsio.OS.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, torn, dups := Replay(data)
	if torn != 0 || dups != 0 {
		t.Fatalf("torn=%d dups=%d", torn, dups)
	}
	if len(recs) != 2 || recs[0].Kind != KindTask || recs[1].Kind != KindCommit {
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
	if data, err := fsio.OS.ReadFile(path); err != nil || len(data) != 0 {
		t.Fatalf("before Sync the file holds %d bytes (%v), want none", len(data), err)
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
	if recs, torn, _ := Replay(data); len(recs) != 3 || torn != 0 {
		t.Fatalf("after Sync: %d records, %d torn bytes", len(recs), torn)
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
		recs, _, dups := Replay(data)
		if len(recs) < 1 || len(recs) > 5 || dups != 0 || recs[0].Kind != KindTask {
			t.Fatalf("seed %d: replayed %d records (%d dups) after a torn batch", seed, len(recs), dups)
		}
	}
}

func TestReplayTable(t *testing.T) {
	mk := func(n int) []byte {
		var buf []byte
		for i := 1; i <= n; i++ {
			frame, err := encodeRecord(nil, Record{Seq: uint64(i), Kind: "k", Data: []byte("{}")})
			if err != nil {
				t.Fatal(err)
			}
			buf = append(buf, frame...)
		}
		return buf
	}
	whole := mk(3)
	frame1, _ := encodeRecord(nil, Record{Seq: 1, Kind: "k", Data: []byte("{}")})

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
			d[len(frame1)+9] ^= 0x40 // corrupt the second record's body
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
	if got := o.Counter("recovery_discarded_tail_total").Value(); got == 0 {
		t.Error("recovery_discarded_tail_total not incremented")
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
	recs, torn, dups := Replay(data)
	if torn != 0 || dups != 0 || len(recs) != 3 {
		t.Fatalf("after reopen: %d records, torn=%d dups=%d", len(recs), torn, dups)
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
}

func TestJournalRecordsMetric(t *testing.T) {
	o := testObserver()
	j, err := Create(fsio.OS, filepath.Join(t.TempDir(), "m.wal"), o)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for i := 0; i < 5; i++ {
		if err := j.LogSamples(Samples{Epoch: 0, Worker: "w", Indices: []int{1, 2}}); err != nil {
			t.Fatal(err)
		}
	}
	if got := o.Counter("journal_records_total").Value(); got != 5 {
		t.Errorf("journal_records_total = %d", got)
	}
}

func TestReconstructMidEpoch(t *testing.T) {
	recs := []Record{}
	add := func(kind string, v any) {
		t.Helper()
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, Record{Seq: uint64(len(recs) + 1), Kind: kind, Data: data})
	}
	add(KindTask, Task{Epoch: 0, GlobalDigest: 1, Workers: 2})
	add(KindCommit, Commit{Epoch: 0, Worker: "w-0", Digest: 5, NumCheckpoints: 3})
	add(KindSeal, Seal{Epoch: 0, Accepted: 2, GlobalDigest: 9, AcceptedWorkers: []string{"w-0", "w-1"}})
	add(KindTask, Task{Epoch: 1, GlobalDigest: 9, Workers: 2})
	// A journal the parent format wrote interleaves the workers' "ckpt"
	// records; this reader skips them (the in-flight epoch then retrains).
	add("ckpt", map[string]any{"epoch": 1, "worker": "w-0", "index": 0, "step": 0, "digest": 11})
	add(KindCommit, Commit{Epoch: 1, Worker: "w-0", Digest: 6, NumCheckpoints: 3})
	add("ckpt", map[string]any{"epoch": 1, "worker": "w-1", "index": 1, "step": 3, "digest": 12})

	st, err := Reconstruct(recs)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Sealed) != 1 || st.Sealed[0].Epoch != 0 {
		t.Fatalf("sealed = %+v", st.Sealed)
	}
	if st.InFlight != 1 || st.NextEpoch() != 1 {
		t.Fatalf("in-flight = %d", st.InFlight)
	}
	if st.Task == nil || st.Task.GlobalDigest != 9 {
		t.Fatalf("in-flight task = %+v", st.Task)
	}
	if len(st.Commits) != 1 || st.Commits[0].Worker != "w-0" || st.Commits[0].Digest != 6 {
		t.Fatalf("in-flight commits = %+v", st.Commits)
	}

	// A retried attempt's task record supersedes the first attempt.
	add(KindTask, Task{Epoch: 1, GlobalDigest: 9, Workers: 2})
	st, err = Reconstruct(recs)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Commits) != 0 || st.InFlight != 1 {
		t.Fatalf("retried attempt kept stale transitions: %+v", st)
	}
}

func TestReconstructRejectsEpochGaps(t *testing.T) {
	sealData, err := json.Marshal(Seal{Epoch: 2})
	if err != nil {
		t.Fatal(err)
	}
	_, err = Reconstruct([]Record{{Seq: 1, Kind: KindSeal, Data: sealData}})
	if err == nil {
		t.Fatal("seal gap accepted")
	}
	taskData, err := json.Marshal(Task{Epoch: 3})
	if err != nil {
		t.Fatal(err)
	}
	_, err = Reconstruct([]Record{{Seq: 1, Kind: KindTask, Data: taskData}})
	if err == nil {
		t.Fatal("task gap accepted")
	}
	// Malformed bodies are errors, not silent skips.
	_, err = Reconstruct([]Record{{Seq: 1, Kind: KindTask, Data: []byte("{broken")}})
	if err == nil {
		t.Fatal("malformed body accepted")
	}
	// Unknown kinds are forward-compatible no-ops.
	st, err := Reconstruct([]Record{{Seq: 1, Kind: "future-kind", Data: []byte("{}")}})
	if err != nil || st.InFlight != -1 {
		t.Fatalf("unknown kind: %+v, %v", st, err)
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
	if len(data) != 0 {
		t.Fatalf("Create left %d bytes", len(data))
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
