package journal

import (
	"bytes"
	"testing"

	"rpol/internal/fsio"
)

// FuzzJournalReplay fuzzes the recovery path: arbitrary bytes must never
// panic, and whatever Replay keeps must be a consistent prefix — strictly
// increasing sequence numbers, every record re-encodable to the exact bytes
// it was parsed from, and the accounting (kept frames + discarded tail)
// covering the input.
func FuzzJournalReplay(f *testing.F) {
	// Intact two-record journal.
	r1 := encodeRecord(nil, Record{Seq: 1, Body: Task{Epoch: 0, GlobalDigest: 7, Workers: 2}.AppendBody(nil)})
	r2 := encodeRecord(nil, Record{Seq: 2, Body: Seal{Epoch: 0, AcceptedWorkers: []string{"w"}}.AppendBody(nil)})
	intact := append(append([]byte(nil), r1...), r2...)
	f.Add(intact)
	// Torn tail: second record cut mid-frame.
	f.Add(intact[:len(r1)+3])
	// Duplicate sequence number.
	f.Add(append(append([]byte(nil), intact...), r1...))
	// Frame-valid but record-invalid payload (too short for the header).
	f.Add(fsio.AppendFrame(nil, []byte("tiny")))
	// Raw garbage and pathological length prefixes.
	f.Add([]byte("not a journal"))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0})
	f.Add([]byte{})
	// A phase's batch goes out as one append, so a crash tears it anywhere:
	// inside the first record, on a record boundary, inside the last one.
	var batch []byte
	for seq := uint64(3); seq <= 6; seq++ {
		batch = encodeRecord(batch, Record{Seq: seq, Body: Commit{Epoch: 1, Worker: "w", Root: make([]byte, 32)}.AppendBody(nil)})
	}
	whole := append(append([]byte(nil), intact...), batch...)
	f.Add(whole)
	f.Add(whole[:len(intact)+5])
	f.Add(whole[:len(intact)+len(batch)/4])
	f.Add(whole[:len(whole)-1])

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, torn, dups := Replay(data)
		if torn < 0 || torn > len(data) {
			t.Fatalf("discarded tail %d of %d input bytes", torn, len(data))
		}
		var last uint64
		var reenc []byte
		for i, r := range recs {
			if i > 0 && r.Seq <= last {
				t.Fatalf("record %d: seq %d after %d", i, r.Seq, last)
			}
			last = r.Seq
			reenc = encodeRecord(reenc, r)
		}
		// With no duplicates, the kept prefix re-encodes to the input's
		// leading bytes: Replay neither invents nor reorders records.
		if dups == 0 && !bytes.Equal(reenc, data[:len(data)-torn]) {
			t.Fatalf("prefix mismatch: kept %d records over %d bytes", len(recs), len(data)-torn)
		}
	})
}
