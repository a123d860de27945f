// Package journal is the manager's write-ahead epoch journal: an
// append-only file of checksummed records holding every durable protocol
// transition — task announced, commitment received, sample indices drawn,
// verdicts recorded, epoch sealed. Writing and syncing are separate: Append
// (and the Log* helpers) frame a record into the journal's pending batch,
// and Sync writes the batch and makes it durable, so the manager pays one
// barrier per protocol phase — before it acts on what the phase recorded —
// instead of one per record. After a crash, recovery replays the intact
// prefix, discards the torn tail (a batch half-written when the process
// died), and reconstructs the pool's position mid-epoch, so a resumed run
// continues from the last durable transition instead of restarting the
// epoch.
//
// Each record is one fsio frame whose payload carries a monotonically
// increasing sequence number, a record kind, and the kind's JSON body. The
// sequence numbers make replay idempotent: a record appended twice (the
// crash landed between the write and the caller observing it, and the
// resumed run re-appended) is detected and skipped. Replay never fails —
// any suffix that does not parse as intact records is, by definition, the
// torn tail.
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"sync"

	"rpol/internal/fsio"
	"rpol/internal/obs"
)

// Record is one durable protocol transition.
type Record struct {
	// Seq is the record's sequence number, strictly increasing within a
	// journal file.
	Seq uint64
	// Kind names the record type (one of the Kind* constants).
	Kind string
	// Data is the kind-specific JSON body.
	Data []byte
}

// Record payload layout inside an fsio frame: seq (8 bytes big-endian),
// kind length (1 byte), kind, body.
const recHeaderSize = 9

// errBadRecord marks a frame whose payload is not a well-formed record.
var errBadRecord = errors.New("journal: malformed record")

// appendPayload appends a record's frame payload to dst.
func appendPayload(dst []byte, r Record) ([]byte, error) {
	if len(r.Kind) == 0 || len(r.Kind) > 255 {
		return nil, fmt.Errorf("kind %q: %w", r.Kind, errBadRecord)
	}
	dst = binary.BigEndian.AppendUint64(dst, r.Seq)
	dst = append(dst, byte(len(r.Kind)))
	dst = append(dst, r.Kind...)
	return append(dst, r.Data...), nil
}

// encodeRecord serializes a record into an fsio frame appended to dst.
func encodeRecord(dst []byte, r Record) ([]byte, error) {
	payload, err := appendPayload(make([]byte, 0, recHeaderSize+len(r.Kind)+len(r.Data)), r)
	if err != nil {
		return nil, err
	}
	return fsio.AppendFrame(dst, payload), nil
}

// decodeRecord parses one frame payload.
func decodeRecord(payload []byte) (Record, error) {
	if len(payload) < recHeaderSize {
		return Record{}, fmt.Errorf("%d payload bytes: %w", len(payload), errBadRecord)
	}
	kindLen := int(payload[8])
	if kindLen == 0 || recHeaderSize+kindLen > len(payload) {
		return Record{}, fmt.Errorf("kind length %d in %d bytes: %w", kindLen, len(payload), errBadRecord)
	}
	return Record{
		Seq:  binary.BigEndian.Uint64(payload[:8]),
		Kind: string(payload[9 : 9+kindLen]),
		Data: payload[recHeaderSize+kindLen:],
	}, nil
}

// Replay parses a journal file's bytes into its intact record prefix. It
// never fails and never panics: the first frame that is torn, corrupt, or
// not a well-formed record ends the prefix, and everything from there on is
// the discarded tail. Records whose sequence number does not increase are
// duplicates from a crash-reappend race and are skipped (counted, not
// kept). The returned records' Data alias the input.
func Replay(data []byte) (recs []Record, discardedTail int, duplicates int) {
	rest := data
	var last uint64
	for len(rest) > 0 {
		payload, next, err := fsio.ReadFrame(rest)
		if err != nil {
			return recs, len(rest), duplicates
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			return recs, len(rest), duplicates
		}
		rest = next
		if len(recs) > 0 && rec.Seq <= last {
			duplicates++
			continue
		}
		recs = append(recs, rec)
		last = rec.Seq
	}
	return recs, 0, duplicates
}

// Recovery summarizes what Open found on disk.
type Recovery struct {
	// Records is the intact prefix, in order.
	Records []Record
	// DiscardedTailBytes is the length of the torn tail Open dropped (and
	// truncated away before reopening for append).
	DiscardedTailBytes int
	// SkippedDuplicates counts records dropped for non-increasing sequence
	// numbers.
	SkippedDuplicates int
}

// Journal is an open append-only journal file, safe for concurrent use.
type Journal struct {
	fs   fsio.FS
	path string
	obs  *obs.Observer

	mu      sync.Mutex
	ap      fsio.Appender
	nextSeq uint64
	// pending holds the records framed since the last Sync, back to back;
	// payload is the scratch one record is laid out in before framing. Both
	// buffers are reused from batch to batch.
	pending []byte
	payload []byte
}

// Create truncates (or creates) the journal at path and opens it for
// appending. Any previous content is discarded — use Open to recover.
func Create(fs fsio.FS, path string, o *obs.Observer) (*Journal, error) {
	if err := fs.WriteFileAtomic(path, nil); err != nil {
		return nil, fmt.Errorf("journal create: %w", err)
	}
	ap, err := fs.Append(path)
	if err != nil {
		return nil, fmt.Errorf("journal create: %w", err)
	}
	return &Journal{fs: fs, path: path, obs: o.OrDefault(), ap: ap, nextSeq: 1}, nil
}

// Open recovers the journal at path — replaying the intact prefix,
// discarding the torn tail, skipping duplicates — and reopens it for
// appending. When the tail was torn or duplicates were skipped, the intact
// prefix is atomically rewritten first, so the file on disk is exactly the
// records Recovery reports. A missing file is an empty journal.
func Open(fs fsio.FS, path string, o *obs.Observer) (*Journal, *Recovery, error) {
	o = o.OrDefault()
	data, err := fs.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, nil, fmt.Errorf("journal open: %w", err)
	}
	recs, torn, dups := Replay(data)
	if torn > 0 || dups > 0 {
		var clean []byte
		for _, r := range recs {
			clean, err = encodeRecord(clean, r)
			if err != nil {
				return nil, nil, fmt.Errorf("journal rewrite: %w", err)
			}
		}
		if err := fs.WriteFileAtomic(path, clean); err != nil {
			return nil, nil, fmt.Errorf("journal rewrite: %w", err)
		}
	}
	ap, err := fs.Append(path)
	if err != nil {
		return nil, nil, fmt.Errorf("journal open: %w", err)
	}
	nextSeq := uint64(1)
	if n := len(recs); n > 0 {
		nextSeq = recs[n-1].Seq + 1
	}
	o.Counter("recovery_replayed_total").Add(int64(len(recs)))
	if torn > 0 {
		o.Counter("recovery_discarded_tail_total").Add(int64(torn))
	}
	if len(recs) > 0 || torn > 0 || dups > 0 {
		o.Publish(obs.StreamEvent{
			Kind:   obs.EventJournalRecovery,
			Detail: fmt.Sprintf("replayed=%d tornBytes=%d dups=%d", len(recs), torn, dups),
		})
	}
	j := &Journal{fs: fs, path: path, obs: o, ap: ap, nextSeq: nextSeq}
	return j, &Recovery{Records: recs, DiscardedTailBytes: torn, SkippedDuplicates: dups}, nil
}

// Append frames one record of the given kind into the pending batch and
// returns its sequence number. Nothing reaches the file before Sync: a caller
// must Sync before it acts on the transition the record describes.
func (j *Journal) Append(kind string, data []byte) (uint64, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.ap == nil {
		return 0, errors.New("journal: closed")
	}
	seq := j.nextSeq
	payload, err := appendPayload(j.payload[:0], Record{Seq: seq, Kind: kind, Data: data})
	if err != nil {
		return 0, err
	}
	j.payload = payload
	j.pending = fsio.AppendFrame(j.pending, payload)
	j.nextSeq++
	j.obs.Counter("journal_records_total").Inc()
	return seq, nil
}

// Sync writes the pending batch in one append and makes it durable. When it
// returns nil, every record appended so far survives a crash.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.ap == nil {
		return errors.New("journal: closed")
	}
	if err := j.flushLocked(); err != nil {
		return err
	}
	if err := j.ap.Sync(); err != nil {
		return fmt.Errorf("journal sync: %w", err)
	}
	return nil
}

// flushLocked hands the pending batch to the file. j.mu must be held.
func (j *Journal) flushLocked() error {
	if len(j.pending) == 0 {
		return nil
	}
	_, err := j.ap.Write(j.pending)
	j.pending = j.pending[:0]
	if err != nil {
		return fmt.Errorf("journal append: %w", err)
	}
	return nil
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// Close writes any batch still pending (without a barrier: a clean stop
// loses nothing, a crash right after it may) and releases the append handle.
// Further Appends fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.ap == nil {
		return nil
	}
	err := j.flushLocked()
	ap := j.ap
	j.ap = nil
	if cerr := ap.Close(); err == nil {
		err = cerr
	}
	return err
}
