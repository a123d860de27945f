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
// The file opens with a versioned fsio header. Each record is one fsio frame
// whose payload carries a monotonically increasing sequence number and the
// record's binary body (fsio's body codec: magic, version, kind, fields). The
// sequence numbers make replay idempotent: a record appended twice (the crash
// landed between the write and the caller observing it, and the resumed run
// re-appended) is detected and skipped. Replay never fails — any suffix that
// does not parse as intact records is, by definition, the torn tail — but a
// file whose header is not this build's is refused with fsio.ErrVersion
// before anything is replayed or rewritten.
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
	// Body is the record's binary body: fsio's three-byte body header, whose
	// last byte is the record's Kind, then the kind's fields.
	Body []byte
}

// Kind returns the kind byte of the record's body header.
func (r Record) Kind() Kind {
	if len(r.Body) < 3 {
		return 0
	}
	return Kind(r.Body[2])
}

// fileHeader opens every journal file.
var fileHeader = fsio.Header("wl")

// Record payload layout inside an fsio frame: seq (8 bytes big-endian), then
// the body, which holds at least its three-byte header.
const (
	seqSize        = 8
	minPayloadSize = seqSize + 3
)

// errBadRecord marks a frame whose payload is not a well-formed record.
var errBadRecord = errors.New("journal: malformed record")

// encodeRecord serializes a record into an fsio frame appended to dst.
func encodeRecord(dst []byte, r Record) []byte {
	payload := binary.BigEndian.AppendUint64(make([]byte, 0, seqSize+len(r.Body)), r.Seq)
	return fsio.AppendFrame(dst, append(payload, r.Body...))
}

// decodeRecord parses one frame payload. The body's header is checked when
// Reconstruct decodes it, so a body of another format is refused there with
// fsio.ErrVersion rather than dropped here as a torn tail.
func decodeRecord(payload []byte) (Record, error) {
	if len(payload) < minPayloadSize {
		return Record{}, fmt.Errorf("%d payload bytes: %w", len(payload), errBadRecord)
	}
	return Record{Seq: binary.BigEndian.Uint64(payload), Body: payload[seqSize:]}, nil
}

// Replay parses the frames that follow a journal's header into their intact
// record prefix. It never fails and never panics: the first frame that is
// torn, corrupt, or not a well-formed record ends the prefix, and everything
// from there on is the discarded tail. Records whose sequence number does not
// increase are duplicates from a crash-reappend race and are skipped
// (counted, not kept). The returned records' Body alias the input.
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

// Recover parses a whole journal file: its header, then Replay of the frames
// behind it. A file that ends inside the header (an empty or missing one
// included) is an empty journal whose every byte is the torn tail. A file
// with another header is fsio.ErrVersion.
func Recover(data []byte) (*Recovery, error) {
	frames, err := fsio.SplitHeader(data, fileHeader)
	if errors.Is(err, fsio.ErrTornFrame) {
		return &Recovery{DiscardedTailBytes: len(data)}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	recs, torn, dups := Replay(frames)
	return &Recovery{Records: recs, DiscardedTailBytes: torn, SkippedDuplicates: dups}, nil
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
	fs  fsio.FS
	obs *obs.Observer

	mu      sync.Mutex
	ap      fsio.Appender
	nextSeq uint64
	// pending holds the records framed since the last Sync, back to back;
	// payload is the scratch one record is laid out in before framing. Both
	// buffers are reused from batch to batch.
	pending []byte
	payload []byte
}

// Create truncates (or creates) the journal at path, leaving only its
// header, and opens it for appending. Any previous content is discarded —
// use Open to recover.
func Create(fs fsio.FS, path string, o *obs.Observer) (*Journal, error) {
	if err := fs.WriteFileAtomic(path, []byte(fileHeader)); err != nil {
		return nil, fmt.Errorf("journal create: %w", err)
	}
	ap, err := fs.Append(path)
	if err != nil {
		return nil, fmt.Errorf("journal create: %w", err)
	}
	return &Journal{fs: fs, obs: o.OrDefault(), ap: ap, nextSeq: 1}, nil
}

// Open recovers the journal at path — replaying the intact prefix,
// discarding the torn tail, skipping duplicates — and reopens it for
// appending. A file whose header is not this build's is refused with
// fsio.ErrVersion before anything is replayed or written. When the tail was
// torn, duplicates were skipped or the header is missing, the header and the
// intact prefix are atomically rewritten first, so the file on disk is
// exactly the records Recovery reports. A missing file is an empty journal.
func Open(fs fsio.FS, path string, o *obs.Observer) (*Journal, *Recovery, error) {
	o = o.OrDefault()
	data, err := fs.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, nil, fmt.Errorf("journal open: %w", err)
	}
	rec, err := Recover(data)
	if err != nil {
		return nil, nil, fmt.Errorf("journal open: %w", err)
	}
	recs, torn, dups := rec.Records, rec.DiscardedTailBytes, rec.SkippedDuplicates
	if torn > 0 || dups > 0 || len(data) == 0 {
		clean := []byte(fileHeader)
		for _, r := range recs {
			clean = encodeRecord(clean, r)
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
	j := &Journal{fs: fs, obs: o, ap: ap, nextSeq: nextSeq}
	return j, rec, nil
}

// log frames one record of kind into the pending batch. Nothing reaches the
// file before Sync: a caller must Sync before it acts on the transition the
// record describes.
func (j *Journal) log(kind Kind, b body) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.ap == nil {
		return fmt.Errorf("journal %s: closed", kind)
	}
	j.payload = b.AppendBody(binary.BigEndian.AppendUint64(j.payload[:0], j.nextSeq))
	j.pending = fsio.AppendFrame(j.pending, j.payload)
	j.nextSeq++
	j.obs.Counter("journal_records_total").Inc()
	return nil
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
