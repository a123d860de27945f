package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"rpol/internal/fsio"
	"rpol/internal/tensor"
)

// Errors rejecting a whole segment or ending its adopted prefix.
var (
	// ErrSegmentHeader marks a non-empty segment whose first frame is not an
	// intact header: nothing after it can be attributed to an epoch.
	ErrSegmentHeader = errors.New("checkpoint: segment has no intact header")
	// ErrSegmentStale marks an intact segment written for another epoch or
	// from another global model — the previous epoch's leftovers, not damage.
	ErrSegmentStale = errors.New("checkpoint: segment belongs to another epoch")
	// ErrSegmentFrame marks an intact fsio frame that is not the checkpoint
	// the scan expects next: wrong kind, epoch, index or vector length.
	ErrSegmentFrame = errors.New("checkpoint: unexpected segment frame")
)

// A segment file opens with its fsio file header, then one frame per
// payload. A header payload is kind, epoch, global digest; a checkpoint is
// kind, epoch, index, step, then the vector's wire encoding. Integers are
// big-endian like the fsio framing around them.
const (
	segKindHeader     = 'H'
	segKindCheckpoint = 'C'
	segHeaderSize     = 1 + 8 + 8
	segCheckpointHead = 1 + 8 + 4 + 4

	segmentFile = "segment.bin"
)

// fileHeader opens every segment file.
var fileHeader = fsio.Header("sg")

// SegmentFrame is one checkpoint recovered from a segment.
type SegmentFrame struct {
	Index   int
	Step    int
	Weights tensor.Vector
}

// ScanSegment parses a segment's bytes for the epoch whose announced global
// model (dim weights) has wire-encoding checksum globalDigest. It returns
// the checkpoints of the longest intact prefix — a header for exactly that
// (epoch, globalDigest), then at most limit frames tagged with that epoch
// carrying indices 1, 2, 3, … of dim weights each — and the byte length of
// that prefix.
//
// A segment of another format — its file header is not this build's — is
// rejected whole with fsio.ErrVersion. One whose header frame is missing,
// damaged or foreign is rejected whole (ErrSegmentHeader, ErrSegmentStale;
// intact 0). Otherwise stop is nil when the scan ended at the limit or at
// the end of the data, and else says why the next frame was refused:
// fsio.ErrTornFrame, fsio.ErrChecksum or ErrSegmentFrame. A repeated index is
// refused like any other index out of turn, so of two frames claiming one
// index only the first can be adopted.
// Like journal.Replay it never panics and never adopts a frame that did not
// survive intact; a frame is decoded only after its declared shape matched
// dim, so nothing larger than one model is ever allocated.
func ScanSegment(data []byte, epoch int, globalDigest uint64, dim, limit int) (frames []SegmentFrame, intact int, stop error) {
	body, err := fsio.SplitHeader(data, fileHeader)
	if errors.Is(err, fsio.ErrVersion) {
		return nil, 0, fmt.Errorf("checkpoint segment: %w", err)
	}
	payload, rest, err := fsio.ReadFrame(body)
	if err != nil || len(payload) != segHeaderSize || payload[0] != segKindHeader {
		return nil, 0, ErrSegmentHeader
	}
	if binary.BigEndian.Uint64(payload[1:]) != uint64(epoch) || binary.BigEndian.Uint64(payload[9:]) != globalDigest {
		return nil, 0, ErrSegmentStale
	}
	want := segCheckpointHead + tensor.EncodedSize(dim)
	for len(rest) > 0 && len(frames) < limit {
		payload, next, err := fsio.ReadFrame(rest)
		if err != nil {
			stop = err
			break
		}
		idx := len(frames) + 1
		switch {
		case len(payload) != want || payload[0] != segKindCheckpoint:
			stop = fmt.Errorf("%d-byte frame where a %d-byte checkpoint is due: %w", len(payload), want, ErrSegmentFrame)
		case binary.BigEndian.Uint64(payload[1:]) != uint64(epoch):
			stop = fmt.Errorf("frame of epoch %d: %w", binary.BigEndian.Uint64(payload[1:]), ErrSegmentFrame)
		case binary.BigEndian.Uint32(payload[9:]) != uint32(idx):
			stop = fmt.Errorf("index %d where %d is due: %w", binary.BigEndian.Uint32(payload[9:]), idx, ErrSegmentFrame)
		case uint64(binary.BigEndian.Uint32(payload[13:])) > math.MaxInt:
			// Only a 32-bit int can fall short of a uint32 step.
			stop = fmt.Errorf("step %d beyond the int range: %w", binary.BigEndian.Uint32(payload[13:]), ErrSegmentFrame)
		}
		if stop != nil {
			break
		}
		weights, err := tensor.DecodeVector(payload[segCheckpointHead:])
		if err != nil || len(weights) != dim {
			stop = fmt.Errorf("checkpoint %d does not decode to %d weights: %w", idx, dim, ErrSegmentFrame)
			break
		}
		frames = append(frames, SegmentFrame{Index: idx, Step: int(binary.BigEndian.Uint32(payload[13:])), Weights: weights})
		rest = next
	}
	return frames, len(data) - len(rest), stop
}

// Segment is one worker's append-only checkpoint log for the epoch in
// flight: a header frame naming the epoch and the global model it started
// from (standing in for checkpoint 0, which every party already holds), then
// one checksummed frame per checkpoint. Appends are plain writes; Sync is
// the single barrier a worker pays, before its commitment leaves. A Segment
// is not safe for concurrent use.
type Segment struct {
	fs   fsio.FS
	dir  string
	path string

	ap      fsio.Appender // nil until the first append of an epoch
	payload []byte        // reused frame-payload scratch
	frame   []byte        // reused framed-bytes scratch
	written int64
}

// NewSegment uses (creating it if needed) dir for the segment file. The file
// itself appears with the first append.
func NewSegment(fs fsio.FS, dir string) (*Segment, error) {
	if err := fs.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("checkpoint segment dir: %w", err)
	}
	return &Segment{fs: fs, dir: dir, path: filepath.Join(dir, segmentFile)}, nil
}

// Bytes returns how many bytes the current epoch has appended so far
// (framing included).
func (s *Segment) Bytes() int64 { return s.written }

// Begin starts a fresh epoch: whatever the directory held — the previous
// epoch's segment, or the one-file-per-checkpoint layout older builds left —
// is removed, and the header frame is appended to a new file.
func (s *Segment) Begin(epoch int, globalDigest uint64) error {
	if err := s.Close(); err != nil {
		return err
	}
	names, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("checkpoint segment begin: %w", err)
	}
	for _, name := range names {
		if filepath.Ext(name) != ".bin" {
			continue
		}
		if err := s.fs.Remove(filepath.Join(s.dir, name)); err != nil {
			return fmt.Errorf("checkpoint segment begin: %w", err)
		}
	}
	s.written = 0
	s.payload = appendHeaderPayload(s.payload[:0], epoch, globalDigest)
	return s.write(fsio.AppendFrame(append(s.frame[:0], fileHeader...), s.payload))
}

// appendHeaderPayload appends a header frame's payload to dst.
func appendHeaderPayload(dst []byte, epoch int, globalDigest uint64) []byte {
	dst = append(dst, segKindHeader)
	dst = binary.BigEndian.AppendUint64(dst, uint64(epoch))
	return binary.BigEndian.AppendUint64(dst, globalDigest)
}

// appendCheckpointPayload appends a checkpoint frame's payload to dst.
func appendCheckpointPayload(dst []byte, epoch, idx, step int, weights tensor.Vector) []byte {
	dst = append(dst, segKindCheckpoint)
	dst = binary.BigEndian.AppendUint64(dst, uint64(epoch))
	dst = binary.BigEndian.AppendUint32(dst, uint32(idx))
	dst = binary.BigEndian.AppendUint32(dst, uint32(step))
	return weights.AppendEncode(dst)
}

// Append writes checkpoint idx (taken at training step `step`) of the epoch
// as one frame. Not durable until Sync.
func (s *Segment) Append(epoch, idx, step int, weights tensor.Vector) error {
	if idx < 1 || step < 0 {
		return fmt.Errorf("checkpoint segment append: index %d at step %d: %w", idx, step, ErrBadIndex)
	}
	s.payload = appendCheckpointPayload(s.payload[:0], epoch, idx, step, weights)
	return s.write(fsio.AppendFrame(s.frame[:0], s.payload))
}

// write appends frame (which becomes the reused s.frame scratch) to the file,
// opening it on first use.
func (s *Segment) write(frame []byte) error {
	s.frame = frame
	if s.ap == nil {
		ap, err := s.fs.Append(s.path)
		if err != nil {
			return fmt.Errorf("checkpoint segment: %w", err)
		}
		s.ap = ap
	}
	if _, err := s.ap.Write(s.frame); err != nil {
		return fmt.Errorf("checkpoint segment append: %w", err)
	}
	s.written += int64(len(s.frame))
	return nil
}

// Sync makes every frame appended so far durable.
func (s *Segment) Sync() error {
	if s.ap == nil {
		return nil
	}
	if err := s.ap.Sync(); err != nil {
		return fmt.Errorf("checkpoint segment sync: %w", err)
	}
	return nil
}

// Close releases the file handle (the next append reopens it). Safe to call
// at any time, any number of times.
func (s *Segment) Close() error {
	if s.ap == nil {
		return nil
	}
	ap := s.ap
	s.ap = nil
	if err := ap.Close(); err != nil {
		return fmt.Errorf("checkpoint segment close: %w", err)
	}
	return nil
}

// Resume reads the segment once and adopts at most limit checkpoints of the
// given epoch's intact prefix (see ScanSegment), cutting the file back to
// exactly the adopted bytes so the epoch's remaining checkpoints append
// behind them. A missing or empty file is an empty prefix. stop reports why
// the scan refused a frame or the whole segment, nil when it refused
// nothing; with no frames adopted the file is left for Begin to replace. A
// segment of another format is refused with fsio.ErrVersion and left as it
// is.
func (s *Segment) Resume(epoch int, globalDigest uint64, dim, limit int) (frames []SegmentFrame, stop, err error) {
	if err := s.Close(); err != nil {
		return nil, nil, err
	}
	data, err := s.fs.ReadFile(s.path)
	if errors.Is(err, os.ErrNotExist) || (err == nil && len(data) == 0) {
		return nil, nil, nil
	}
	if err != nil {
		return nil, nil, fmt.Errorf("checkpoint segment resume: %w", err)
	}
	frames, intact, stop := ScanSegment(data, epoch, globalDigest, dim, limit)
	if errors.Is(stop, fsio.ErrVersion) {
		return nil, nil, stop
	}
	if len(frames) == 0 {
		return nil, stop, nil
	}
	if intact < len(data) {
		if err := s.fs.WriteFileAtomic(s.path, data[:intact]); err != nil {
			return nil, nil, fmt.Errorf("checkpoint segment resume: %w", err)
		}
	}
	s.written = int64(intact)
	return frames, stop, nil
}

// CheckVersion reports fsio.ErrVersion when the segment file exists and opens
// with another format's header. A missing file, or one whose first write tore
// inside the header, passes: there is nothing of another format to protect.
func (s *Segment) CheckVersion() error {
	data, err := s.fs.ReadFile(s.path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("checkpoint segment: %w", err)
	}
	if _, err := fsio.SplitHeader(data, fileHeader); errors.Is(err, fsio.ErrVersion) {
		return fmt.Errorf("checkpoint segment %s: %w", s.path, err)
	}
	return nil
}
