// Package checkpoint provides the storage layer for a worker's training
// proofs. A pool worker must retain every checkpoint of the current epoch
// until verification completes (the paper bills this at ~4.5 GB per
// ResNet50 worker, Table III); this package offers an in-memory store for
// simulations and a disk-backed store whose files round-trip through the
// exact wire encoding, so opening a stored checkpoint during verification
// is bit-identical to opening a live one.
package checkpoint

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"

	"rpol/internal/fsio"
	"rpol/internal/tensor"
)

// Store persists the checkpoints of one epoch, addressed by index.
type Store interface {
	// Put saves the snapshot at idx, overwriting any previous value.
	Put(idx int, w tensor.Vector) error
	// Get returns the snapshot at idx.
	Get(idx int) (tensor.Vector, error)
	// Len returns the number of stored snapshots.
	Len() int
	// Bytes returns the storage consumed, in bytes.
	Bytes() int64
	// Clear removes all snapshots (called when a new epoch begins).
	Clear() error
}

// Errors returned by stores.
var (
	ErrNotFound = errors.New("checkpoint: not found")
	ErrBadIndex = errors.New("checkpoint: negative index")
	// ErrCorruptCheckpoint marks a stored snapshot whose bytes fail the
	// checksum or do not decode: a torn write, a bit flip, or truncation.
	// Callers fall back to an earlier intact checkpoint instead of feeding
	// garbage weights into training or verification.
	ErrCorruptCheckpoint = errors.New("checkpoint: corrupt snapshot")
)

// MemoryStore keeps snapshots in process memory. It owns every snapshot
// buffer: Put copies in, Get copies out, and Clear parks the buffers for the
// next epoch's Puts at the same indices to copy into, so a store cleared and
// refilled every epoch allocates its snapshots once. At most the last
// cleared epoch's snapshots are parked.
type MemoryStore struct {
	snaps  map[int]tensor.Vector
	parked map[int]tensor.Vector
}

var _ Store = (*MemoryStore)(nil)

// NewMemoryStore returns an empty in-memory store.
func NewMemoryStore() *MemoryStore {
	return &MemoryStore{snaps: make(map[int]tensor.Vector), parked: make(map[int]tensor.Vector)}
}

// Put saves a copy of the snapshot.
func (s *MemoryStore) Put(idx int, w tensor.Vector) error {
	if idx < 0 {
		return fmt.Errorf("index %d: %w", idx, ErrBadIndex)
	}
	buf, ok := s.snaps[idx]
	if !ok {
		buf = s.parked[idx]
		delete(s.parked, idx)
	}
	if len(buf) != len(w) {
		buf = make(tensor.Vector, len(w))
	}
	copy(buf, w)
	s.snaps[idx] = buf
	return nil
}

// Get returns a copy of the snapshot at idx.
func (s *MemoryStore) Get(idx int) (tensor.Vector, error) {
	w, ok := s.snaps[idx]
	if !ok {
		return nil, fmt.Errorf("index %d: %w", idx, ErrNotFound)
	}
	return w.Clone(), nil
}

// Len returns the number of stored snapshots.
func (s *MemoryStore) Len() int { return len(s.snaps) }

// Bytes returns the in-memory footprint at wire-encoding size.
func (s *MemoryStore) Bytes() int64 {
	var total int64
	//rpolvet:ignore maporder commutative sum over values; iteration order never reaches a hash or encoder
	for _, w := range s.snaps {
		total += int64(tensor.EncodedSize(len(w)))
	}
	return total
}

// Clear removes all snapshots, parking their buffers for the next Puts.
func (s *MemoryStore) Clear() error {
	clear(s.parked)
	s.snaps, s.parked = s.parked, s.snaps
	return nil
}

// DiskStore persists snapshots as one file per checkpoint under a
// directory. Each file is a checksummed fsio frame around the canonical
// wire encoding, written atomically (temp file + rename), so a crash
// mid-Put leaves the previous snapshot rather than a torn hybrid and Get
// detects any corruption instead of decoding garbage weights.
//
// Put reuses internal encode buffers under a mutex (checkpoints land every
// interval, and re-encoding a full weight vector per Put doubled the
// write's allocation cost), so concurrent Puts and Gets are safe.
type DiskStore struct {
	fs  fsio.FS
	dir string

	mu      sync.Mutex
	encBuf  []byte // wire-encoded payload scratch
	fileBuf []byte // framed file scratch
}

var _ Store = (*DiskStore)(nil)

// NewDiskStore creates (if needed) and uses the given directory on the
// production filesystem.
func NewDiskStore(dir string) (*DiskStore, error) {
	if err := fsio.OS.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("checkpoint dir: %w", err)
	}
	return &DiskStore{fs: fsio.OS, dir: dir}, nil
}

// Dir returns the backing directory.
func (s *DiskStore) Dir() string { return s.dir }

func (s *DiskStore) path(idx int) string {
	return filepath.Join(s.dir, "ckpt-"+strconv.Itoa(idx)+".bin")
}

// Put atomically writes the snapshot's checksummed wire encoding to disk.
func (s *DiskStore) Put(idx int, w tensor.Vector) error {
	if idx < 0 {
		return fmt.Errorf("index %d: %w", idx, ErrBadIndex)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.encBuf = w.AppendEncode(s.encBuf[:0])
	s.fileBuf = fsio.AppendFile(s.fileBuf[:0], s.encBuf)
	if err := s.fs.WriteFileAtomic(s.path(idx), s.fileBuf); err != nil {
		return fmt.Errorf("checkpoint put %d: %w", idx, err)
	}
	return nil
}

// Get reads, verifies, and decodes the snapshot from disk. Corrupt, torn or
// unframed files fail with ErrCorruptCheckpoint.
func (s *DiskStore) Get(idx int) (tensor.Vector, error) {
	data, err := s.fs.ReadFile(s.path(idx))
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("index %d: %w", idx, ErrNotFound)
	}
	if err != nil {
		return nil, fmt.Errorf("checkpoint get %d: %w", idx, err)
	}
	payload, err := fsio.DecodeFile(data)
	if err != nil {
		return nil, fmt.Errorf("checkpoint get %d: %v: %w", idx, err, ErrCorruptCheckpoint)
	}
	w, err := tensor.DecodeVector(payload)
	if err != nil {
		return nil, fmt.Errorf("checkpoint get %d: %v: %w", idx, err, ErrCorruptCheckpoint)
	}
	return w, nil
}

// list returns the stored checkpoint files.
func (s *DiskStore) list() ([]string, error) {
	names, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, name := range names {
		if filepath.Ext(name) == ".bin" {
			files = append(files, filepath.Join(s.dir, name))
		}
	}
	sort.Strings(files)
	return files, nil
}

// Len returns the number of stored snapshots.
func (s *DiskStore) Len() int {
	files, err := s.list()
	if err != nil {
		return 0
	}
	return len(files)
}

// Bytes returns the on-disk footprint (framing overhead included).
func (s *DiskStore) Bytes() int64 {
	files, err := s.list()
	if err != nil {
		return 0
	}
	var total int64
	for _, f := range files {
		if size, err := s.fs.Size(f); err == nil {
			total += size
		}
	}
	return total
}

// Clear deletes all snapshot files.
func (s *DiskStore) Clear() error {
	files, err := s.list()
	if err != nil {
		return fmt.Errorf("checkpoint clear: %w", err)
	}
	for _, f := range files {
		if err := s.fs.Remove(f); err != nil {
			return fmt.Errorf("checkpoint clear: %w", err)
		}
	}
	return nil
}
