// Package checkpoint provides the storage layer for a worker's training
// proofs. A pool worker must retain every checkpoint of the current epoch
// until verification completes (the paper bills this at ~4.5 GB per
// ResNet50 worker, Table III); this package offers an in-memory store for
// simulations and an append-only segment, the one durable format, whose
// frames carry the exact wire encoding, so a checkpoint recovered from disk
// is bit-identical to the live one.
package checkpoint

import (
	"errors"
	"fmt"

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
