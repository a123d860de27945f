// Package checkpoint provides the storage layer for a worker's training
// proofs. A pool worker must retain every checkpoint of the current epoch
// until verification completes (the paper bills this at ~4.5 GB per
// ResNet50 worker, Table III), and it should hold each one once. This
// package offers an in-memory store, an index over the checkpoints the
// worker's trace already holds, and an append-only segment, the one durable
// format, whose frames carry the exact wire encoding, so a checkpoint
// recovered from disk is bit-identical to the live one.
package checkpoint

import (
	"errors"
	"fmt"

	"rpol/internal/tensor"
)

// Store holds the checkpoints of one epoch, addressed by index.
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

// MemoryStore indexes snapshots its caller keeps: Put records the vector
// itself and Get returns that same vector, so the store holds no copy and
// owns no buffer. The caller leaves every vector it put unchanged until the
// store's next Clear, after which the store no longer refers to it.
type MemoryStore struct {
	snaps map[int]tensor.Vector
}

var _ Store = (*MemoryStore)(nil)

// NewMemoryStore returns an empty in-memory store.
func NewMemoryStore() *MemoryStore {
	return &MemoryStore{snaps: make(map[int]tensor.Vector)}
}

// Put records w as the snapshot at idx.
func (s *MemoryStore) Put(idx int, w tensor.Vector) error {
	if idx < 0 {
		return fmt.Errorf("index %d: %w", idx, ErrBadIndex)
	}
	s.snaps[idx] = w
	return nil
}

// Get returns the vector last put at idx.
func (s *MemoryStore) Get(idx int) (tensor.Vector, error) {
	w, ok := s.snaps[idx]
	if !ok {
		return nil, fmt.Errorf("index %d: %w", idx, ErrNotFound)
	}
	return w, nil
}

// Len returns the number of stored snapshots.
func (s *MemoryStore) Len() int { return len(s.snaps) }

// Bytes returns the indexed snapshots' size at wire encoding.
func (s *MemoryStore) Bytes() int64 {
	var total int64
	//rpolvet:ignore maporder commutative sum over values; iteration order never reaches a hash or encoder
	for _, w := range s.snaps {
		total += int64(tensor.EncodedSize(len(w)))
	}
	return total
}

// Clear forgets every snapshot.
func (s *MemoryStore) Clear() error {
	clear(s.snaps)
	return nil
}
