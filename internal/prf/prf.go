// Package prf provides the pseudo-random function primitives behind RPoL's
// "stochastic-yet-deterministic" mini-batch gradient descent (Sec. V-B) and
// the address-seeded AMLayer weights (Sec. V-A).
//
// In each training step m a worker selects the n-th element of a batch as
// PRF(N·m + n) mod |D_w|, where N is a per-(worker, epoch) nonce issued by
// the manager. Because the schedule is a deterministic function of the nonce,
// the manager can recompute exactly the same batches during verification, yet
// across steps the batches look random — defeating replay attacks in which a
// worker resubmits old results.
package prf

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"hash"
)

// Nonce is the per-(worker, epoch) seed issued by the pool manager before
// local training starts.
type Nonce uint64

// ErrEmptyDataset is returned when an index into an empty dataset is
// requested.
var ErrEmptyDataset = errors.New("prf: empty dataset")

// PRF is a keyed pseudo-random function based on HMAC-SHA256. The zero value
// is not usable; construct with New. Eval, evalBytes and DataIndex are safe
// for concurrent use; the batch-schedule methods share scratch and are not.
type PRF struct {
	key []byte

	// mac is the one keyed HMAC the batch schedule reuses (Reset returns it
	// to the keyed state), built on the first batch; in and sum are its
	// input and output scratch.
	mac hash.Hash
	in  [8]byte
	sum [sha256.Size]byte
}

// New returns a PRF keyed with key. The key is copied.
func New(key []byte) *PRF {
	k := make([]byte, len(key))
	copy(k, key)
	return &PRF{key: k}
}

// NewFromNonce returns a PRF keyed with the 8-byte big-endian encoding of the
// nonce, matching the paper's PRF(N·m + n) construction where the nonce
// parameterizes the function.
func NewFromNonce(n Nonce) *PRF {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(n))
	return New(buf[:])
}

// Eval returns the PRF output for input x as a uint64 (the first 8 bytes of
// the HMAC digest).
func (p *PRF) Eval(x uint64) uint64 {
	mac := hmac.New(sha256.New, p.key)
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], x)
	mac.Write(buf[:])
	return binary.BigEndian.Uint64(mac.Sum(nil))
}

// evalBytes returns the full 32-byte PRF output for an arbitrary input.
func (p *PRF) evalBytes(input []byte) [32]byte {
	mac := hmac.New(sha256.New, p.key)
	mac.Write(input)
	var out [32]byte
	copy(out[:], mac.Sum(nil))
	return out
}

// DataIndex implements the paper's selection rule
// PRF(N·m + n) mod |D_w|: it returns the dataset index of the n-th element of
// the batch at training step m over a dataset of size datasetSize.
func (p *PRF) DataIndex(step, n, datasetSize int) (int, error) {
	if datasetSize <= 0 {
		return 0, ErrEmptyDataset
	}
	return int(p.Eval(scheduleInput(step, n)) % uint64(datasetSize)), nil
}

// scheduleInput is the PRF input selecting the n-th element of step m's batch.
func scheduleInput(step, n int) uint64 { return uint64(step)*batchStride + uint64(n) }

// batchStride separates the PRF input domains of distinct steps. The paper
// writes PRF(N×m + n); using a large constant stride keeps step domains
// disjoint for any batch size up to the stride.
const batchStride = 1 << 20

// BatchIndices returns the dataset indices for the batch at training step
// m with the given batch size over a dataset of datasetSize elements.
// The same (PRF, step) always produces the same batch, which is what lets the
// manager re-execute sampled steps bit-for-bit.
func (p *PRF) BatchIndices(step, batchSize, datasetSize int) ([]int, error) {
	out := make([]int, batchSize)
	if err := p.FillBatchIndices(out, step, datasetSize); err != nil {
		return nil, err
	}
	return out, nil
}

// FillBatchIndices is BatchIndices into a caller-owned slice whose length is
// the batch size: out[n] = DataIndex(step, n, datasetSize), computed without
// keying a fresh HMAC per index and without allocating after the first call.
func (p *PRF) FillBatchIndices(out []int, step, datasetSize int) error {
	if datasetSize <= 0 {
		return ErrEmptyDataset
	}
	if p.mac == nil {
		p.mac = hmac.New(sha256.New, p.key)
	}
	for n := range out {
		binary.BigEndian.PutUint64(p.in[:], scheduleInput(step, n))
		p.mac.Reset()
		p.mac.Write(p.in[:])
		out[n] = int(binary.BigEndian.Uint64(p.mac.Sum(p.sum[:0])) % uint64(datasetSize))
	}
	return nil
}

// DeriveNonce deterministically derives a per-(worker, epoch) nonce from a
// master key. The manager uses it to issue nonces without storing per-worker
// state.
func DeriveNonce(masterKey []byte, workerID string, epoch int) Nonce {
	mac := hmac.New(sha256.New, masterKey)
	mac.Write([]byte(workerID))
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(epoch))
	mac.Write(buf[:])
	return Nonce(binary.BigEndian.Uint64(mac.Sum(nil)))
}

// SeedFromString derives a deterministic int64 seed from an arbitrary string
// such as a blockchain address. AMLayer weight generation uses it so that a
// model layer is a pure function of the owner's address.
func SeedFromString(s string) int64 {
	sum := sha256.Sum256([]byte(s))
	return int64(binary.BigEndian.Uint64(sum[:8]) &^ (1 << 63))
}
