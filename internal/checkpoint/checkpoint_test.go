package checkpoint

import (
	"errors"
	"os"
	"sync"
	"testing"

	"rpol/internal/fsio"
	"rpol/internal/tensor"
)

// storeUnderTest runs the shared contract tests against any Store.
// perFileOverhead is the framing cost Bytes reports per snapshot beyond the
// wire encoding (zero for memory, fsio.FileOverhead for disk).
func storeUnderTest(t *testing.T, s Store, perFileOverhead int) {
	t.Helper()
	if s.Len() != 0 || s.Bytes() != 0 {
		t.Fatalf("fresh store not empty: len %d, bytes %d", s.Len(), s.Bytes())
	}
	w0 := tensor.Vector{1.5, -2.25, 3}
	w1 := tensor.Vector{4, 5, 6}
	if err := s.Put(0, w0); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(1, w1); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d", s.Len())
	}
	wantBytes := int64(2 * (tensor.EncodedSize(3) + perFileOverhead))
	if s.Bytes() != wantBytes {
		t.Errorf("Bytes = %d, want %d", s.Bytes(), wantBytes)
	}
	got, err := s.Get(0)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(w0, 0) {
		t.Errorf("Get(0) = %v", got)
	}
	// Overwrite.
	if err := s.Put(0, w1); err != nil {
		t.Fatal(err)
	}
	got, err = s.Get(0)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(w1, 0) {
		t.Error("overwrite lost")
	}
	if s.Len() != 2 {
		t.Errorf("Len after overwrite = %d", s.Len())
	}
	// Missing and invalid indices.
	if _, err := s.Get(9); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get(9) err = %v", err)
	}
	if err := s.Put(-1, w0); !errors.Is(err, ErrBadIndex) {
		t.Errorf("Put(-1) err = %v", err)
	}
	// Clear.
	if err := s.Clear(); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 || s.Bytes() != 0 {
		t.Errorf("store not empty after Clear: len %d", s.Len())
	}
	if _, err := s.Get(0); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get after Clear err = %v", err)
	}
}

func TestMemoryStoreContract(t *testing.T) {
	storeUnderTest(t, NewMemoryStore(), 0)
}

func TestDiskStoreContract(t *testing.T) {
	s, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	storeUnderTest(t, s, fsio.FileOverhead)
}

func TestMemoryStoreCopies(t *testing.T) {
	s := NewMemoryStore()
	w := tensor.Vector{1, 2}
	if err := s.Put(0, w); err != nil {
		t.Fatal(err)
	}
	w[0] = 99 // caller mutation must not leak in
	got, err := s.Get(0)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 {
		t.Error("store aliases the caller's slice")
	}
	got[1] = 99 // reader mutation must not leak back
	again, err := s.Get(0)
	if err != nil {
		t.Fatal(err)
	}
	if again[1] != 2 {
		t.Error("store aliases returned slices")
	}
}

// TestMemoryStoreRecyclesOnlyItsOwnBuffers pins the store's ownership across
// epochs: a vector Get returned is never written by a later Clear + Put
// cycle, and recycled buffers round-trip whatever shape comes next.
func TestMemoryStoreRecyclesOnlyItsOwnBuffers(t *testing.T) {
	s := NewMemoryStore()
	epoch := func(vals ...tensor.Vector) {
		t.Helper()
		if err := s.Clear(); err != nil {
			t.Fatal(err)
		}
		for i, w := range vals {
			if err := s.Put(i, w); err != nil {
				t.Fatal(err)
			}
		}
		if s.Len() != len(vals) {
			t.Fatalf("Len = %d after %d puts", s.Len(), len(vals))
		}
		for i, w := range vals {
			got, err := s.Get(i)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(w, 0) {
				t.Fatalf("Get(%d) = %v, want %v", i, got, w)
			}
		}
	}
	epoch(tensor.Vector{1, 2, 3}, tensor.Vector{4, 5, 6})
	held, err := s.Get(0)
	if err != nil {
		t.Fatal(err)
	}
	epoch(tensor.Vector{7, 8, 9}, tensor.Vector{10, 11, 12}) // same shape: buffers recycled
	epoch(tensor.Vector{13, 14})                             // fewer and shorter
	epoch(tensor.Vector{15, 16, 17, 18}, tensor.Vector{19}, tensor.Vector{20, 21, 22})
	if !held.Equal(tensor.Vector{1, 2, 3}, 0) {
		t.Errorf("a vector returned by Get was rewritten by later epochs: %v", held)
	}
	// Put over an existing index, same length and another.
	for _, w := range []tensor.Vector{{23}, {24, 25}} {
		if err := s.Put(1, w); err != nil {
			t.Fatal(err)
		}
		if got, err := s.Get(1); err != nil || !got.Equal(w, 0) {
			t.Errorf("overwrite with %v read back %v, %v", w, got, err)
		}
	}
	if s.Len() != 3 {
		t.Errorf("Len = %d after overwrites, want 3", s.Len())
	}
}

// TestMemoryStoreSteadyStateAllocatesNothing guards the epoch cycle a worker
// runs: Clear, then Put every checkpoint at the previous epoch's shape.
func TestMemoryStoreSteadyStateAllocatesNothing(t *testing.T) {
	s := NewMemoryStore()
	ckpts := make([]tensor.Vector, 5)
	for i := range ckpts {
		ckpts[i] = tensor.NewRNG(int64(i)).NormalVector(256, 0, 1)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := s.Clear(); err != nil {
			t.Fatal(err)
		}
		for i, w := range ckpts {
			if err := s.Put(i, w); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("Clear + Put cycle allocates %.0f times at steady state, want 0", allocs)
	}
}

func TestDiskStoreBitExactRoundTrip(t *testing.T) {
	// Verification demands bit-identical openings: the disk round trip must
	// preserve every float exactly.
	s, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(4)
	w := rng.NormalVector(512, 0, 1)
	if err := s.Put(3, w); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(3)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(w, 0) {
		t.Error("disk round trip not bit-exact")
	}
	if s.Dir() == "" {
		t.Error("Dir empty")
	}
}

// TestDiskStoreConcurrentPuts is the -race regression for the shared
// encode-buffer data race: the parallel runtime's workers checkpoint
// concurrently through one store, so concurrent Puts (and Gets) must be
// safe and every snapshot must land intact.
func TestDiskStoreConcurrentPuts(t *testing.T) {
	s, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const n = 16
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := tensor.NewVector(64)
			for j := range w {
				w[j] = float64(i*1000 + j)
			}
			if err := s.Put(i, w); err != nil {
				t.Error(err)
			}
			if _, err := s.Get(i); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if s.Len() != n {
		t.Fatalf("Len = %d", s.Len())
	}
	for i := 0; i < n; i++ {
		got, err := s.Get(i)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != float64(i*1000) || got[63] != float64(i*1000+63) {
			t.Fatalf("snapshot %d interleaved with another Put: %v...", i, got[:2])
		}
	}
}

// TestDiskStoreDetectsCorruption: a truncated or bit-flipped snapshot file
// must surface as ErrCorruptCheckpoint, never as garbage weights.
func TestDiskStoreDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	w := tensor.NewRNG(9).NormalVector(32, 0, 1)
	if err := s.Put(0, w); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(s.path(0))
	if err != nil {
		t.Fatal(err)
	}

	// Bit flip in the payload.
	flipped := append([]byte(nil), data...)
	flipped[len(flipped)/2] ^= 0x08
	if err := os.WriteFile(s.path(0), flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(0); !errors.Is(err, ErrCorruptCheckpoint) {
		t.Fatalf("bit flip: err = %v, want ErrCorruptCheckpoint", err)
	}

	// Truncation (torn write).
	if err := os.WriteFile(s.path(0), data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(0); !errors.Is(err, ErrCorruptCheckpoint) {
		t.Fatalf("truncation: err = %v, want ErrCorruptCheckpoint", err)
	}

	// Intact again after a fresh Put.
	if err := s.Put(0, w); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(0)
	if err != nil || !got.Equal(w, 0) {
		t.Fatalf("after re-put: %v", err)
	}
}

// TestDiskStoreRejectsUnframedFiles: a snapshot without the checksummed
// frame — the pre-fsio format among them (raw wire encoding) — is refused as
// corrupt rather than decoded, since nothing vouches for its bytes.
func TestDiskStoreRejectsUnframedFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	w := tensor.Vector{3.5, -1.25, 0.75}
	if err := os.WriteFile(s.path(2), w.Encode(), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(2)
	if !errors.Is(err, ErrCorruptCheckpoint) || got != nil {
		t.Fatalf("unframed snapshot read as %v, err = %v, want ErrCorruptCheckpoint", got, err)
	}
}

func TestDiskStorePersistsAcrossInstances(t *testing.T) {
	dir := t.TempDir()
	s1, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Put(0, tensor.Vector{7}); err != nil {
		t.Fatal(err)
	}
	s2, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s2.Get(0)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 7 {
		t.Error("checkpoint lost across instances")
	}
	if s2.Len() != 1 {
		t.Errorf("Len = %d", s2.Len())
	}
}
