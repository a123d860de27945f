package checkpoint

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"

	"rpol/internal/fsio"
	"rpol/internal/tensor"
)

// storeUnderTest runs the Store contract tests against s.
func storeUnderTest(t *testing.T, s Store) {
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
	wantBytes := int64(2 * tensor.EncodedSize(3))
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
	storeUnderTest(t, NewMemoryStore())
}

// writeSegment begins epoch segEpoch on a fresh segment in dir, appends ws
// as checkpoints 1, 2, …, syncs and closes it.
func writeSegment(t *testing.T, dir string, ws ...tensor.Vector) *Segment {
	t.Helper()
	seg, err := NewSegment(fsio.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := seg.Begin(segEpoch, segDigest); err != nil {
		t.Fatal(err)
	}
	for i, w := range ws {
		if err := seg.Append(segEpoch, i+1, 2*(i+1), w); err != nil {
			t.Fatal(err)
		}
	}
	if err := seg.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := seg.Close(); err != nil {
		t.Fatal(err)
	}
	return seg
}

// readSegment resumes seg for epoch segEpoch and returns the adopted
// checkpoints' weights and why the scan stopped.
func readSegment(t *testing.T, seg *Segment, dim, limit int) ([]tensor.Vector, error) {
	t.Helper()
	frames, stop, err := seg.Resume(segEpoch, segDigest, dim, limit)
	if err != nil {
		t.Fatal(err)
	}
	ws := make([]tensor.Vector, len(frames))
	for i, f := range frames {
		if f.Index != i+1 || f.Step != 2*(i+1) {
			t.Fatalf("frame %d holds index %d at step %d", i, f.Index, f.Step)
		}
		ws[i] = f.Weights
	}
	return ws, stop
}

// TestDiskStoreContract holds the durable checkpoint format, the segment, to
// the contract a store kept: what an epoch appends reads back in order, Bytes
// counts every byte on disk, a bad index is refused, and the next epoch's
// Begin clears the last one's checkpoints.
func TestDiskStoreContract(t *testing.T) {
	dir := t.TempDir()
	w1, w2 := tensor.Vector{1.5, -2.25, 3}, tensor.Vector{4, 5, 6}
	seg := writeSegment(t, dir, w1, w2)
	size, err := fsio.OS.Size(filepath.Join(dir, segmentFile))
	if err != nil {
		t.Fatal(err)
	}
	if seg.Bytes() != size {
		t.Errorf("Bytes = %d, the file holds %d", seg.Bytes(), size)
	}
	got, stop := readSegment(t, seg, 3, 9)
	if stop != nil || len(got) != 2 || !got[0].Equal(w1, 0) || !got[1].Equal(w2, 0) {
		t.Fatalf("read back %v (stop %v), want [%v %v]", got, stop, w1, w2)
	}
	if err := seg.Append(segEpoch, 0, 0, w1); !errors.Is(err, ErrBadIndex) {
		t.Errorf("Append(0) err = %v", err)
	}
	if err := seg.Append(segEpoch, 1, -1, w1); !errors.Is(err, ErrBadIndex) {
		t.Errorf("Append at step -1 err = %v", err)
	}
	if err := seg.Begin(segEpoch+1, segDigest); err != nil {
		t.Fatal(err)
	}
	if err := seg.Close(); err != nil {
		t.Fatal(err)
	}
	if got, _ := readSegment(t, seg, 3, 9); len(got) != 0 {
		t.Errorf("the next epoch's Begin left %d checkpoints of the last", len(got))
	}
}

// TestMemoryStoreCopies pins that the store copies nothing: Get returns the
// very vector Put recorded, without allocating, the store never writes it,
// and Clear forgets it.
func TestMemoryStoreCopies(t *testing.T) {
	s := NewMemoryStore()
	w := tensor.Vector{1, 2}
	if err := s.Put(0, w); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(0)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.SameStorage(got, w) || len(got) != len(w) {
		t.Error("Get returned a copy, not the vector Put recorded")
	}
	if allocs := testing.AllocsPerRun(10, func() { _, _ = s.Get(0) }); allocs != 0 {
		t.Errorf("Get allocates %.0f times, want 0", allocs)
	}
	if err := s.Put(0, tensor.Vector{3, 4}); err != nil {
		t.Fatal(err)
	}
	if err := s.Clear(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(0); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get after Clear err = %v", err)
	}
	if !w.Equal(tensor.Vector{1, 2}, 0) {
		t.Errorf("the store wrote a vector it indexed: %v", w)
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
	// preserve every float exactly, signed zero and NaN payloads included.
	w := tensor.NewRNG(4).NormalVector(512, 0, 1)
	w[7], w[8] = math.Copysign(0, -1), math.Float64frombits(0x7ff8_0000_dead_beef)
	seg := writeSegment(t, t.TempDir(), w)
	got, stop := readSegment(t, seg, len(w), 1)
	if stop != nil || len(got) != 1 {
		t.Fatalf("read back %d checkpoints, stop %v", len(got), stop)
	}
	for i := range w {
		if math.Float64bits(got[0][i]) != math.Float64bits(w[i]) {
			t.Fatalf("weight %d: %x after the disk round trip, want %x", i, math.Float64bits(got[0][i]), math.Float64bits(w[i]))
		}
	}
}

// TestDiskStoreConcurrentPuts is the -race regression for workers that
// checkpoint at the same time: each owns its segment, in a directory of its
// own, so concurrent epochs share no buffer and every checkpoint lands
// intact.
func TestDiskStoreConcurrentPuts(t *testing.T) {
	root := t.TempDir()
	const n = 16
	vector := func(i, j int) tensor.Vector {
		w := tensor.NewVector(64)
		for k := range w {
			w[k] = float64(i*1000 + j*100 + k)
		}
		return w
	}
	segs := make([]*Segment, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			seg, err := NewSegment(fsio.OS, filepath.Join(root, strconv.Itoa(i)))
			if err == nil {
				err = seg.Begin(segEpoch, segDigest)
			}
			for j := 1; j <= 3 && err == nil; j++ {
				err = seg.Append(segEpoch, j, 2*j, vector(i, j))
			}
			if err == nil {
				err = seg.Sync()
			}
			if err == nil {
				err = seg.Close()
			}
			if err != nil {
				t.Error(err)
			}
			segs[i] = seg
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i, seg := range segs {
		got, stop := readSegment(t, seg, 64, 9)
		if stop != nil || len(got) != 3 {
			t.Fatalf("segment %d: %d checkpoints, stop %v", i, len(got), stop)
		}
		for j, w := range got {
			if !w.Equal(vector(i, j+1), 0) {
				t.Fatalf("segment %d checkpoint %d interleaved with another worker's: %v...", i, j+1, w[:2])
			}
		}
	}
}

// TestDiskStoreDetectsCorruption: a bit-flipped or truncated checkpoint frame
// ends the adopted prefix before it, never surfacing as garbage weights.
func TestDiskStoreDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	rng := tensor.NewRNG(9)
	w1, w2 := rng.NormalVector(32, 0, 1), rng.NormalVector(32, 0, 1)
	seg := writeSegment(t, dir, w1, w2)
	path := filepath.Join(dir, segmentFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Bit flip inside the second checkpoint's payload.
	flipped := append([]byte(nil), data...)
	flipped[len(flipped)-40] ^= 0x08
	if err := os.WriteFile(path, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, stop := readSegment(t, seg, 32, 9); !errors.Is(stop, fsio.ErrChecksum) || len(got) != 1 || !got[0].Equal(w1, 0) {
		t.Fatalf("bit flip: adopted %d checkpoints, stop %v; want the intact first and ErrChecksum", len(got), stop)
	}

	// Truncation (torn write).
	if err := os.WriteFile(path, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	if got, stop := readSegment(t, seg, 32, 9); !errors.Is(stop, fsio.ErrTornFrame) || len(got) != 1 {
		t.Fatalf("truncation: adopted %d checkpoints, stop %v; want the intact first and ErrTornFrame", len(got), stop)
	}

	// Intact again after a fresh epoch.
	seg = writeSegment(t, dir, w1, w2)
	if got, stop := readSegment(t, seg, 32, 9); stop != nil || len(got) != 2 || !got[1].Equal(w2, 0) {
		t.Fatalf("after a fresh epoch: %d checkpoints, stop %v", len(got), stop)
	}
}

// TestDiskStoreRejectsUnframedFiles: a checkpoint file without the segment's
// header and frames — a bare wire encoding among them — is refused whole with
// fsio.ErrVersion and left as it is, since nothing vouches for its bytes.
func TestDiskStoreRejectsUnframedFiles(t *testing.T) {
	dir := t.TempDir()
	seg, err := NewSegment(fsio.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, segmentFile)
	raw := tensor.Vector{3.5, -1.25, 0.75}.Encode()
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	frames, _, err := seg.Resume(segEpoch, segDigest, 3, 9)
	if !errors.Is(err, fsio.ErrVersion) || frames != nil {
		t.Fatalf("unframed file read as %d checkpoints, err = %v, want fsio.ErrVersion", len(frames), err)
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(after, raw) {
		t.Fatal("the refused file was rewritten")
	}
}

func TestDiskStorePersistsAcrossInstances(t *testing.T) {
	dir := t.TempDir()
	writeSegment(t, dir, tensor.Vector{7})
	s2, err := NewSegment(fsio.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	got, stop := readSegment(t, s2, 1, 9)
	if stop != nil || len(got) != 1 || got[0][0] != 7 {
		t.Fatalf("checkpoint lost across instances: %v, stop %v", got, stop)
	}
	if size, _ := fsio.OS.Size(filepath.Join(dir, segmentFile)); s2.Bytes() != size {
		t.Errorf("Bytes = %d after resuming a %d-byte segment", s2.Bytes(), size)
	}
}
