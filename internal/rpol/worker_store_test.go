package rpol

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"rpol/internal/checkpoint"
	"rpol/internal/fsio"
	"rpol/internal/gpu"
	"rpol/internal/tensor"
)

// TestHonestWorkerWithDiskStore: a worker persisting through its segment has
// every committed checkpoint on disk, bit for bit, once its commitment is
// out; it reports the segment's bytes as its storage, is verified end to end,
// and the next epoch replaces the last one's checkpoints.
func TestHonestWorkerWithDiskStore(t *testing.T) {
	net, ds := testTask(t, 12)
	worker, err := NewHonestWorker("w", gpu.GA10, 5, net, ds)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	seg, err := checkpoint.NewSegment(fsio.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	worker.SetSegment(seg)
	onDisk := func(p TaskParams, result *EpochResult) {
		t.Helper()
		data, err := os.ReadFile(filepath.Join(dir, "segment.bin"))
		if err != nil {
			t.Fatal(err)
		}
		if worker.StorageBytes() != int64(len(data)) {
			t.Errorf("StorageBytes = %d, the segment holds %d", worker.StorageBytes(), len(data))
		}
		frames, _, stop := checkpoint.ScanSegment(data, p.Epoch, fsio.Checksum(p.Global.Encode()), len(p.Global), result.NumCheckpoints)
		// Checkpoint 0 is the task's global model, which the header stands in for.
		if stop != nil || len(frames) != result.NumCheckpoints-1 {
			t.Fatalf("epoch %d: segment holds %d of %d checkpoints (stop %v)", p.Epoch, len(frames), result.NumCheckpoints-1, stop)
		}
		for _, f := range frames {
			if !f.Weights.Equal(worker.LastTrace().Checkpoints[f.Index], 0) {
				t.Fatalf("epoch %d: checkpoint %d on disk differs from the trace", p.Epoch, f.Index)
			}
		}
	}

	p := testParams(net.ParamVector())
	result, err := worker.RunEpoch(p)
	if err != nil {
		t.Fatal(err)
	}
	onDisk(p, result)

	// Verification works end-to-end beside the durable segment.
	netV, _ := testTask(t, 12)
	device, err := gpu.NewDevice(gpu.G3090, 6)
	if err != nil {
		t.Fatal(err)
	}
	verifier := &Verifier{
		Scheme: SchemeV1, Net: netV, Device: device,
		Beta: 0.05, Samples: 3, Sampler: tensor.NewRNG(7),
	}
	out, err := verifier.VerifySubmission(worker, ds, result, p)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Accepted {
		t.Fatalf("segment-backed worker rejected: %s", out.FailReason)
	}

	// A new epoch replaces the previous epoch's proofs.
	p2 := p
	p2.Epoch = 1
	p2.Global = worker.LastTrace().Final().Clone()
	result2, err := worker.RunEpoch(p2)
	if err != nil {
		t.Fatal(err)
	}
	onDisk(p2, result2)
}

func TestStorageBytesWithoutStore(t *testing.T) {
	net, ds := testTask(t, 13)
	worker, err := NewHonestWorker("w", gpu.GA10, 5, net, ds)
	if err != nil {
		t.Fatal(err)
	}
	if worker.StorageBytes() != 0 {
		t.Error("fresh worker should report zero storage")
	}
	p := testParams(net.ParamVector())
	result, err := worker.RunEpoch(p)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(result.NumCheckpoints * tensor.EncodedSize(len(p.Global)))
	if worker.StorageBytes() != want {
		t.Errorf("StorageBytes = %d, want %d", worker.StorageBytes(), want)
	}
}

// recordingStore is a MemoryStore that logs every Put and Clear and holds a
// copy of what each Put recorded, so a Clear can check that no vector the
// store indexed was written while it was indexed, and that the worker's trace
// still held it.
type recordingStore struct {
	*checkpoint.MemoryStore
	t      *testing.T
	worker *HonestWorker
	calls  []string
	copies []tensor.Vector // by index
}

func (s *recordingStore) Put(idx int, w tensor.Vector) error {
	s.calls = append(s.calls, fmt.Sprintf("put %d", idx))
	for len(s.copies) <= idx {
		s.copies = append(s.copies, nil)
	}
	s.copies[idx] = w.Clone()
	return s.MemoryStore.Put(idx, w)
}

func (s *recordingStore) Clear() error {
	s.calls = append(s.calls, "clear")
	for idx, want := range s.copies {
		got, err := s.MemoryStore.Get(idx)
		if err != nil {
			s.t.Fatal(err)
		}
		if !got.Equal(want, 0) {
			s.t.Errorf("checkpoint %d was rewritten while the store indexed it", idx)
		}
		if tr := s.worker.LastTrace(); tr == nil || !tensor.SameStorage(got, tr.Checkpoints[idx]) {
			s.t.Errorf("checkpoint %d left the trace before the store forgot it", idx)
		}
	}
	s.copies = s.copies[:0]
	return s.MemoryStore.Clear()
}

// TestHonestWorkerOpensFromItsTrace: a worker with a memory store keeps each
// checkpoint once. Every opening is the trace's own vector, served without
// allocating; StorageBytes is the trace's encoded size; a v1 verifier accepts
// every epoch; and the store forgets the trace before the next RunEpoch
// hands it back to the trainer to refill.
func TestHonestWorkerOpensFromItsTrace(t *testing.T) {
	net, ds := testTask(t, 14)
	worker, err := NewHonestWorker("w", gpu.GA10, 5, net, ds)
	if err != nil {
		t.Fatal(err)
	}
	store := &recordingStore{MemoryStore: checkpoint.NewMemoryStore(), t: t, worker: worker}
	worker.SetStore(store)
	netV, _ := testTask(t, 14)
	device, err := gpu.NewDevice(gpu.G3090, 6)
	if err != nil {
		t.Fatal(err)
	}
	verifier := &Verifier{
		Scheme: SchemeV1, Net: netV, Device: device,
		Beta: 0.05, Samples: 3, Sampler: tensor.NewRNG(7),
	}

	p := testParams(net.ParamVector())
	for epoch := 0; epoch < 3; epoch++ {
		p.Epoch = epoch
		store.calls = store.calls[:0]
		result, err := worker.RunEpoch(p)
		if err != nil {
			t.Fatal(err)
		}
		trace := worker.LastTrace()
		want := []string{"clear"}
		for i := range trace.Checkpoints {
			want = append(want, fmt.Sprintf("put %d", i))
		}
		if fmt.Sprint(store.calls) != fmt.Sprint(want) {
			t.Errorf("epoch %d: store calls %v, want %v", epoch, store.calls, want)
		}

		var encoded int64
		for i, c := range trace.Checkpoints {
			encoded += int64(len(c.Encode()))
			got, err := worker.OpenCheckpoint(i)
			if err != nil {
				t.Fatal(err)
			}
			if !tensor.SameStorage(got, c) || len(got) != len(c) {
				t.Errorf("epoch %d: opening %d is not the trace's checkpoint", epoch, i)
			}
			if allocs := testing.AllocsPerRun(10, func() { _, _ = worker.OpenCheckpoint(i) }); allocs != 0 {
				t.Errorf("epoch %d: opening %d allocates %.0f times, want 0", epoch, i, allocs)
			}
		}
		if worker.StorageBytes() != encoded {
			t.Errorf("epoch %d: StorageBytes = %d, the trace encodes to %d", epoch, worker.StorageBytes(), encoded)
		}

		out, err := verifier.VerifySubmission(worker, ds, result, p)
		if err != nil {
			t.Fatal(err)
		}
		if !out.Accepted {
			t.Fatalf("epoch %d: store-backed worker rejected: %s", epoch, out.FailReason)
		}
		p.Global = trace.Final().Clone()
	}
}
