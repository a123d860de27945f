package rpol

import (
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
