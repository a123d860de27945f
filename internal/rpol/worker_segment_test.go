package rpol

import (
	"path/filepath"
	"testing"

	"rpol/internal/checkpoint"
	"rpol/internal/fsio"
	"rpol/internal/gpu"
	"rpol/internal/obs"
)

// headerFrameLen is a segment's file header and header frame: fsio's 8-byte
// file header, its guarded length prefix, the 17-byte header payload, fsio's
// check word.
const headerFrameLen = 8 + 8 + 17 + 8

// segmentWorker builds the same seeded worker over the segment in dir, with
// its own registry and event stream.
func segmentWorker(t *testing.T, dir string) (*HonestWorker, *obs.Observer) {
	t.Helper()
	net, ds := testTask(t, 12)
	worker, err := NewHonestWorker("w", gpu.GA10, 5, net, ds)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := checkpoint.NewSegment(fsio.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	worker.SetSegment(seg)
	o := obs.NewObserver(obs.NewRegistry(), nil)
	o.AttachEvents(obs.NewEvents(16, nil))
	worker.SetObserver(o)
	return worker, o
}

// TestHonestWorkerResumesFromSegment drives the durable path end to end at
// the worker: an epoch leaves header + checkpoints 1..final in the segment;
// a restarted worker armed for that epoch adopts every checkpoint but the
// final one and reproduces the epoch bit for bit; damage shortens what it
// adopts and is reported; a segment of another epoch is ignored in silence.
func TestHonestWorkerResumesFromSegment(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "segment.bin")
	net, _ := testTask(t, 12)
	p := testParams(net.ParamVector())
	first, _ := segmentWorker(t, dir)
	want, err := first.RunEpoch(p)
	if err != nil {
		t.Fatal(err)
	}
	if want.NumCheckpoints != 4 {
		t.Fatalf("%d checkpoints, the cases below assume 4", want.NumCheckpoints)
	}
	whole, err := fsio.OS.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(whole)) != first.StorageBytes() {
		t.Fatalf("segment holds %d bytes, worker reports %d", len(whole), first.StorageBytes())
	}
	frames, intact, stop := checkpoint.ScanSegment(whole, p.Epoch, fsio.Checksum(p.Global.Encode()), len(p.Global), 99)
	if len(frames) != 3 || intact != len(whole) || stop != nil {
		t.Fatalf("a finished epoch left %d frames, %d of %d bytes intact, stop %v", len(frames), intact, len(whole), stop)
	}
	if !frames[2].Weights.Equal(first.LastTrace().Final(), 0) {
		t.Fatal("the persisted final checkpoint is not the bound one")
	}

	cases := []struct {
		name              string
		damage            func() []byte
		resumed, corrupts int64
	}{
		{"intact", func() []byte { return whole }, 2, 0},
		{"flipped bit in checkpoint 2", func() []byte {
			d := append([]byte(nil), whole...)
			d[len(d)-len(d)/3-40] ^= 0x04
			return d
		}, 1, 1},
		{"torn inside checkpoint 1", func() []byte { return whole[:len(whole)/3] }, 0, 1},
		{"header only", func() []byte { return whole[:headerFrameLen] }, 0, 0},
		{"missing", func() []byte { return nil }, 0, 0},
	}
	for _, tc := range cases {
		if data := tc.damage(); data == nil {
			if err := fsio.OS.Remove(path); err != nil {
				t.Fatal(err)
			}
		} else if err := fsio.OS.WriteFileAtomic(path, data); err != nil {
			t.Fatal(err)
		}
		restarted, o := segmentWorker(t, dir)
		restarted.PrepareResume(p.Epoch)
		got, err := restarted.RunEpoch(p)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !got.Update.Equal(want.Update, 0) || got.MerkleRoot != want.MerkleRoot {
			t.Errorf("%s: resumed epoch differs from the uninterrupted one", tc.name)
		}
		if n := o.Counter("rpol_resumed_checkpoints_total").Value(); n != tc.resumed {
			t.Errorf("%s: rpol_resumed_checkpoints_total = %d, want %d", tc.name, n, tc.resumed)
		}
		if n := o.Counter("rpol_resume_corrupt_checkpoints_total").Value(); n != tc.corrupts {
			t.Errorf("%s: rpol_resume_corrupt_checkpoints_total = %d, want %d", tc.name, n, tc.corrupts)
		}
		if _, ok := o.Events().Last(obs.EventCheckpointCorrupt); ok != (tc.corrupts > 0) {
			t.Errorf("%s: checkpoint_corrupt event published = %t", tc.name, ok)
		}
		// Whatever was adopted, the segment ends up whole again.
		after, err := fsio.OS.ReadFile(path)
		if err != nil || string(after) != string(whole) {
			t.Errorf("%s: segment after the resumed epoch differs from the uninterrupted one (%v)", tc.name, err)
		}
	}

	// Armed for an epoch the segment does not hold: nothing is adopted,
	// nothing is reported, and the epoch runs fresh.
	stale, o := segmentWorker(t, dir)
	next := p
	next.Epoch = p.Epoch + 1
	stale.PrepareResume(next.Epoch)
	if _, err := stale.RunEpoch(next); err != nil {
		t.Fatal(err)
	}
	if r, c := o.Counter("rpol_resumed_checkpoints_total").Value(), o.Counter("rpol_resume_corrupt_checkpoints_total").Value(); r != 0 || c != 0 {
		t.Errorf("stale segment: resumed %d, corrupt %d, want 0 and 0", r, c)
	}
}
