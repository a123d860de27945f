package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"rpol/internal/fsio"
	"rpol/internal/tensor"
)

const (
	segEpoch  = 3
	segDigest = uint64(0xfeedface)
	segDim    = 5
)

func segVector(idx int) tensor.Vector {
	v := make(tensor.Vector, segDim)
	for i := range v {
		v[i] = float64(idx) + float64(i)/10
	}
	return v
}

func headerFrame(epoch int, digest uint64) []byte {
	return fsio.AppendFrame(nil, appendHeaderPayload(nil, epoch, digest))
}

func checkpointFrame(epoch, idx int, w tensor.Vector) []byte {
	return fsio.AppendFrame(nil, appendCheckpointPayload(nil, epoch, idx, 2*idx, w))
}

// fileOf concatenates the segment file header and the frames.
func fileOf(frames ...[]byte) []byte {
	out := []byte(fileHeader)
	for _, f := range frames {
		out = append(out, f...)
	}
	return out
}

// segmentOf is the file of a header for (segEpoch, segDigest) and the frames.
func segmentOf(frames ...[]byte) []byte {
	return fileOf(append([][]byte{headerFrame(segEpoch, segDigest)}, frames...)...)
}

func TestScanSegmentTable(t *testing.T) {
	f1, f2, f3 := checkpointFrame(segEpoch, 1, segVector(1)), checkpointFrame(segEpoch, 2, segVector(2)), checkpointFrame(segEpoch, 3, segVector(3))
	whole := segmentOf(f1, f2, f3)
	flipped := append([]byte(nil), whole...)
	flipped[len(segmentOf())+len(f1)+20] ^= 0x08
	overCap := append(segmentOf(f1), 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0, 1, 2, 3)
	otherVersion := append([]byte(nil), whole...)
	otherVersion[len(fileHeader)-1]++

	cases := []struct {
		name   string
		data   []byte
		limit  int
		frames int
		stop   error // nil: the scan refused nothing
	}{
		{"intact", whole, 9, 3, nil},
		{"limit stops short of the final checkpoint", whole, 2, 2, nil},
		{"header only", segmentOf(), 9, 0, nil},
		{"torn tail", whole[:len(whole)-7], 9, 2, fsio.ErrTornFrame},
		{"torn inside the length prefix", whole[:len(segmentOf(f1))+2], 9, 1, fsio.ErrTornFrame},
		{"flipped bit", flipped, 9, 1, fsio.ErrChecksum},
		{"frame from another epoch", segmentOf(f1, checkpointFrame(segEpoch-1, 2, segVector(2)), f3), 9, 1, ErrSegmentFrame},
		{"duplicate index: the first copy is the only one adopted", segmentOf(f1, checkpointFrame(segEpoch, 1, segVector(9)), f2), 9, 1, ErrSegmentFrame},
		{"index gap", segmentOf(f1, f3), 9, 1, ErrSegmentFrame},
		{"index 0 is the header's", segmentOf(checkpointFrame(segEpoch, 0, segVector(0)), f1), 9, 0, ErrSegmentFrame},
		{"a second header", segmentOf(f1, headerFrame(segEpoch, segDigest), f2), 9, 1, ErrSegmentFrame},
		{"vector of another model", segmentOf(f1, checkpointFrame(segEpoch, 2, make(tensor.Vector, segDim+1))), 9, 1, ErrSegmentFrame},
		{"length prefix above the frame cap", overCap, 9, 1, fsio.ErrChecksum},
		{"empty", nil, 9, 0, ErrSegmentHeader},
		{"garbage", []byte("not a segment at all"), 9, 0, fsio.ErrVersion},
		{"torn file header", whole[:5], 9, 0, ErrSegmentHeader},
		{"torn header", whole[:len(fileHeader)+10], 9, 0, ErrSegmentHeader},
		{"checkpoint where the header belongs", fileOf(f1), 9, 0, ErrSegmentHeader},
		{"header of another epoch", fileOf(headerFrame(segEpoch+1, segDigest), f1), 9, 0, ErrSegmentStale},
		{"header of another global model", fileOf(headerFrame(segEpoch, segDigest+1), f1), 9, 0, ErrSegmentStale},
		{"another format version", otherVersion, 9, 0, fsio.ErrVersion},
		{"frames without a file header", whole[len(fileHeader):], 9, 0, fsio.ErrVersion},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			frames, intact, stop := ScanSegment(tc.data, segEpoch, segDigest, segDim, tc.limit)
			if len(frames) != tc.frames {
				t.Errorf("adopted %d frames, want %d", len(frames), tc.frames)
			}
			if (tc.stop == nil) != (stop == nil) || (tc.stop != nil && !errors.Is(stop, tc.stop)) {
				t.Errorf("stop = %v, want %v", stop, tc.stop)
			}
			for i, f := range frames {
				if f.Index != i+1 || f.Step != 2*(i+1) || !f.Weights.Equal(segVector(i+1), 0) {
					t.Errorf("frame %d = index %d step %d weights %v", i, f.Index, f.Step, f.Weights)
				}
			}
			// The intact length is exactly the header plus the adopted frames.
			if want := segmentOf(f1, f2, f3)[:intact]; len(frames) > 0 && !bytes.Equal(tc.data[:intact], want) {
				t.Errorf("intact prefix of %d bytes is not header + %d frames", intact, len(frames))
			}
			if len(frames) == 0 && intact != 0 && intact != len(segmentOf()) {
				t.Errorf("no frames adopted but %d bytes called intact", intact)
			}
		})
	}
	// A step is a uint32 on disk: where int has 32 bits, one above its range
	// is refused, never decoded as a negative step.
	t.Run("step beyond the int range", func(t *testing.T) {
		payload := appendCheckpointPayload(nil, segEpoch, 2, 0, segVector(2))
		binary.BigEndian.PutUint32(payload[13:], math.MaxUint32)
		frames, _, stop := ScanSegment(segmentOf(f1, fsio.AppendFrame(nil, payload)), segEpoch, segDigest, segDim, 9)
		wantFrames, wantStop := 2, error(nil)
		if strconv.IntSize == 32 {
			wantFrames, wantStop = 1, ErrSegmentFrame
		}
		if len(frames) != wantFrames || !errors.Is(stop, wantStop) {
			t.Fatalf("adopted %d frames, stop %v; want %d, %v", len(frames), stop, wantFrames, wantStop)
		}
		if len(frames) == 2 && uint64(frames[1].Step) != math.MaxUint32 {
			t.Errorf("step decoded as %d, want %d", frames[1].Step, uint64(math.MaxUint32))
		}
	})
}

// FuzzSegmentScan holds ScanSegment to the bounded-decoder contract on
// arbitrary bytes: no panic, nothing adopted that is not bit-for-bit a frame
// this package would have written for that index, and an intact length that
// re-encodes to the input's own leading bytes.
func FuzzSegmentScan(f *testing.F) {
	f1, f2 := checkpointFrame(segEpoch, 1, segVector(1)), checkpointFrame(segEpoch, 2, segVector(2))
	whole := segmentOf(f1, f2)
	f.Add(whole)
	f.Add(whole[:len(whole)-3])                                        // torn tail
	f.Add(whole[:len(segmentOf())+3])                                  // torn inside a length prefix
	f.Add(segmentOf(f1, f1))                                           // duplicate index
	f.Add(segmentOf(f2))                                               // index gap
	f.Add(segmentOf(f1, checkpointFrame(segEpoch+1, 2, segVector(2)))) // foreign epoch
	f.Add(fileOf(headerFrame(segEpoch, segDigest^1), f1))              // foreign global model
	f.Add(fileOf(fsio.AppendFrame(nil, []byte("tiny"))))               // frame-valid, header-invalid
	f.Add(append(segmentOf(f1), 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0))   // pathological length prefix
	f.Add([]byte("not a segment"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		frames, intact, stop := ScanSegment(data, segEpoch, segDigest, segDim, 4)
		if intact < 0 || intact > len(data) || len(frames) > 4 {
			t.Fatalf("%d frames, %d of %d bytes intact", len(frames), intact, len(data))
		}
		if intact > 0 && (errors.Is(stop, ErrSegmentHeader) || errors.Is(stop, ErrSegmentStale)) {
			t.Fatalf("rejected segment reports %d intact bytes", intact)
		}
		if intact == 0 {
			if len(frames) != 0 {
				t.Fatalf("%d frames adopted from a rejected segment", len(frames))
			}
			return
		}
		reenc := segmentOf()
		for i, fr := range frames {
			if fr.Index != i+1 || len(fr.Weights) != segDim {
				t.Fatalf("frame %d: index %d, %d weights", i, fr.Index, len(fr.Weights))
			}
			reenc = fsio.AppendFrame(reenc, appendCheckpointPayload(nil, segEpoch, fr.Index, fr.Step, fr.Weights))
		}
		if !bytes.Equal(reenc, data[:intact]) {
			t.Fatalf("adopted prefix does not re-encode to the input's first %d bytes", intact)
		}
	})
}

func TestSegmentLifecycle(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpt-w")
	seg, err := NewSegment(fsio.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, segmentFile)
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("NewSegment created the file (stat: %v)", err)
	}
	// Resuming over nothing is an empty prefix, not an error.
	if frames, stop, err := seg.Resume(segEpoch, segDigest, segDim, 9); err != nil || stop != nil || len(frames) != 0 {
		t.Fatalf("resume over a missing file: %d frames, stop %v, err %v", len(frames), stop, err)
	}

	// A directory an older build used holds one file per checkpoint; the
	// first epoch's truncation clears them away.
	for _, name := range []string{"ckpt-0.bin", "ckpt-1.bin"} {
		if err := fsio.OS.WriteFileAtomic(filepath.Join(dir, name), []byte("old layout")); err != nil {
			t.Fatal(err)
		}
	}
	if err := seg.Begin(segEpoch, segDigest); err != nil {
		t.Fatal(err)
	}
	for idx := 1; idx <= 3; idx++ {
		if err := seg.Append(segEpoch, idx, 2*idx, segVector(idx)); err != nil {
			t.Fatal(err)
		}
	}
	if err := seg.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := seg.Close(); err != nil {
		t.Fatal(err)
	}
	if names, _ := fsio.OS.ReadDir(dir); len(names) != 1 || names[0] != segmentFile {
		t.Fatalf("directory holds %v, want only the segment", names)
	}
	data, err := fsio.OS.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := segmentOf(checkpointFrame(segEpoch, 1, segVector(1)), checkpointFrame(segEpoch, 2, segVector(2)), checkpointFrame(segEpoch, 3, segVector(3)))
	if !bytes.Equal(data, want) || seg.Bytes() != int64(len(want)) {
		t.Fatalf("segment holds %d bytes (Bytes() = %d), want %d", len(data), seg.Bytes(), len(want))
	}
	if err := seg.Append(segEpoch, 0, 0, segVector(0)); !errors.Is(err, ErrBadIndex) {
		t.Fatalf("append of index 0: %v", err)
	}

	// Resume adopts up to the limit, cuts the file back to what it adopted
	// — the tail here is a torn frame — and later appends land behind it.
	if err := fsio.OS.WriteFileAtomic(path, data[:len(data)-5]); err != nil {
		t.Fatal(err)
	}
	frames, stop, err := seg.Resume(segEpoch, segDigest, segDim, 9)
	if err != nil || len(frames) != 2 || !errors.Is(stop, fsio.ErrTornFrame) {
		t.Fatalf("resume: %d frames, stop %v, err %v", len(frames), stop, err)
	}
	if err := seg.Append(segEpoch, 3, 6, segVector(3)); err != nil {
		t.Fatal(err)
	}
	if err := seg.Close(); err != nil {
		t.Fatal(err)
	}
	if data, err := fsio.OS.ReadFile(path); err != nil || !bytes.Equal(data, want) {
		t.Fatalf("after resume + append the segment differs from the uninterrupted one (%v)", err)
	}
	frames, stop, err = seg.Resume(segEpoch, segDigest, segDim, 2)
	if err != nil || len(frames) != 2 || stop != nil {
		t.Fatalf("resume at limit 2: %d frames, stop %v, err %v", len(frames), stop, err)
	}
	if size, _ := fsio.OS.Size(path); size != int64(len(want)-len(checkpointFrame(segEpoch, 3, segVector(3)))) {
		t.Fatalf("resume at limit 2 left %d bytes", size)
	}

	// A segment of another epoch is reported stale and left for Begin.
	frames, stop, err = seg.Resume(segEpoch+1, segDigest, segDim, 9)
	if err != nil || len(frames) != 0 || !errors.Is(stop, ErrSegmentStale) {
		t.Fatalf("stale resume: %d frames, stop %v, err %v", len(frames), stop, err)
	}
	if err := seg.Begin(segEpoch+1, segDigest); err != nil {
		t.Fatal(err)
	}
	if err := seg.Close(); err != nil {
		t.Fatal(err)
	}
	if data, _ := fsio.OS.ReadFile(path); !bytes.Equal(data, fileOf(headerFrame(segEpoch+1, segDigest))) {
		t.Fatalf("Begin left %d bytes, want a lone header", len(data))
	}

	// A segment of another format is refused, by CheckVersion and by Resume,
	// and left as it is; one torn inside its file header is not.
	foreign := append([]byte(nil), data...)
	foreign[0] ^= 0x01
	for _, tc := range []struct {
		data []byte
		want error
	}{{foreign, fsio.ErrVersion}, {data[:3], nil}} {
		if err := fsio.OS.WriteFileAtomic(path, tc.data); err != nil {
			t.Fatal(err)
		}
		if err := seg.CheckVersion(); !errors.Is(err, tc.want) || (tc.want == nil) != (err == nil) {
			t.Fatalf("CheckVersion over %d bytes: %v, want %v", len(tc.data), err, tc.want)
		}
		frames, _, err := seg.Resume(segEpoch+1, segDigest, segDim, 9)
		if !errors.Is(err, tc.want) || (tc.want == nil) != (err == nil) || len(frames) != 0 {
			t.Fatalf("Resume over %d bytes: %d frames, %v, want %v", len(tc.data), len(frames), err, tc.want)
		}
		if after, _ := fsio.OS.ReadFile(path); !bytes.Equal(after, tc.data) {
			t.Fatalf("Resume rewrote %d bytes", len(tc.data))
		}
	}
}
