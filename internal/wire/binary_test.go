package wire

import (
	"errors"
	"strings"
	"testing"

	"rpol/internal/lsh"
	"rpol/internal/rpol"
	"rpol/internal/tensor"
)

// testResult builds a small, fully-populated epoch result by hand.
func testResult(t *testing.T) *rpol.EpochResult {
	t.Helper()
	r := &rpol.EpochResult{
		WorkerID:       "w-bin",
		Epoch:          4,
		Update:         tensor.Vector{0.5, -1.25, 3},
		DataSize:       128,
		NumCheckpoints: 2,
	}
	for i := range r.MerkleRoot {
		r.MerkleRoot[i] = byte(3*i + 1)
	}
	return r
}

func TestBinaryResultRoundTrip(t *testing.T) {
	res := testResult(t)
	data, err := AppendResult(nil, res)
	if err != nil {
		t.Fatal(err)
	}
	if data[0] != binMagic || data[1] != 2 || data[2] != binKindResult {
		t.Fatalf("header % x, want b5 02 05", data[:3])
	}
	got, err := DecodeResult(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.WorkerID != res.WorkerID || got.Epoch != res.Epoch ||
		got.DataSize != res.DataSize || got.NumCheckpoints != res.NumCheckpoints {
		t.Errorf("metadata changed: %+v", got)
	}
	if !got.Update.Equal(res.Update, 0) {
		t.Errorf("update = %v, want %v", got.Update, res.Update)
	}
	if got.MerkleRoot != res.MerkleRoot {
		t.Error("commitment changed")
	}
}

func TestBinaryOpenMessagesRoundTrip(t *testing.T) {
	req, err := DecodeOpenRequest(AppendOpenRequest(nil, 17))
	if err != nil || req.Idx != 17 {
		t.Errorf("open request = %+v, err = %v", req, err)
	}

	weights := tensor.Vector{2.5, -7}
	resp, err := decodeOpenResponse(AppendOpenResponse(nil, 3, "", weights))
	if err != nil || resp.Idx != 3 || resp.Err != "" {
		t.Fatalf("open response = %+v, err = %v", resp, err)
	}
	if w, err := tensor.DecodeVector(resp.Weights); err != nil || !w.Equal(weights, 0) {
		t.Errorf("weights = %v, err = %v", w, err)
	}

	resp, err = decodeOpenResponse(AppendOpenResponse(nil, 5, "no such checkpoint", nil))
	if err != nil || resp.Idx != 5 || resp.Err != "no such checkpoint" || resp.Weights != nil {
		t.Errorf("error response = %+v, err = %v", resp, err)
	}
}

func TestBinaryHeaderErrors(t *testing.T) {
	net, _ := wireTask(t, 41)
	task, err := EncodeTask(wireParams(net.ParamVector()))
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"empty":       nil,
		"short":       {binMagic, 2},
		"bad magic":   append([]byte{0x99}, task[1:]...),
		"bad version": append([]byte{binMagic, 0x7F}, task[2:]...),
		"wrong kind":  AppendOpenRequest(nil, 1),
		"truncated":   task[:len(task)-3],
	} {
		if _, err := DecodeTask(data); err == nil {
			t.Errorf("%s: decode accepted malformed payload", name)
		}
	}
	// Corrupt the LSH presence byte (immediately before the trailing global
	// vector in a task without an LSH family).
	small, err := EncodeTask(wireParams(tensor.Vector{1, 2}))
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte{}, small...)
	bad[len(bad)-len(tensor.Vector{1, 2}.Encode())-1] = 0x55
	if _, err := DecodeTask(bad); err == nil {
		t.Error("decode accepted a corrupt LSH presence byte")
	}
	if _, err := DecodeTask(append([]byte{binMagic, 0x7F}, task[2:]...)); err == nil ||
		!strings.Contains(err.Error(), "version") {
		t.Errorf("future version error = %v, want a version message", err)
	}
	if _, err := DecodeResult(task); !errors.Is(err, ErrFormat) {
		t.Errorf("kind mismatch err = %v, want ErrFormat", err)
	}
}

// TestAppendTaskSteadyStateAllocFree guards the task encode hot path: with a
// warm reused buffer (the ManagerPort scratch over a serializing transport),
// re-encoding the same task must not allocate at all.
func TestAppendTaskSteadyStateAllocFree(t *testing.T) {
	net, _ := wireTask(t, 42)
	p := wireParams(net.ParamVector())
	fam, err := lsh.NewFamily(len(p.Global), lsh.Params{R: 0.5, K: 2, L: 2}, 8)
	if err != nil {
		t.Fatal(err)
	}
	p.LSH = fam
	buf, err := AppendTask(nil, p)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		var err error
		buf, err = AppendTask(buf[:0], p)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("AppendTask allocates %.1f times per call with a warm buffer, want 0", allocs)
	}
}

// TestAppendResultSteadyStateAllocFree guards the result encode hot path the
// same way (the WorkerServer reply scratch).
func TestAppendResultSteadyStateAllocFree(t *testing.T) {
	res := testResult(t)
	buf, err := AppendResult(nil, res)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		var err error
		buf, err = AppendResult(buf[:0], res)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("AppendResult allocates %.1f times per call with a warm buffer, want 0", allocs)
	}
}

// TestAppendOpenResponseSteadyStateAllocFree covers the bulkiest verification
// message: the opened checkpoint weights.
func TestAppendOpenResponseSteadyStateAllocFree(t *testing.T) {
	weights := tensor.NewRNG(9).NormalVector(4096, 0, 1)
	buf := AppendOpenResponse(nil, 0, "", weights)
	allocs := testing.AllocsPerRun(20, func() {
		buf = AppendOpenResponse(buf[:0], 3, "", weights)
	})
	if allocs != 0 {
		t.Errorf("AppendOpenResponse allocates %.1f times per call with a warm buffer, want 0", allocs)
	}
}
