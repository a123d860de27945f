package tracefile

import (
	"errors"
	"path/filepath"
	"testing"

	"rpol/internal/rpol"
	"rpol/internal/tensor"
)

func sampleTrace() (*rpol.Trace, rpol.TaskParams) {
	trace := &rpol.Trace{
		Checkpoints: []tensor.Vector{{1, 2, 3}, {1.5, 2.5, 3.5}, {2, 3, 4}},
		Steps:       []int{0, 5, 10},
	}
	p := rpol.TaskParams{
		Epoch:           2,
		Global:          trace.Checkpoints[0],
		Hyper:           rpol.Hyper{Optimizer: "sgdm", LR: 0.02, BatchSize: 8},
		Nonce:           12345,
		Steps:           10,
		CheckpointEvery: 5,
	}
	return trace, p
}

func TestRoundTrip(t *testing.T) {
	trace, p := sampleTrace()
	f, err := FromTrace("resnet18-cifar10", 7, "w1", "GA10", p, trace)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := f.Write(path); err != nil {
		t.Fatal(err)
	}
	got, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Task != "resnet18-cifar10" || got.WorkerID != "w1" || got.GPU != "GA10" || got.Seed != 7 {
		t.Errorf("metadata lost: %+v", got)
	}
	gotTrace, err := got.Trace()
	if err != nil {
		t.Fatal(err)
	}
	if len(gotTrace.Checkpoints) != 3 {
		t.Fatalf("checkpoints = %d", len(gotTrace.Checkpoints))
	}
	for i := range trace.Checkpoints {
		if !gotTrace.Checkpoints[i].Equal(trace.Checkpoints[i], 0) {
			t.Errorf("checkpoint %d changed", i)
		}
		if gotTrace.Steps[i] != trace.Steps[i] {
			t.Errorf("step %d changed", i)
		}
	}
	if err := got.CheckTask(p); err != nil {
		t.Errorf("params changed: %v", err)
	}
	// Every recorded parameter is held to the task.
	for i, other := range []func(*rpol.TaskParams){
		func(q *rpol.TaskParams) { q.Epoch++ },
		func(q *rpol.TaskParams) { q.Steps++ },
		func(q *rpol.TaskParams) { q.CheckpointEvery++ },
		func(q *rpol.TaskParams) { q.Hyper.LR *= 2 },
		func(q *rpol.TaskParams) { q.Hyper.BatchSize++ },
		func(q *rpol.TaskParams) { q.Hyper.Optimizer = "sgd" },
		func(q *rpol.TaskParams) { q.Nonce++ },
	} {
		q := p
		other(&q)
		if err := got.CheckTask(q); !errors.Is(err, ErrOtherTask) {
			t.Errorf("change %d: err = %v, want ErrOtherTask", i, err)
		}
	}
	// So is every recorded checkpoint step: shifted, dropped or added.
	for i, steps := range [][]int{{0, 4, 10}, {0, 5, 9}, {1, 5, 10}, {0, 10}, {0, 5, 10, 10}} {
		shifted := *got
		shifted.StepsAt = steps
		if err := shifted.CheckTask(p); !errors.Is(err, ErrOtherTask) {
			t.Errorf("steps %d %v: err = %v, want ErrOtherTask", i, steps, err)
		}
	}
}

func TestFromTraceValidation(t *testing.T) {
	_, p := sampleTrace()
	if _, err := FromTrace("t", 1, "w", "g", p, nil); !errors.Is(err, ErrCorrupt) {
		t.Errorf("nil trace: err = %v", err)
	}
	bad := &rpol.Trace{Checkpoints: []tensor.Vector{{1}}, Steps: []int{0, 5}}
	if _, err := FromTrace("t", 1, "w", "g", p, bad); !errors.Is(err, ErrCorrupt) {
		t.Errorf("ragged trace: err = %v", err)
	}
}

func TestVersionCheck(t *testing.T) {
	trace, p := sampleTrace()
	f, err := FromTrace("t", 1, "w", "g", p, trace)
	if err != nil {
		t.Fatal(err)
	}
	f.Version = 99
	if _, err := f.Trace(); !errors.Is(err, ErrBadVersion) {
		t.Errorf("err = %v", err)
	}
	path := filepath.Join(t.TempDir(), "v99.json")
	if err := f.Write(path); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(path); !errors.Is(err, ErrBadVersion) {
		t.Errorf("Read err = %v", err)
	}
}

func TestCorruptCheckpoints(t *testing.T) {
	trace, p := sampleTrace()
	f, err := FromTrace("t", 1, "w", "g", p, trace)
	if err != nil {
		t.Fatal(err)
	}
	f.Checkpoints[1] = "!!!not-base64!!!"
	if _, err := f.Trace(); !errors.Is(err, ErrCorrupt) {
		t.Errorf("err = %v", err)
	}
	f.Checkpoints[1] = "AAAA" // valid base64, invalid vector encoding
	if _, err := f.Trace(); err == nil {
		t.Error("want error for invalid vector bytes")
	}
}

func TestReadMissingFile(t *testing.T) {
	if _, err := Read(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("want error for missing file")
	}
}

func TestReadGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "garbage.json")
	if err := (&File{Version: FormatVersion}).Write(path); err != nil {
		t.Fatal(err)
	}
	f, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Trace(); !errors.Is(err, ErrCorrupt) {
		t.Errorf("empty trace: err = %v", err)
	}
}
