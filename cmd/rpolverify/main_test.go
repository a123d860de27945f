package main

import (
	"bytes"
	"errors"
	"io"
	"path/filepath"
	"strings"
	"testing"

	"rpol/internal/adversary"
	"rpol/internal/gpu"
	"rpol/internal/rpol"
	"rpol/internal/tensor"
	"rpol/internal/tracefile"
)

const testTask = "resnet18-cifar10"

func TestRecordAndVerifyHonest(t *testing.T) {
	path := filepath.Join(t.TempDir(), "honest.json")
	if err := recordTrace(io.Discard, path, testTask, "honest", 10, 3); err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []string{"v1", "v2"} {
		outcome, err := verifyTrace(io.Discard, path, scheme)
		if err != nil {
			t.Fatalf("verify %s: %v", scheme, err)
		}
		if !outcome.Accepted {
			t.Errorf("verify %s: honest trace rejected: %v", scheme, outcome.FailReason)
		}
	}
	if code := run([]string{"-verify", path}, io.Discard, io.Discard); code != 0 {
		t.Errorf("accepted trace: exit %d, want 0", code)
	}
}

// TestRecordAdversarialModes: the replay and the spoofing attacker's traces
// are rejected for the rule they break — a distance the replay does not
// reach — never as an absent worker, and the command exits 1 after printing
// the verdict.
func TestRecordAdversarialModes(t *testing.T) {
	for _, mode := range []string{"adv1", "adv2"} {
		path := filepath.Join(t.TempDir(), mode+".json")
		if err := recordTrace(io.Discard, path, testTask, mode, 10, 3); err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		outcome, err := verifyTrace(io.Discard, path, "v2")
		if err != nil {
			t.Fatalf("verify %s: %v", mode, err)
		}
		if outcome.Accepted {
			t.Fatalf("verify %s: accepted", mode)
		}
		if errors.Is(outcome.FailReason, rpol.ErrWorkerUnavailable) || !errors.Is(outcome.FailReason, rpol.ErrDistance) {
			t.Errorf("verify %s: reason %v, want ErrDistance", mode, outcome.FailReason)
		}
		var out bytes.Buffer
		if code := run([]string{"-verify", path, "-scheme", "v2"}, &out, io.Discard); code != 1 {
			t.Errorf("%s: exit %d, want 1", mode, code)
		}
		if !strings.Contains(out.String(), "VERDICT: REJECTED") {
			t.Errorf("%s: output lacks the verdict:\n%s", mode, out.String())
		}
	}
}

// TestVerifyRejectsWrongInit: a worker that trains honestly from a start of
// its own choosing records a consistent trace, so a verifier that took θ_t
// from the file would accept it. The verifier derives θ_t from the task and
// rejects the trace's first leaf.
func TestVerifyRejectsWrongInit(t *testing.T) {
	const seed = 3
	tk, err := deriveTask(testTask, seed, 10)
	if err != nil {
		t.Fatal(err)
	}
	shift := tensor.NewRNG(7).NormalVector(len(tk.params.Global), 0, 0.01)
	adv, err := adversary.NewWrongInit("recorded", gpu.GA10, seed+100, tk.net, tk.work, shift)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := adv.RunEpoch(tk.params); err != nil {
		t.Fatal(err)
	}
	file, err := tracefile.FromTrace(testTask, seed, "recorded", gpu.GA10.Name, tk.params, adv.LastTrace())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "wronginit.json")
	if err := file.Write(path); err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []string{"v1", "v2"} {
		outcome, err := verifyTrace(io.Discard, path, scheme)
		if err != nil {
			t.Fatalf("verify %s: %v", scheme, err)
		}
		if outcome.Accepted || !errors.Is(outcome.FailReason, rpol.ErrWrongStart) {
			t.Errorf("verify %s: accepted=%t reason %v, want ErrWrongStart", scheme, outcome.Accepted, outcome.FailReason)
		}
	}
}

func TestRecordValidation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.json")
	if err := recordTrace(io.Discard, path, testTask, "evil-mode", 10, 3); err == nil {
		t.Error("unknown mode accepted")
	}
	if err := recordTrace(io.Discard, path, "unknown-task", "honest", 10, 3); err == nil {
		t.Error("unknown task accepted")
	}
}

func TestVerifyValidation(t *testing.T) {
	if _, err := verifyTrace(io.Discard, filepath.Join(t.TempDir(), "missing.json"), "v1"); err == nil {
		t.Error("missing file accepted")
	}
	path := filepath.Join(t.TempDir(), "h.json")
	if err := recordTrace(io.Discard, path, testTask, "honest", 10, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := verifyTrace(io.Discard, path, "v7"); err == nil {
		t.Error("unknown scheme accepted")
	}
	// A file recorded under other parameters than the task its name, seed
	// and step count derive is refused before verification.
	file, err := tracefile.Read(path)
	if err != nil {
		t.Fatal(err)
	}
	file.Params.LR *= 2
	other := filepath.Join(t.TempDir(), "other.json")
	if err := file.Write(other); err != nil {
		t.Fatal(err)
	}
	if _, err := verifyTrace(io.Discard, other, "v2"); !errors.Is(err, tracefile.ErrOtherTask) {
		t.Errorf("other task: err = %v, want ErrOtherTask", err)
	}
	if code := run(nil, io.Discard, io.Discard); code != 2 {
		t.Errorf("no mode: exit %d, want 2", code)
	}
	if code := run([]string{"-verify", path, "-record", path}, io.Discard, io.Discard); code != 1 {
		t.Errorf("both modes: exit %d, want 1", code)
	}
}
