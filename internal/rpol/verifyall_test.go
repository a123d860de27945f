package rpol

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"rpol/internal/gpu"
	"rpol/internal/tensor"
)

// These tests drive verifyAll, the manager's one verification loop. Their
// names predate it: they once drove a pool of parallel verifiers, which the
// loop replaced.

// buildSubmissions runs n honest workers, w0 … w(n-1), for one epoch each.
func buildSubmissions(t *testing.T, n int) []submission {
	t.Helper()
	subs := make([]submission, 0, n)
	for i := 0; i < n; i++ {
		netW, ds := testTask(t, 10)
		worker, err := NewHonestWorker(fmt.Sprintf("w%d", i), gpu.GA10, int64(300+i), netW, ds)
		if err != nil {
			t.Fatal(err)
		}
		p := testParams(netW.ParamVector())
		result, err := worker.RunEpoch(p)
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, submission{opener: worker, shard: ds, result: result, params: p})
	}
	return subs
}

// loopKey is the master key whose challenge subkey draws the loop's samples.
var loopKey = []byte("loop-master")

// loopVerifier is an RPoLv1 verifier of q samples on its own network and
// device, seeded from seed, and a sampler verifyAll reseeds per submission.
func loopVerifier(t *testing.T, samples int, seed int64) *Verifier {
	t.Helper()
	netV, _ := testTask(t, 10)
	device, err := gpu.NewDevice(gpu.G3090, seed)
	if err != nil {
		t.Fatal(err)
	}
	return &Verifier{
		Scheme:  SchemeV1,
		Net:     netV,
		Device:  device,
		Beta:    0.05,
		Samples: samples,
		Sampler: tensor.NewRNG(0),
	}
}

func TestVerifierPoolAcceptsHonest(t *testing.T) {
	subs := buildSubmissions(t, 5)
	outcomes, err := verifyAll(loopVerifier(t, 2, 99), newChallenger(loopKey), subs)
	if err != nil {
		t.Fatal(err)
	}
	if len(outcomes) != 5 {
		t.Fatalf("outcomes = %d", len(outcomes))
	}
	for i, out := range outcomes {
		if want := fmt.Sprintf("w%d", i); out.WorkerID != want {
			t.Errorf("outcome %d is %s's, want %s's", i, out.WorkerID, want)
		}
		if !out.Accepted {
			t.Errorf("submission %d rejected: %s", i, out.FailReason)
		}
	}
}

func TestVerifierPoolCatchesCheaterAmongHonest(t *testing.T) {
	subs := buildSubmissions(t, 3)
	// Submission 1's opener serves random weights for leaf 1. With q = 3
	// every interval is sampled, so the forged leaf is always opened.
	forged := tensor.NewRNG(5).NormalVector(len(subs[1].params.Global), 0, 1)
	subs[1].opener = &forgingOpener{inner: subs[1].opener, target: 1, forged: forged}

	outcomes, err := verifyAll(loopVerifier(t, 3, 42), newChallenger(loopKey), subs)
	if err != nil {
		t.Fatal(err)
	}
	if !outcomes[0].Accepted || !outcomes[2].Accepted {
		t.Error("honest submissions rejected")
	}
	if outcomes[1].Accepted {
		t.Error("forged submission accepted")
	}
}

func TestVerifierPoolValidation(t *testing.T) {
	subs := buildSubmissions(t, 1)
	v := loopVerifier(t, 3, 1)
	v.Net = nil
	if _, err := verifyAll(v, newChallenger(loopKey), subs); !errors.Is(err, ErrNoNetwork) {
		t.Errorf("no network: err = %v, want ErrNoNetwork", err)
	}
	v = loopVerifier(t, 3, 1)
	v.Sampler = nil
	if _, err := verifyAll(v, newChallenger(loopKey), subs); !errors.Is(err, ErrNoSampler) {
		t.Errorf("no sampler: err = %v, want ErrNoSampler", err)
	}
	v = loopVerifier(t, 3, 1)
	v.Scheme = SchemeV2
	if _, err := verifyAll(v, newChallenger(loopKey), subs); err == nil {
		t.Error("want error for v2 verifier without LSH family")
	}
}

func TestVerifierPoolEmptyBatch(t *testing.T) {
	outcomes, err := verifyAll(loopVerifier(t, 3, 1), newChallenger(loopKey), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(outcomes) != 0 {
		t.Errorf("outcomes = %d", len(outcomes))
	}
}

// The replay's compute pool, sized beyond the work one submission offers (8
// workers against q = 2 intervals), must reach the outcomes and byte
// tallies of no pool at all.
func TestVerifierPoolMoreVerifiersThanWork(t *testing.T) {
	subs := buildSubmissions(t, 2)
	run := func(workers int) []*VerifyOutcome {
		setWorkers(t, workers)
		v := loopVerifier(t, 2, 7)
		outcomes, err := verifyAll(v, newChallenger(loopKey), subs)
		if err != nil {
			t.Fatal(err)
		}
		return outcomes
	}
	serial, pooled := run(0), run(8)
	for i, out := range serial {
		if !out.Accepted {
			t.Errorf("submission %d rejected: %s", i, out.FailReason)
		}
		if !reflect.DeepEqual(out, pooled[i]) {
			t.Errorf("submission %d: workers=8 diverged from workers=0:\n  %+v\n  %+v", i, *pooled[i], *out)
		}
	}
}
