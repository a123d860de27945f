package rpol

import (
	"errors"
	"fmt"
	"maps"
	"reflect"
	"testing"

	"rpol/internal/commitment"
	"rpol/internal/dataset"
	"rpol/internal/gpu"
	"rpol/internal/lsh"
	"rpol/internal/obs"
	"rpol/internal/tensor"
)

func TestVerifyHonestWorkerMerkleV1(t *testing.T) {
	worker, result, p, verifier, ds := buildHonestSetup(t, SchemeV1)
	out, err := verifier.VerifySubmission(worker, ds, result, p)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Accepted {
		t.Fatalf("honest merkle worker rejected under v1: %s", out.FailReason)
	}
	// Commitment share: the root plus one validated proof per leaf used —
	// with all three intervals sampled, each of the four leaves exactly once
	// (the two bindings, and interior leaves 1 and 2 shared by adjacent
	// intervals).
	lp, err := worker.OpenProof(0)
	if err != nil {
		t.Fatal(err)
	}
	wantCommit := int64(commitment.HashSize) + 4*int64(lp.Size())
	if out.CommitBytes != wantCommit {
		t.Errorf("CommitBytes = %d, want %d", out.CommitBytes, wantCommit)
	}
	// Raw openings on top: the two interior leaves; the bound leaves 0 and 3
	// are the manager's own vectors.
	ws := int64(tensor.EncodedSize(len(p.Global)))
	if got, want := out.CommBytes, wantCommit+2*ws; got != want {
		t.Errorf("CommBytes = %d, want %d", got, want)
	}
}

func TestVerifyHonestWorkerMerkleV2(t *testing.T) {
	worker, result, p, verifier, ds := buildHonestSetup(t, SchemeV2)
	out, err := verifier.VerifySubmission(worker, ds, result, p)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Accepted {
		t.Fatalf("honest merkle worker rejected under v2: %s", out.FailReason)
	}
	// v2 pulls ride the committed digest with every proof; raw weights move
	// only for each interval's input plus any double-checks.
	lp, err := worker.OpenProof(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(lp.Digest) == 0 {
		t.Fatal("v2 proof pull carries no digest")
	}
	// All three intervals sampled: every one of the four leaves is proven
	// once and inputs 1 and 2 are opened (input 0 is the global model). A
	// double-check lands on leaf 1 or 2 — an input, pulled once either way —
	// or on the bound leaf 3, so it never adds a transfer at this shape.
	wantCommit := int64(commitment.HashSize) + 4*int64(lp.Size())
	if out.CommitBytes != wantCommit {
		t.Errorf("CommitBytes = %d, want %d", out.CommitBytes, wantCommit)
	}
	ws := int64(tensor.EncodedSize(len(p.Global)))
	if got, want := out.CommBytes, wantCommit+2*ws; got != want {
		t.Errorf("CommBytes = %d, want %d", got, want)
	}
}

// wrongLeafOpener answers every proof pull with the proof for a different
// committed leaf — a worker trying to reuse a valid proof must be caught by
// the index binding, not just by hash mismatch.
type wrongLeafOpener struct{ inner ProofOpener }

func (o *wrongLeafOpener) OpenCheckpoint(idx int) (tensor.Vector, error) {
	return o.inner.OpenCheckpoint(idx)
}

func (o *wrongLeafOpener) OpenProof(idx int) (LeafProof, error) {
	return o.inner.OpenProof((idx + 1) % 4)
}

func TestVerifyMerkleRejectsWrongProofIndex(t *testing.T) {
	worker, result, p, verifier, ds := buildHonestSetup(t, SchemeV1)
	out, err := verifier.VerifySubmission(&wrongLeafOpener{inner: worker}, ds, result, p)
	if err != nil {
		t.Fatal(err)
	}
	if out.Accepted {
		t.Fatal("proof answering the wrong leaf accepted")
	}
	if !errors.Is(out.FailReason, ErrProofIndex) {
		t.Errorf("FailReason = %q, want the index-binding rejection", out.FailReason)
	}
}

// tamperedSubmission rebuilds an honest worker's trace with checkpoint `at`
// replaced by random weights and re-commits it. Tampered mid-trace it still
// starts at the global model and ends at the claimed final checkpoint, so
// both binding checks pass and rejection happens mid-sampling — exactly the
// shape that exercises the post-failure interval accounting; tampered at
// either end it forges the commitment under a binding.
func tamperedSubmission(t *testing.T, worker *HonestWorker, result *EpochResult, p TaskParams, fam *lsh.Family, at int) (*traceOpener, *EpochResult) {
	t.Helper()
	fake := &Trace{}
	for i := 0; i < result.NumCheckpoints; i++ {
		cp, err := worker.OpenCheckpoint(i)
		if err != nil {
			t.Fatal(err)
		}
		fake.Checkpoints = append(fake.Checkpoints, cp.Clone())
		fake.Steps = append(fake.Steps, i*p.CheckpointEvery)
	}
	fake.Checkpoints[at] = tensor.NewRNG(9).NormalVector(len(p.Global), 0, 1)
	ec, err := CommitTrace(nil, fake.Checkpoints, fam)
	if err != nil {
		t.Fatal(err)
	}
	bad := &EpochResult{
		WorkerID: result.WorkerID, Epoch: result.Epoch, Update: result.Update,
		DataSize: result.DataSize, NumCheckpoints: result.NumCheckpoints,
	}
	ec.Apply(bad)
	return &traceOpener{trace: fake, fam: fam}, bad
}

// TestVerifyMetricsParitySerialParallel pins the verifier's accounting to
// its one replay loop across every scheme, for accepted and rejected
// submissions: at process compute settings 0, 1 and 4 the outcome (verdict, fail reason,
// sampled intervals, ReexecSteps, CommBytes, CommitBytes, LSHMisses,
// DoubleChecks), the global rpol_reexec_steps_total /
// rpol_verify_comm_bytes_total counters and the per-leaf opener calls must be
// identical. In every arm no leaf is requested twice and the bound leaves
// never. The tampered arms reject two ways: a trace with a random interior
// checkpoint, committed as it is, and an opener that forges an interior
// checkpoint against the honest root — the rejection a loop that fetched
// inputs ahead of the failing interval would ask for twice.
//
// The merkle arm serves the honest worker's streamed tree, and the tampered
// trace re-committed at each proof pull. The legacy arm serves either trace
// committed whole, once, after training: the pre-streaming path.
func TestVerifyMetricsParitySerialParallel(t *testing.T) {
	for _, scheme := range []Scheme{SchemeV1, SchemeV2} {
		for _, form := range []string{"legacy", "merkle"} {
			for _, tampered := range []bool{false, true} {
				name := scheme.String() + "/" + form
				if tampered {
					name += "/tampered"
				} else {
					name += "/honest"
				}
				t.Run(name, func(t *testing.T) {
					checkMetricsParity(t, scheme, form == "legacy", tampered)
				})
			}
		}
	}
}

func checkMetricsParity(t *testing.T, scheme Scheme, legacy, tampered bool) {
	worker, result, p, ref, ds := buildHonestSetup(t, scheme)
	var honest ProofOpener = worker
	if legacy {
		honest = commitWhole(t, worker.LastTrace(), ref.LSH, result)
	}
	if !tampered {
		checkOneLoop(t, "honest", scheme, ref, ds, p, honest, result, true)
		return
	}
	forged, bad := tamperedSubmission(t, worker, result, p, ref.LSH, 2)
	var opener ProofOpener = forged
	if legacy {
		opener = commitWhole(t, forged.trace, ref.LSH, bad)
	}
	checkOneLoop(t, "re-committed", scheme, ref, ds, p, opener, bad, false)
	fake := tensor.NewRNG(1).NormalVector(len(p.Global), 0, 1)
	for target := 1; target < result.NumCheckpoints-1; target++ {
		checkOneLoop(t, fmt.Sprintf("forged-opening-%d", target), scheme, ref, ds, p,
			&forgingOpener{inner: honest, target: target, forged: fake}, result, false)
	}
}

// verifyRun is what one verification showed: its outcome, the two global
// counters, and the opener calls.
type verifyRun struct {
	out          *VerifyOutcome
	steps, bytes int64
	opens        map[int]int
	proofs       map[int]int
}

// checkOneLoop verifies one submission at process settings 0, 1 and 4 and holds every
// run to the rules of TestVerifyMetricsParitySerialParallel.
func checkOneLoop(t *testing.T, arm string, scheme Scheme, ref *Verifier, ds *dataset.Dataset, p TaskParams, opener ProofOpener, result *EpochResult, accepted bool) {
	t.Helper()
	run := func(workers int) verifyRun {
		setWorkers(t, workers)
		netV, _ := testTask(t, 10)
		device, err := gpu.NewDevice(gpu.G3090, 999)
		if err != nil {
			t.Fatal(err)
		}
		observer := obs.NewObserver(obs.NewRegistry(), nil)
		v := &Verifier{
			Scheme: scheme, Net: netV, Device: device, Beta: ref.Beta,
			LSH: ref.LSH, Samples: 3, Sampler: tensor.NewRNG(42),
			Obs: observer,
		}
		counting := &countingOpener{inner: opener}
		out, err := v.VerifySubmission(counting, ds, result, p)
		if err != nil {
			t.Fatal(err)
		}
		return verifyRun{out,
			observer.Counter("rpol_reexec_steps_total").Value(),
			observer.Counter("rpol_verify_comm_bytes_total").Value(),
			counting.opens, counting.proofs}
	}
	last := result.NumCheckpoints - 1
	base := run(0)
	if base.out.Accepted != accepted {
		t.Fatalf("%s: accepted=%v, want %v (%s)", arm, base.out.Accepted, accepted, base.out.FailReason)
	}
	if int64(base.out.ReexecSteps) != base.steps {
		t.Errorf("%s: outcome steps %d diverge from counter %d", arm, base.out.ReexecSteps, base.steps)
	}
	for _, workers := range []int{0, 1, 4} {
		r := base
		if workers != 0 {
			r = run(workers)
		}
		for _, calls := range []map[int]int{r.opens, r.proofs} {
			for idx, n := range calls {
				if n != 1 {
					t.Errorf("%s, workers=%d: leaf %d requested %d times", arm, workers, idx, n)
				}
			}
		}
		if r.opens[0]+r.opens[last] != 0 {
			t.Errorf("%s, workers=%d: a bound leaf was opened", arm, workers)
		}
		if !reflect.DeepEqual(r.out, base.out) {
			t.Errorf("%s, workers=%d: outcome %+v, workers=0 %+v", arm, workers, r.out, base.out)
		}
		if r.steps != base.steps || r.bytes != base.bytes {
			t.Errorf("%s, workers=%d: counters (steps %d, bytes %d), workers=0 (%d, %d)",
				arm, workers, r.steps, r.bytes, base.steps, base.bytes)
		}
		if !maps.Equal(r.opens, base.opens) || !maps.Equal(r.proofs, base.proofs) {
			t.Errorf("%s, workers=%d: opened %v, proved %v; workers=0 opened %v, proved %v", arm, workers,
				leavesOf(r.opens), leavesOf(r.proofs), leavesOf(base.opens), leavesOf(base.proofs))
		}
	}
}

// TestVerifyRawOpeningBytesSchemeParity pins the raw weight bytes a
// verifier moves (CommBytes minus the commitment share) across schemes: with
// all three intervals sampled, RPoLv1 opens the two interior leaves it
// compares and RPoLv2 the two interior inputs it replays — the same two
// checkpoints, whatever the double-check does at this shape.
func TestVerifyRawOpeningBytesSchemeParity(t *testing.T) {
	raw := map[Scheme]int64{}
	var want int64
	for _, scheme := range []Scheme{SchemeV1, SchemeV2} {
		worker, result, p, verifier, ds := buildHonestSetup(t, scheme)
		out, err := verifier.VerifySubmission(worker, ds, result, p)
		if err != nil {
			t.Fatal(err)
		}
		if !out.Accepted {
			t.Fatalf("%s rejected: %s", scheme, out.FailReason)
		}
		raw[scheme] = out.CommBytes - out.CommitBytes
		want = 2 * int64(tensor.EncodedSize(len(p.Global)))
	}
	if raw[SchemeV1] != want || raw[SchemeV2] != want {
		t.Errorf("raw opening bytes v1=%d v2=%d, want %d each", raw[SchemeV1], raw[SchemeV2], want)
	}
}
