package rpol

import (
	"strings"
	"testing"

	"rpol/internal/commitment"
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
	if !strings.Contains(out.FailReason, "proof answers leaf") {
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

// TestVerifyMetricsParitySerialParallel pins the serial/parallel accounting
// contract across every scheme, for accepted and rejected submissions: the verdict, the outcome tallies (ReexecSteps,
// CommBytes, CommitBytes, LSHMisses, DoubleChecks), and the global
// rpol_reexec_steps_total / rpol_verify_comm_bytes_total counters must be
// identical — the parallel path must not account intervals that execute
// past the first failure. The per-leaf opener calls are held to the same
// contract: no leaf twice and the bound leaves never on either path,
// identical calls for an accepted submission, and for a rejected one the
// serial calls (which stop at the failing interval) a subset of the parallel
// ones (which fetched every input before the fan-out).
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
	var opener ProofOpener = worker
	trace := worker.LastTrace()
	if tampered {
		var forged *traceOpener
		forged, result = tamperedSubmission(t, worker, result, p, ref.LSH, 2)
		opener, trace = forged, forged.trace
	}
	if legacy {
		opener = commitWhole(t, trace, ref.LSH, result)
	}
	run := func(workers int) (*VerifyOutcome, int64, int64, *countingOpener) {
		netV, _ := testTask(t, 10)
		device, err := gpu.NewDevice(gpu.G3090, 999)
		if err != nil {
			t.Fatal(err)
		}
		observer := obs.NewObserver(obs.NewRegistry(), nil)
		v := &Verifier{
			Scheme: scheme, Net: netV, Device: device, Beta: ref.Beta,
			LSH: ref.LSH, Samples: 3, Sampler: tensor.NewRNG(42),
			Workers: workers, Obs: observer,
		}
		counting := &countingOpener{inner: opener}
		out, err := v.VerifySubmission(counting, ds, result, p)
		if err != nil {
			t.Fatal(err)
		}
		return out,
			observer.Counter("rpol_reexec_steps_total").Value(),
			observer.Counter("rpol_verify_comm_bytes_total").Value(),
			counting
	}
	serial, serialSteps, serialBytes, serialCalls := run(0)
	par, parSteps, parBytes, parCalls := run(4)
	for _, calls := range []struct{ serial, par map[int]int }{
		{serialCalls.opens, parCalls.opens}, {serialCalls.proofs, parCalls.proofs},
	} {
		for idx, n := range calls.par {
			if n != 1 || calls.serial[idx] > 1 {
				t.Errorf("leaf %d requested %d times serially, %d in parallel", idx, calls.serial[idx], n)
			}
		}
		for idx := range calls.serial {
			if calls.par[idx] == 0 {
				t.Errorf("leaf %d requested serially but not in parallel", idx)
			}
		}
		if !tampered && len(calls.serial) != len(calls.par) {
			t.Errorf("accepted submission: serial asked for %v, parallel for %v",
				leavesOf(calls.serial), leavesOf(calls.par))
		}
	}
	last := result.NumCheckpoints - 1
	if parCalls.opens[0]+parCalls.opens[last]+serialCalls.opens[0]+serialCalls.opens[last] != 0 {
		t.Error("a bound leaf was opened")
	}
	if tampered == serial.Accepted {
		t.Fatalf("serial verdict accepted=%v for tampered=%v (%s)",
			serial.Accepted, tampered, serial.FailReason)
	}
	if serial.Accepted != par.Accepted {
		t.Fatalf("verdicts diverge: serial=%v parallel=%v (%s / %s)",
			serial.Accepted, par.Accepted, serial.FailReason, par.FailReason)
	}
	if serial.ReexecSteps != par.ReexecSteps {
		t.Errorf("ReexecSteps: serial=%d parallel=%d", serial.ReexecSteps, par.ReexecSteps)
	}
	if serialSteps != parSteps {
		t.Errorf("rpol_reexec_steps_total: serial=%d parallel=%d", serialSteps, parSteps)
	}
	if int64(serial.ReexecSteps) != serialSteps {
		t.Errorf("outcome steps %d diverge from counter %d", serial.ReexecSteps, serialSteps)
	}
	if serial.CommBytes != par.CommBytes || serial.CommitBytes != par.CommitBytes {
		t.Errorf("bytes: serial=(%d,%d) parallel=(%d,%d)",
			serial.CommBytes, serial.CommitBytes, par.CommBytes, par.CommitBytes)
	}
	if serialBytes != parBytes {
		t.Errorf("rpol_verify_comm_bytes_total: serial=%d parallel=%d", serialBytes, parBytes)
	}
	if serial.LSHMisses != par.LSHMisses || serial.DoubleChecks != par.DoubleChecks {
		t.Errorf("lsh tallies: serial=(%d,%d) parallel=(%d,%d)",
			serial.LSHMisses, serial.DoubleChecks, par.LSHMisses, par.DoubleChecks)
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
