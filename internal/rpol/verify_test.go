package rpol

import (
	"testing"

	"rpol/internal/commitment"
	"rpol/internal/dataset"
	"rpol/internal/gpu"
	"rpol/internal/lsh"
	"rpol/internal/tensor"
)

// buildHonestSetup creates a worker, runs one epoch, and returns everything
// a verifier needs. scheme decides whether an LSH family is calibrated in.
func buildHonestSetup(t *testing.T, scheme Scheme) (*HonestWorker, *EpochResult, TaskParams, *Verifier, *dataset.Dataset) {
	t.Helper()
	netW, ds := testTask(t, 10)
	worker, err := NewHonestWorker("w1", gpu.GA10, 101, netW, ds)
	if err != nil {
		t.Fatal(err)
	}
	p := testParams(netW.ParamVector())

	var fam *lsh.Family
	beta := 0.05 // generous default; calibrated tests compute their own
	if scheme == SchemeV2 {
		// Calibrate α/β from two probe runs on the top profiles.
		netC, _ := testTask(t, 10)
		cal := &Calibrator{Net: netC, Shard: ds, XFactor: 5, KLsh: 16}
		calOut, f, err := cal.Calibrate(p, gpu.G3090, gpu.GA10, [2]int64{5, 6}, 7)
		if err != nil {
			t.Fatal(err)
		}
		fam = f
		beta = calOut.Beta
		p.LSH = fam
	}

	result, err := worker.RunEpoch(p)
	if err != nil {
		t.Fatal(err)
	}

	netV, _ := testTask(t, 10)
	device, err := gpu.NewDevice(gpu.G3090, 999)
	if err != nil {
		t.Fatal(err)
	}
	verifier := &Verifier{
		Scheme:  scheme,
		Net:     netV,
		Device:  device,
		Beta:    beta,
		LSH:     fam,
		Samples: 3,
		Sampler: tensor.NewRNG(42),
	}
	return worker, result, p, verifier, ds
}

func TestVerifyHonestWorkerV1(t *testing.T) {
	worker, result, p, verifier, ds := buildHonestSetup(t, SchemeV1)
	out, err := verifier.VerifySubmission(worker, ds, result, p)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Accepted {
		t.Fatalf("honest worker rejected under v1: %s", out.FailReason)
	}
	if len(out.SampledCheckpoints) != 3 {
		t.Errorf("sampled = %v", out.SampledCheckpoints)
	}
	// v1 transfers, beyond the commitment share, every interior leaf a
	// sampled interval touches, once: with all three intervals sampled that
	// is leaves 1 and 2 — leaf 0 is the distributed global model and leaf 3
	// is θ_t + update, both bound without a transfer.
	if got, want := out.CommBytes-out.CommitBytes, 2*int64(tensor.EncodedSize(len(p.Global))); got != want {
		t.Errorf("raw opening bytes = %d, want %d", got, want)
	}
	if out.ReexecSteps == 0 {
		t.Error("verification must have re-executed steps")
	}
}

func TestVerifyHonestWorkerV2(t *testing.T) {
	worker, result, p, verifier, ds := buildHonestSetup(t, SchemeV2)
	out, err := verifier.VerifySubmission(worker, ds, result, p)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Accepted {
		t.Fatalf("honest worker rejected under v2: %s", out.FailReason)
	}
	// v2 transfers roughly half of v1: input weights + digest per sample
	// (double-checks add occasional raw transfers).
	weightsSize := int64(tensor.EncodedSize(len(p.Global)))
	maxNoDoubleCheck := int64(len(out.SampledCheckpoints)) * (weightsSize + 1024)
	if out.DoubleChecks == 0 && out.CommBytes > maxNoDoubleCheck {
		t.Errorf("CommBytes = %d exceeds v2 budget %d", out.CommBytes, maxNoDoubleCheck)
	}
}

func TestVerifyBaselineAcceptsAnything(t *testing.T) {
	verifier := &Verifier{Scheme: SchemeBaseline}
	out, err := verifier.VerifySubmission(nil, nil, &EpochResult{WorkerID: "x"}, TaskParams{})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Accepted {
		t.Error("baseline must accept without verification")
	}
	if out.CommBytes != 0 || out.ReexecSteps != 0 {
		t.Error("baseline must not incur verification costs")
	}
}

// forgingOpener wraps a worker but substitutes forged weights for one
// checkpoint.
type forgingOpener struct {
	inner  ProofOpener
	target int
	forged tensor.Vector
	served int // forged answers handed out
}

func (f *forgingOpener) OpenCheckpoint(idx int) (tensor.Vector, error) {
	if idx == f.target {
		f.served++
		return f.forged, nil
	}
	return f.inner.OpenCheckpoint(idx)
}

func (f *forgingOpener) OpenProof(idx int) (LeafProof, error) {
	return f.inner.OpenProof(idx)
}

// TestVerifyRejectsForgedOpening forges, in turn, the opener's answer for
// every leaf. All three intervals are sampled, so an interior forgery is
// always requested and always rejected; the bound leaves are never requested,
// so forging the opener there changes nothing.
func TestVerifyRejectsForgedOpening(t *testing.T) {
	worker, result, p, verifier, ds := buildHonestSetup(t, SchemeV1)
	forged := tensor.NewRNG(1).NormalVector(len(p.Global), 0, 1)
	last := result.NumCheckpoints - 1
	for target := 0; target <= last; target++ {
		opener := &forgingOpener{inner: worker, target: target, forged: forged}
		out, err := verifier.VerifySubmission(opener, ds, result, p)
		if err != nil {
			t.Fatal(err)
		}
		if bound := target == 0 || target == last; bound {
			if opener.served != 0 {
				t.Errorf("bound leaf %d was requested %d times", target, opener.served)
			}
			if !out.Accepted {
				t.Errorf("honest submission rejected (%s) over a leaf the verifier never asks for", out.FailReason)
			}
		} else if out.Accepted || opener.served != 1 {
			t.Errorf("forged checkpoint %d: accepted=%v after %d forged answers", target, out.Accepted, opener.served)
		}
	}
}

// TestVerifyMerkleRejectsForgedOpening forges the committed root itself at
// the two bound leaves: rejected at binding, before any checkpoint is
// pulled, with nothing tallied beyond the root and the proofs that verified.
func TestVerifyMerkleRejectsForgedOpening(t *testing.T) {
	worker, result, p, verifier, ds := buildHonestSetup(t, SchemeV1)
	last := result.NumCheckpoints - 1
	for _, target := range []int{0, last} {
		opener, bad := tamperedSubmission(t, worker, result, p, nil, target)
		counting := &countingOpener{inner: opener}
		out, err := verifier.VerifySubmission(counting, ds, bad, p)
		if err != nil {
			t.Fatal(err)
		}
		if out.Accepted {
			t.Errorf("commitment forged at bound leaf %d accepted", target)
		}
		if n := counting.total(counting.opens); n != 0 {
			t.Errorf("commitment forged at leaf %d: %d checkpoints opened before the binding rejected", target, n)
		}
		// Nothing beyond the commitment that arrived with the submission —
		// and, when the origin binding passed first, its one valid proof.
		base := int64(commitment.HashSize)
		if target == last {
			lp, err := opener.OpenProof(0)
			if err != nil {
				t.Fatal(err)
			}
			base += int64(lp.Size())
		}
		if out.CommBytes != base || out.CommitBytes != base {
			t.Errorf("commitment forged at leaf %d: tallied (%d, %d) bytes, want %d: the rejected proof must not count",
				target, out.CommBytes, out.CommitBytes, base)
		}
	}
}

func TestVerifyRejectsLazyTrace(t *testing.T) {
	// A worker that commits random weights (no training) must be rejected:
	// re-execution from its "checkpoints" lands far from the committed next
	// checkpoint.
	_, _, p, verifier, ds := buildHonestSetup(t, SchemeV1)
	rng := tensor.NewRNG(3)
	n := p.NumCheckpoints()
	fake := &Trace{}
	for i := 0; i < n; i++ {
		fake.Checkpoints = append(fake.Checkpoints, rng.NormalVector(len(p.Global), 0, 1))
		fake.Steps = append(fake.Steps, i*p.CheckpointEvery)
	}
	result := lazySubmission(t, fake, nil, ds)
	out, err := verifier.VerifySubmission(&traceOpener{trace: fake}, ds, result, p)
	if err != nil {
		t.Fatal(err)
	}
	if out.Accepted {
		t.Error("random-weights trace accepted under v1")
	}
}

// lazySubmission commits a fabricated trace the way a worker would and
// returns its submission.
func lazySubmission(t *testing.T, fake *Trace, fam *lsh.Family, ds *dataset.Dataset) *EpochResult {
	t.Helper()
	ec, err := CommitTrace(nil, fake.Checkpoints, fam)
	if err != nil {
		t.Fatal(err)
	}
	update, err := fake.update()
	if err != nil {
		t.Fatal(err)
	}
	result := &EpochResult{
		WorkerID: "lazy", Update: update, DataSize: ds.Len(), NumCheckpoints: len(fake.Checkpoints),
	}
	ec.Apply(result)
	return result
}

// traceOpener serves checkpoints straight from a trace. Merkle proof pulls
// rebuild the commitment over the trace on demand (fam mirrors what the
// trace was committed under).
type traceOpener struct {
	trace *Trace
	fam   *lsh.Family
}

func (o *traceOpener) OpenCheckpoint(idx int) (tensor.Vector, error) {
	if idx < 0 || idx >= len(o.trace.Checkpoints) {
		return nil, tensor.ErrShapeMismatch
	}
	return o.trace.Checkpoints[idx], nil
}

func (o *traceOpener) OpenProof(idx int) (LeafProof, error) {
	ec, err := CommitTrace(nil, o.trace.Checkpoints, o.fam)
	if err != nil {
		return LeafProof{}, err
	}
	return ec.OpenProof(idx)
}

// commitWhole commits a finished trace whole, once, by CommitTrace — the
// commitment serves its own openings — and requires the root result carries:
// the batch and the streamed construction of one trace must agree.
func commitWhole(t *testing.T, trace *Trace, fam *lsh.Family, result *EpochResult) *EpochCommitment {
	t.Helper()
	ec, err := CommitTrace(nil, trace.Checkpoints, fam)
	if err != nil {
		t.Fatal(err)
	}
	if ec.Root != result.MerkleRoot {
		t.Fatalf("whole-trace root %x, submitted root %x", ec.Root, result.MerkleRoot)
	}
	return ec
}

func TestVerifyRejectsLazyTraceV2(t *testing.T) {
	_, _, p, verifier, ds := buildHonestSetup(t, SchemeV2)
	rng := tensor.NewRNG(4)
	n := p.NumCheckpoints()
	fake := &Trace{}
	for i := 0; i < n; i++ {
		fake.Checkpoints = append(fake.Checkpoints, rng.NormalVector(len(p.Global), 0, 1))
		fake.Steps = append(fake.Steps, i*p.CheckpointEvery)
	}
	result := lazySubmission(t, fake, verifier.LSH, ds)
	out, err := verifier.VerifySubmission(&traceOpener{trace: fake, fam: verifier.LSH}, ds, result, p)
	if err != nil {
		t.Fatal(err)
	}
	if out.Accepted {
		t.Error("random-weights trace accepted under v2")
	}
}

// TestVerifyMissingCommitment: a submission whose root was never set (all
// zero) authenticates no leaf.
func TestVerifyMissingCommitment(t *testing.T) {
	worker, result, p, verifier, ds := buildHonestSetup(t, SchemeV1)
	bad := *result
	bad.MerkleRoot = commitment.Hash{}
	out, err := verifier.VerifySubmission(worker, ds, &bad, p)
	if err != nil {
		t.Fatal(err)
	}
	if out.Accepted {
		t.Error("submission without commitment accepted")
	}
}

// TestVerifyDigestCountMismatch: a v2 root over fewer digests than the
// declared checkpoint count authenticates none of the digests its proofs
// carry.
func TestVerifyDigestCountMismatch(t *testing.T) {
	worker, result, p, verifier, ds := buildHonestSetup(t, SchemeV2)
	short := &traceOpener{trace: &Trace{Checkpoints: worker.LastTrace().Checkpoints[:1]}, fam: verifier.LSH}
	ec, err := CommitTrace(nil, short.trace.Checkpoints, verifier.LSH)
	if err != nil {
		t.Fatal(err)
	}
	bad := *result
	ec.Apply(&bad)
	out, err := verifier.VerifySubmission(short, ds, &bad, p)
	if err != nil {
		t.Fatal(err)
	}
	if out.Accepted {
		t.Error("submission with truncated digests accepted")
	}
}

func TestVerifierConfigErrors(t *testing.T) {
	worker, result, p, _, ds := buildHonestSetup(t, SchemeV1)
	v := &Verifier{Scheme: SchemeV1}
	if _, err := v.VerifySubmission(worker, ds, result, p); err == nil {
		t.Error("want error for verifier without network")
	}
	netV, _ := testTask(t, 10)
	v = &Verifier{Scheme: SchemeV1, Net: netV}
	if _, err := v.VerifySubmission(worker, ds, result, p); err == nil {
		t.Error("want error for verifier without sampler")
	}
	v = &Verifier{Scheme: SchemeV2, Net: netV, Sampler: tensor.NewRNG(1)}
	if _, err := v.VerifySubmission(worker, ds, result, p); err == nil {
		t.Error("want error for v2 verifier without LSH family")
	}
}

func TestSampleIntervalsDistinct(t *testing.T) {
	v := &Verifier{Samples: 3, Sampler: tensor.NewRNG(5)}
	for trial := 0; trial < 50; trial++ {
		got := v.sampleIntervals(10)
		if len(got) != 3 {
			t.Fatalf("sampled %d", len(got))
		}
		seen := map[int]bool{}
		for _, c := range got {
			if c < 0 || c >= 9 {
				t.Fatalf("sample %d out of range", c)
			}
			if seen[c] {
				t.Fatal("duplicate sample")
			}
			seen[c] = true
		}
	}
	// Request more samples than intervals: all intervals returned.
	all := v.sampleIntervals(3)
	if len(all) != 2 {
		t.Errorf("expected all 2 intervals, got %v", all)
	}
	if got := v.sampleIntervals(1); got != nil {
		t.Errorf("no intervals: got %v", got)
	}
}

// TestVerifyOpeningV1V2 holds the leaf store's opening rule against a
// one-leaf root: under v1 the opened weights must be the committed leaf
// encoding, under v2 their LSH digest must equal the committed digest.
func TestVerifyOpeningV1V2(t *testing.T) {
	w := tensor.Vector{1, 2, 3}
	fam, err := lsh.NewFamily(3, lsh.Params{R: 1, K: 2, L: 2}, 9)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		fam    *lsh.Family
		forged tensor.Vector
	}{
		{nil, tensor.Vector{9, 9, 9}},
		{fam, tensor.Vector{100, 100, 100}},
	} {
		opener := &traceOpener{trace: &Trace{Checkpoints: []tensor.Vector{w}}, fam: tc.fam}
		ec, err := CommitTrace(nil, opener.trace.Checkpoints, tc.fam)
		if err != nil {
			t.Fatal(err)
		}
		res := &EpochResult{NumCheckpoints: 1}
		ec.Apply(res)
		for _, open := range []struct {
			weights tensor.Vector
			genuine bool
		}{{w, true}, {tc.forged, false}} {
			var s leafStore
			s.reset(opener, res, tc.fam, 1, &VerifyOutcome{})
			if err := s.admit(0, open.weights); (err == nil) != open.genuine {
				t.Errorf("lsh=%t genuine=%t: admit err = %v", tc.fam != nil, open.genuine, err)
			}
		}
	}
	var s leafStore
	s.reset(&traceOpener{trace: &Trace{Checkpoints: []tensor.Vector{w}}}, &EpochResult{NumCheckpoints: 1}, nil, 1, &VerifyOutcome{})
	if err := s.admit(0, w); err == nil {
		t.Error("opening against a zero root accepted")
	}
}

func TestHonestWorkerBasics(t *testing.T) {
	net, ds := testTask(t, 11)
	if _, err := NewHonestWorker("w", gpu.Profile{Name: "bad"}, 1, net, ds); err == nil {
		t.Error("want error for bad profile")
	}
	if _, err := NewHonestWorker("w", gpu.GA10, 1, net, &dataset.Dataset{}); err == nil {
		t.Error("want error for empty shard")
	}
	w, err := NewHonestWorker("w", gpu.GA10, 1, net, ds)
	if err != nil {
		t.Fatal(err)
	}
	if w.ID() != "w" || w.GPUProfile().Name != "GA10" || w.trainer.Shard.Len() != ds.Len() {
		t.Error("accessor mismatch")
	}
	if _, err := w.OpenCheckpoint(0); err == nil {
		t.Error("want error before first epoch")
	}
	p := testParams(net.ParamVector())
	res, err := w.RunEpoch(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumCheckpoints != p.NumCheckpoints() {
		t.Errorf("NumCheckpoints = %d", res.NumCheckpoints)
	}
	if _, err := w.OpenCheckpoint(res.NumCheckpoints); err == nil {
		t.Error("want error for out-of-range checkpoint")
	}
	if w.LastTrace() == nil {
		t.Error("trace must be retained")
	}
}

// TestHonestAlwaysPassesRandomized is a randomized property check of the
// paper's 0-false-negative goal: across many independent (worker hardware,
// verifier hardware, sampler) draws, a calibrated verifier never rejects an
// honest submission.
func TestHonestAlwaysPassesRandomized(t *testing.T) {
	netC, ds := testTask(t, 10)
	p := testParams(netC.ParamVector())
	cal := &Calibrator{Net: netC, Shard: ds, XFactor: 5, KLsh: 16}
	calOut, fam, err := cal.Calibrate(p, gpu.G3090, gpu.GA10, [2]int64{201, 202}, 203)
	if err != nil {
		t.Fatal(err)
	}
	p.LSH = fam
	profiles := gpu.Profiles()
	for trial := 0; trial < 12; trial++ {
		netW, _ := testTask(t, 10)
		worker, err := NewHonestWorker("w", profiles[trial%len(profiles)], int64(300+trial), netW, ds)
		if err != nil {
			t.Fatal(err)
		}
		result, err := worker.RunEpoch(p)
		if err != nil {
			t.Fatal(err)
		}
		netV, _ := testTask(t, 10)
		device, err := gpu.NewDevice(gpu.G3090, int64(400+trial))
		if err != nil {
			t.Fatal(err)
		}
		verifier := &Verifier{
			Scheme: SchemeV2, Net: netV, Device: device,
			Beta: calOut.Beta, LSH: fam, Samples: 3,
			Sampler: tensor.NewRNG(int64(500 + trial)),
		}
		out, err := verifier.VerifySubmission(worker, ds, result, p)
		if err != nil {
			t.Fatal(err)
		}
		if !out.Accepted {
			t.Fatalf("trial %d (%s): honest worker rejected: %s",
				trial, worker.GPUProfile().Name, out.FailReason)
		}
	}
}

func TestVerifyRejectsWrongLengthUpdate(t *testing.T) {
	worker, result, p, verifier, ds := buildHonestSetup(t, SchemeV1)
	bad := *result
	bad.Update = tensor.NewVector(3) // wrong dimensionality
	out, err := verifier.VerifySubmission(worker, ds, &bad, p)
	if err != nil {
		t.Fatal(err)
	}
	if out.Accepted {
		t.Error("wrong-length update accepted")
	}
}

func TestBindFinalCheckpoint(t *testing.T) {
	global := tensor.Vector{1, 2, 3}
	tr := &Trace{
		Checkpoints: []tensor.Vector{global.Clone(), {1.5, 2.5, 3.5}},
		Steps:       []int{0, 5},
	}
	update, err := BindFinalCheckpoint(tr, global, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The rewritten final checkpoint must equal global+update bit-exactly.
	reconstructed, err := global.Add(update)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Final().Equal(reconstructed, 0) {
		t.Error("binding not bit-exact")
	}
	// And stay within an ulp of the true final weights.
	if !tr.Final().Equal(tensor.Vector{1.5, 2.5, 3.5}, 1e-12) {
		t.Error("binding perturbed the final weights materially")
	}
	short := &Trace{Checkpoints: []tensor.Vector{global}}
	if _, err := BindFinalCheckpoint(short, global, nil); err == nil {
		t.Error("single-checkpoint trace accepted")
	}
	if _, err := BindFinalCheckpoint(tr, tensor.Vector{1}, nil); err == nil {
		t.Error("mismatched global accepted")
	}
}
