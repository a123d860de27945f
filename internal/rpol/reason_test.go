package rpol

import (
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"rpol/internal/commitment"
	"rpol/internal/dataset"
	"rpol/internal/tensor"
)

// nonFiniteTrace commits a trace that trains nothing: θ_t, then NaN leaves.
// With nanUpdate the update is NaN too, and so is the last leaf θ_t + L;
// without, the last leaf is θ_t + L for a finite L of the worker's choosing.
func nonFiniteTrace(t *testing.T, s *storeSetup, nanUpdate bool) (*traceOpener, *EpochResult) {
	t.Helper()
	nan := tensor.NewVector(len(s.p.Global))
	for i := range nan {
		nan[i] = math.NaN()
	}
	update := tensor.NewRNG(9).NormalVector(len(nan), 0, 0.1)
	if nanUpdate {
		update = nan
	}
	final, err := s.p.Global.Add(update)
	if err != nil {
		t.Fatal(err)
	}
	n := s.p.NumCheckpoints()
	trace := &Trace{Checkpoints: []tensor.Vector{s.p.Global.Clone()}, Steps: []int{0}}
	for c := 1; c < n; c++ {
		leaf := nan
		if c == n-1 {
			leaf = final
		}
		trace.Checkpoints = append(trace.Checkpoints, leaf)
		trace.Steps = append(trace.Steps, min(c*s.p.CheckpointEvery, s.p.Steps))
	}
	ec, err := CommitTrace(nil, trace.Checkpoints, s.fam)
	if err != nil {
		t.Fatal(err)
	}
	result := &EpochResult{WorkerID: "nan", Update: update, DataSize: s.ds.Len(), NumCheckpoints: n}
	ec.Apply(result)
	return &traceOpener{trace: trace, fam: s.fam}, result
}

// TestVerifierRejectsNonFiniteTrace: no distance to a NaN is below β, so a
// trace holding one must never pass. Two traces that train nothing — NaN
// interior leaves between θ_t and a θ_t + L of the worker's choosing, and NaN
// from leaf 1 on with a NaN update — are rejected with ErrNonFinite under v1
// and v2, at n = 8 intervals and q = 3, for 40 sampler seeds each. Before
// leaves were checked for finiteness both were accepted: a NaN distance
// compared false against β, and a NaN→NaN interval matched its digest.
func TestVerifierRejectsNonFiniteTrace(t *testing.T) {
	for _, scheme := range []Scheme{SchemeV1, SchemeV2} {
		s := newStoreSetup(t, scheme, true, 8)
		for _, nanUpdate := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/nanUpdate=%v", scheme, nanUpdate), func(t *testing.T) {
				opener, result := nonFiniteTrace(t, s, nanUpdate)
				for seed := int64(0); seed < 40; seed++ {
					out, err := s.verifier(t, scheme, 0, seed).VerifySubmission(opener, s.ds, result, s.p)
					if err != nil {
						t.Fatal(err)
					}
					if out.Accepted || !errors.Is(out.FailReason, ErrNonFinite) {
						t.Fatalf("seed %d sampled %v: accepted=%v (%v), want rejected for a non-finite leaf",
							seed, out.SampledCheckpoints, out.Accepted, out.FailReason)
					}
				}
			})
		}
	}
}

// TestVerifierRejectsNonFiniteReplay: a finite leaf can still replay to a
// non-finite output — leaf 4 of 1e300s overflows the first step of interval
// 4. Under v1 and v2, a seed whose first sample touching leaf 4 is interval 4
// rejects for the replay (ErrNonFinite), one whose first is interval 3 for the
// distance to leaf 4 (ErrDistance), and one sampling neither accepts.
func TestVerifierRejectsNonFiniteReplay(t *testing.T) {
	for _, scheme := range []Scheme{SchemeV1, SchemeV2} {
		s := newStoreSetup(t, scheme, true, 8)
		trace := &Trace{Checkpoints: slices.Clone(s.worker.LastTrace().Checkpoints), Steps: s.worker.LastTrace().Steps}
		trace.Checkpoints[4] = tensor.NewVector(len(s.p.Global))
		trace.Checkpoints[4].Fill(1e300)
		ec, err := CommitTrace(nil, trace.Checkpoints, s.fam)
		if err != nil {
			t.Fatal(err)
		}
		result := *s.result
		ec.Apply(&result)
		opener := &traceOpener{trace: trace, fam: s.fam}
		byReplay := 0
		for seed := int64(0); seed < 40; seed++ {
			out, err := s.verifier(t, scheme, 0, seed).VerifySubmission(opener, s.ds, &result, s.p)
			if err != nil {
				t.Fatal(err)
			}
			var want error
			if i := slices.IndexFunc(out.SampledCheckpoints, func(c int) bool { return c == 3 || c == 4 }); i >= 0 {
				want = ErrDistance
				if out.SampledCheckpoints[i] == 4 {
					want, byReplay = ErrNonFinite, byReplay+1
				}
			}
			if out.Accepted != (want == nil) || !errors.Is(out.FailReason, want) {
				t.Errorf("%s seed %d sampled %v: accepted=%v (%v), want %v", scheme, seed, out.SampledCheckpoints, out.Accepted, out.FailReason, want)
			}
		}
		if byReplay == 0 {
			t.Errorf("%s: no seed sampled the overflowing interval first", scheme)
		}
	}
}

// TestVerifierRejectsInflatedDataSize: a submission's Eq. (1) weight is its
// |D_w|, and the manager knows each shard it handed out. An honest submission
// that claims 1000 times its shard is rejected with ErrDataSize under v1 and
// v2 before anything is pulled; before the claim was checked it was accepted,
// and among ten workers it would have carried weight ≈ 0.99.
func TestVerifierRejectsInflatedDataSize(t *testing.T) {
	for _, scheme := range []Scheme{SchemeV1, SchemeV2} {
		worker, result, p, verifier, ds := buildHonestSetup(t, scheme)
		inflated := *result
		inflated.DataSize = 1000 * ds.Len()
		o := &countingOpener{inner: worker}
		out, err := verifier.VerifySubmission(o, ds, &inflated, p)
		if err != nil {
			t.Fatal(err)
		}
		if out.Accepted || !errors.Is(out.FailReason, ErrDataSize) {
			t.Errorf("%s: accepted=%v (%v), want rejected for its claimed data size", scheme, out.Accepted, out.FailReason)
		}
		if o.total(o.opens)+o.total(o.proofs) != 0 || out.CommBytes != 0 {
			t.Errorf("%s: %d requests and %d bytes before the claim was rejected, want none",
				scheme, o.total(o.opens)+o.total(o.proofs), out.CommBytes)
		}
		if out, err := verifier.VerifySubmission(worker, ds, result, p); err != nil || !out.Accepted {
			t.Errorf("%s: the truthful claim: accepted=%v (%v, %v)", scheme, out.Accepted, out.FailReason, err)
		}
	}
}

// faultyOpener answers every pull of leaf at with err.
type faultyOpener struct {
	inner ProofOpener
	at    int
	err   error
}

func (o *faultyOpener) OpenCheckpoint(idx int) (tensor.Vector, error) {
	if idx == o.at {
		return nil, o.err
	}
	return o.inner.OpenCheckpoint(idx)
}

func (o *faultyOpener) OpenProof(idx int) (LeafProof, error) {
	if idx == o.at {
		return LeafProof{}, o.err
	}
	return o.inner.OpenProof(idx)
}

// digestlessOpener drops the v2 digest from every proof.
type digestlessOpener struct{ ProofOpener }

func (o digestlessOpener) OpenProof(idx int) (LeafProof, error) {
	lp, err := o.ProofOpener.OpenProof(idx)
	lp.Digest = nil
	return lp, err
}

// docReasons reads PROTOCOL §4's "Why a submission is rejected" table: each
// row's reason name and whether the row makes the worker absent.
func docReasons(t *testing.T) map[string]bool {
	t.Helper()
	data, err := os.ReadFile("../../PROTOCOL.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(data)
	start := strings.Index(doc, "**Why a submission is rejected.**")
	if start < 0 {
		t.Fatal("PROTOCOL.md: no \"Why a submission is rejected\" paragraph")
	}
	name := regexp.MustCompile("^\\| `([A-Za-z.]+)`")
	rows := map[string]bool{}
	for _, line := range strings.Split(doc[start:], "\n") {
		if !strings.HasPrefix(line, "|") {
			if len(rows) > 0 {
				break // the table ended
			}
			continue
		}
		if m := name.FindStringSubmatch(line); m != nil {
			rows[m[1]] = strings.Contains(line, "**absent**")
		}
	}
	return rows
}

// declaredReasons lists the names verify.go declares in its "Rejection
// reasons" block.
func declaredReasons(t *testing.T) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "verify.go", nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, decl := range f.Decls {
		gen, ok := decl.(*ast.GenDecl)
		if !ok || gen.Doc == nil || !strings.HasPrefix(gen.Doc.Text(), "Rejection reasons.") {
			continue
		}
		for _, spec := range gen.Specs {
			for _, id := range spec.(*ast.ValueSpec).Names {
				names = append(names, id.Name)
			}
		}
	}
	if len(names) == 0 {
		t.Fatal("verify.go declares no \"Rejection reasons\" block")
	}
	return names
}

// TestProtocolDocReasonTable holds PROTOCOL §4's "Why a submission is
// rejected" table to the verifier: every reason verify.go declares has a row,
// every row names a reason, and for every row a seeded v1 or v2 submission
// ends the way the row says — rejected wrapping the row's reason, or, for an
// opening lost on every attempt, absent.
func TestProtocolDocReasonTable(t *testing.T) {
	rows := docReasons(t)
	sentinels := map[string]error{
		"ErrLeafCount": ErrLeafCount, "ErrDataSize": ErrDataSize, "ErrWrongStart": ErrWrongStart,
		"ErrUpdateSize": ErrUpdateSize, "ErrWrongFinal": ErrWrongFinal, "ErrNotOpened": ErrNotOpened,
		"ErrProofIndex": ErrProofIndex, "ErrNoDigest": ErrNoDigest, "ErrNonFinite": ErrNonFinite,
		"ErrLSHMismatch": ErrLSHMismatch, "ErrDistance": ErrDistance,
		"commitment.ErrMismatch": commitment.ErrMismatch, "ErrWorkerUnavailable": ErrWorkerUnavailable,
	}
	for _, name := range declaredReasons(t) {
		if _, ok := rows[name]; !ok {
			t.Errorf("PROTOCOL.md: reason %s has no row", name)
		}
		if _, ok := sentinels[name]; !ok {
			t.Errorf("reason %s is declared but not exercised here", name)
		}
	}

	// fixture is one honest v1 or v2 submission and its verifier.
	type fixture struct {
		w  *HonestWorker
		r  *EpochResult
		p  TaskParams
		v  *Verifier
		ds *dataset.Dataset
	}
	type submission struct {
		reason string
		scheme Scheme
		noDC   bool
		build  func(f fixture) (ProofOpener, *EpochResult)
	}
	edit := func(change func(*EpochResult)) func(fixture) (ProofOpener, *EpochResult) {
		return func(f fixture) (ProofOpener, *EpochResult) {
			bad := *f.r
			change(&bad)
			return f.w, &bad
		}
	}
	tampered := func(at int) func(fixture) (ProofOpener, *EpochResult) {
		return func(f fixture) (ProofOpener, *EpochResult) { return tamperedSubmission(t, f.w, f.r, f.p, f.v.LSH, at) }
	}
	faulty := func(err error) func(fixture) (ProofOpener, *EpochResult) {
		return func(f fixture) (ProofOpener, *EpochResult) { return &faultyOpener{inner: f.w, at: 1, err: err}, f.r }
	}
	nonFinite := func(f fixture) (ProofOpener, *EpochResult) {
		return nonFiniteTrace(t, &storeSetup{p: f.p, ds: f.ds, fam: f.v.LSH}, false)
	}
	subs := []submission{
		{"ErrLeafCount", SchemeV1, false, edit(func(r *EpochResult) { r.NumCheckpoints++ })},
		{"ErrDataSize", SchemeV2, false, edit(func(r *EpochResult) { r.DataSize *= 1000 })},
		{"ErrWrongStart", SchemeV1, false, tampered(0)},
		{"ErrUpdateSize", SchemeV2, false, edit(func(r *EpochResult) { r.Update = tensor.NewVector(3) })},
		{"ErrWrongFinal", SchemeV2, false, edit(func(r *EpochResult) {
			r.Update = r.Update.Clone()
			r.Update.Scale(10)
		})},
		{"ErrNotOpened", SchemeV1, false, faulty(errors.New("test: refused"))},
		{"ErrProofIndex", SchemeV1, false, func(f fixture) (ProofOpener, *EpochResult) { return &wrongLeafOpener{inner: f.w}, f.r }},
		{"ErrNoDigest", SchemeV2, false, func(f fixture) (ProofOpener, *EpochResult) { return digestlessOpener{f.w}, f.r }},
		{"commitment.ErrMismatch", SchemeV1, false, func(f fixture) (ProofOpener, *EpochResult) {
			return &forgingOpener{inner: f.w, target: 1, forged: tensor.NewRNG(1).NormalVector(len(f.p.Global), 0, 1)}, f.r
		}},
		{"ErrNonFinite", SchemeV1, false, nonFinite},
		{"ErrNonFinite", SchemeV2, false, nonFinite},
		{"ErrLSHMismatch", SchemeV2, true, tampered(1)},
		{"ErrDistance", SchemeV1, false, tampered(1)},
		{"ErrDistance", SchemeV2, false, tampered(1)},
		{"ErrWorkerUnavailable", SchemeV2, false, faulty(fmt.Errorf("test: lost on every attempt: %w", ErrWorkerUnavailable))},
	}
	covered := map[string]bool{}
	for _, scheme := range []Scheme{SchemeV1, SchemeV2} {
		w, r, p, v, ds := buildHonestSetup(t, scheme)
		for _, sub := range subs {
			if sub.scheme != scheme {
				continue
			}
			v.DisableDoubleCheck = sub.noDC
			o, bad := sub.build(fixture{w, r, p, v, ds})
			out, err := v.VerifySubmission(o, ds, bad, p)
			if err != nil {
				t.Fatal(err)
			}
			wantAbsent, ok := rows[sub.reason]
			if !ok {
				t.Errorf("PROTOCOL.md: no row for %s", sub.reason)
			}
			want := OutcomeRejected
			if wantAbsent {
				want = OutcomeAbsent
			}
			if out.Outcome != want || !errors.Is(out.FailReason, sentinels[sub.reason]) {
				t.Errorf("%s submission under %s: %v (%v), want %v wrapping it", sub.reason, scheme, out.Outcome, out.FailReason, want)
				continue
			}
			covered[sub.reason] = true
		}
	}
	for name := range rows {
		if _, ok := sentinels[name]; !ok {
			t.Errorf("PROTOCOL.md: row %s names no reason", name)
		}
		if !covered[name] {
			t.Errorf("PROTOCOL.md: no seeded submission ended as row %s says", name)
		}
	}
}
