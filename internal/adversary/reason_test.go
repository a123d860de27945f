package adversary

import (
	"errors"
	"runtime"
	"testing"

	"rpol/internal/commitment"
	"rpol/internal/dataset"
	"rpol/internal/gpu"
	"rpol/internal/nn"
	"rpol/internal/rpol"
	"rpol/internal/tensor"
)

// TestAdversaryRejectionReasons runs the adversary table through the
// calibrated verifier under v1, v2 and v2 without the double-check. Each
// adversary is rejected with the sentinel of the rule it breaks, and its
// reason reads byte for byte as it did when reasons were strings: journaled
// verdicts, event details and every comparison hash over them stay put.
func TestAdversaryRejectionReasons(t *testing.T) {
	type build func(t *testing.T, net *nn.Network, ds *dataset.Dataset, p rpol.TaskParams) rpol.Worker
	fatal := func(t *testing.T, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	advs := []struct {
		name  string
		build build
	}{
		{"adv1", func(t *testing.T, _ *nn.Network, ds *dataset.Dataset, _ rpol.TaskParams) rpol.Worker {
			return NewAdv1("adv1", gpu.GT4, ds.Len())
		}},
		{"adv2", func(t *testing.T, net *nn.Network, ds *dataset.Dataset, _ rpol.TaskParams) rpol.Worker {
			a, err := NewAdv2("adv2", gpu.GA10, 61, net, ds, 0.1, 0.5)
			fatal(t, err)
			return a
		}},
		{"fabricator", func(t *testing.T, _ *nn.Network, ds *dataset.Dataset, _ rpol.TaskParams) rpol.Worker {
			return newFabricator("fab", gpu.GT4, 62, 0.5, ds.Len())
		}},
		{"wronginit", func(t *testing.T, net *nn.Network, ds *dataset.Dataset, p rpol.TaskParams) rpol.Worker {
			a, err := NewWrongInit("wronginit", gpu.GA10, 71, net, ds, tensor.NewRNG(77).NormalVector(len(p.Global), 0, 0.5))
			fatal(t, err)
			return a
		}},
		{"scaler", func(t *testing.T, net *nn.Network, ds *dataset.Dataset, _ rpol.TaskParams) rpol.Worker {
			a, err := newUpdateScaler("scaler", gpu.GA10, 81, net, ds, 10)
			fatal(t, err)
			return a
		}},
		{"rebaser", func(t *testing.T, net *nn.Network, ds *dataset.Dataset, _ rpol.TaskParams) rpol.Worker {
			a, err := newRebaser("rebaser", gpu.GA10, 72, net, ds, 3)
			fatal(t, err)
			return a
		}},
		{"truncator", func(t *testing.T, net *nn.Network, ds *dataset.Dataset, _ rpol.TaskParams) rpol.Worker {
			a, err := newTruncator("lazy", gpu.GT4, 71, net, ds, 1)
			fatal(t, err)
			return a
		}},
	}
	// want holds, per verifier and adversary, the sentinel and the reason
	// text the string-valued verifier produced for the same run.
	type verdict struct {
		reason error
		text   string
	}
	const (
		wrongStart = "trace does not start from the distributed global model: leaf 0: commitment: payload does not match commitment"
		wrongFinal = "submitted update does not reach the committed final checkpoint: leaf 3: commitment: payload does not match commitment"
		leafCount  = "rpol: committed checkpoint count is not the task's: submission commits 2, the task has 4"
	)
	want := map[string]verdict{
		"RPoLv1/adv1":       {rpol.ErrDistance, "checkpoint 0: distance 0.794928 ≥ β 0.00424472"},
		"RPoLv1/adv2":       {rpol.ErrDistance, "checkpoint 1: distance 0.564472 ≥ β 0.00424472"},
		"RPoLv1/fabricator": {rpol.ErrDistance, "checkpoint 0: distance 8.10091 ≥ β 0.00424472"},
		"RPoLv1/wronginit":  {rpol.ErrWrongStart, wrongStart},
		"RPoLv1/scaler":     {rpol.ErrWrongFinal, wrongFinal},
		"RPoLv1/rebaser":    {rpol.ErrWrongStart, wrongStart},
		"RPoLv1/truncator":  {rpol.ErrLeafCount, leafCount},

		"RPoLv2/adv1":       {rpol.ErrDistance, "checkpoint 0: double-check distance 0.794928 ≥ β 0.00424472"},
		"RPoLv2/adv2":       {rpol.ErrDistance, "checkpoint 1: double-check distance 0.564472 ≥ β 0.00424472"},
		"RPoLv2/fabricator": {rpol.ErrDistance, "checkpoint 0: double-check distance 8.10091 ≥ β 0.00424472"},
		"RPoLv2/wronginit":  {rpol.ErrWrongStart, wrongStart},
		"RPoLv2/scaler":     {rpol.ErrWrongFinal, wrongFinal},
		"RPoLv2/rebaser":    {rpol.ErrWrongStart, wrongStart},
		"RPoLv2/truncator":  {rpol.ErrLeafCount, leafCount},

		"RPoLv2-nodc/adv1":       {rpol.ErrLSHMismatch, "checkpoint 0: LSH mismatch (double-check disabled)"},
		"RPoLv2-nodc/adv2":       {rpol.ErrLSHMismatch, "checkpoint 1: LSH mismatch (double-check disabled)"},
		"RPoLv2-nodc/fabricator": {rpol.ErrLSHMismatch, "checkpoint 0: LSH mismatch (double-check disabled)"},
		"RPoLv2-nodc/wronginit":  {rpol.ErrWrongStart, wrongStart},
		"RPoLv2-nodc/scaler":     {rpol.ErrWrongFinal, wrongFinal},
		"RPoLv2-nodc/rebaser":    {rpol.ErrWrongStart, wrongStart},
		"RPoLv2-nodc/truncator":  {rpol.ErrLeafCount, leafCount},
	}
	for _, cfg := range []struct {
		name    string
		scheme  rpol.Scheme
		noCheck bool
	}{{"RPoLv1", rpol.SchemeV1, false}, {"RPoLv2", rpol.SchemeV2, false}, {"RPoLv2-nodc", rpol.SchemeV2, true}} {
		net, ds := advTask(t, 40)
		p := advParams(net.ParamVector())
		verifier := buildVerifier(t, cfg.scheme, &p)
		verifier.DisableDoubleCheck = cfg.noCheck
		for _, a := range advs {
			t.Run(cfg.name+"/"+a.name, func(t *testing.T) {
				advNet, _ := advTask(t, 40)
				worker := a.build(t, advNet, ds, p)
				task := p
				task.Global = p.Global.Clone() // the Rebaser writes its task
				res, err := worker.RunEpoch(task)
				fatal(t, err)
				out, err := verifier.VerifySubmission(worker, ds, res, p)
				fatal(t, err)
				if out.Accepted || out.Outcome != rpol.OutcomeRejected {
					t.Fatalf("outcome %v, want rejected", out.Outcome)
				}
				w, ok := want[cfg.name+"/"+a.name]
				if !ok {
					t.Fatalf("no reason pinned for %q", out.FailReason)
				}
				if !errors.Is(out.FailReason, w.reason) {
					t.Errorf("FailReason %q does not wrap %v", out.FailReason, w.reason)
				}
				// A failed binding also names the leaf store's reason.
				if binding := w.reason == rpol.ErrWrongStart || w.reason == rpol.ErrWrongFinal; binding != errors.Is(out.FailReason, commitment.ErrMismatch) {
					t.Errorf("FailReason %q: wraps commitment.ErrMismatch = %v, want %v", out.FailReason, !binding, binding)
				}
				if runtime.GOARCH != "amd64" {
					t.Skip("distances pinned on amd64 only: math.Exp and math.Log are assembly there and pure Go elsewhere")
				}
				if got := out.FailReason.Error(); got != w.text {
					t.Errorf("FailReason reads\n  %q\nwant\n  %q", got, w.text)
				}
			})
		}
	}
}
