package adversary

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"testing"

	"rpol/internal/commitment"
	"rpol/internal/dataset"
	"rpol/internal/gpu"
	"rpol/internal/lsh"
	"rpol/internal/nn"
	"rpol/internal/rpol"
	"rpol/internal/tensor"
)

func advTask(t *testing.T, netSeed int64) (*nn.Network, *dataset.Dataset) {
	t.Helper()
	ds, err := dataset.Generate(dataset.Config{
		Name: "adv-test", NumClasses: 4, Dim: 8, Size: 400, ClusterStd: 0.4, Seed: 88,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(netSeed)
	net, err := nn.NewNetwork(
		nn.NewDense(8, 16, rng),
		nn.NewReLU(16),
		nn.NewDense(16, 4, rng),
	)
	if err != nil {
		t.Fatal(err)
	}
	return net, ds
}

func advParams(global tensor.Vector) rpol.TaskParams {
	return rpol.TaskParams{
		Global:          global,
		Hyper:           rpol.Hyper{Optimizer: "sgdm", LR: 0.05, BatchSize: 8},
		Nonce:           4242,
		Steps:           15,
		CheckpointEvery: 5,
	}
}

func TestSpoofExtrapolates(t *testing.T) {
	// With a linear trajectory, Eq. (12) predicts the exact next point.
	history := []tensor.Vector{{0, 0}, {1, 2}, {2, 4}}
	next, err := Spoof(nil, nil, history, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !next.Equal(tensor.Vector{3, 6}, 1e-12) {
		t.Errorf("spoof = %v, want [3 6]", next)
	}
}

func TestSpoofLambdaWeighting(t *testing.T) {
	// λ = 0 uses only the most recent delta.
	history := []tensor.Vector{{0}, {10}, {11}}
	next, err := Spoof(nil, nil, history, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !next.Equal(tensor.Vector{12}, 1e-12) {
		t.Errorf("λ=0 spoof = %v, want [12]", next)
	}
	// λ = 1 averages both deltas: (1 + 10)/2 = 5.5.
	next, err = Spoof(nil, nil, history, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !next.Equal(tensor.Vector{16.5}, 1e-12) {
		t.Errorf("λ=1 spoof = %v, want [16.5]", next)
	}
}

// TestSpoofMatchesTwoCallForm pins the fused delta loop to the form it
// replaced — Sub into a temporary, then AXPY — bit for bit.
func TestSpoofMatchesTwoCallForm(t *testing.T) {
	rng := tensor.NewRNG(12)
	history := make([]tensor.Vector, 6)
	for i := range history {
		history[i] = rng.NormalVector(257, 0, 1)
	}
	for _, lambda := range []float64{0, 0.5, 1} {
		last := history[len(history)-1]
		want := last.Clone()
		momentum := tensor.NewVector(len(last))
		var weightSum float64
		for j := 0; j+1 < len(history); j++ {
			k := math.Pow(lambda, float64(j))
			if k == 0 {
				break
			}
			delta, err := history[len(history)-1-j].Sub(history[len(history)-2-j])
			if err != nil {
				t.Fatal(err)
			}
			if err := momentum.AXPY(k, delta); err != nil {
				t.Fatal(err)
			}
			weightSum += k
		}
		if err := want.AXPY(1/weightSum, momentum); err != nil {
			t.Fatal(err)
		}
		got, err := Spoof(nil, nil, history, lambda)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want, 0) {
			t.Errorf("λ=%v: fused spoof differs from Sub+AXPY", lambda)
		}
	}
	if _, err := Spoof(nil, nil, []tensor.Vector{{1, 2}, {3}, {4, 5}}, 0.5); !errors.Is(err, tensor.ErrShapeMismatch) {
		t.Errorf("ragged history: err = %v, want ErrShapeMismatch", err)
	}
}

func TestSpoofValidation(t *testing.T) {
	if _, err := Spoof(nil, nil, []tensor.Vector{{1}}, 0.5); err == nil {
		t.Error("want error for single checkpoint")
	}
	if _, err := Spoof(nil, nil, []tensor.Vector{{1}, {2}}, -0.1); err == nil {
		t.Error("want error for negative lambda")
	}
	if _, err := Spoof(nil, nil, []tensor.Vector{{1}, {2}}, 1.1); err == nil {
		t.Error("want error for lambda > 1")
	}
}

func TestAdv1SubmitsZeroUpdate(t *testing.T) {
	net, _ := advTask(t, 1)
	adv := NewAdv1("adv1", gpu.GT4, 100)
	p := advParams(net.ParamVector())
	res, err := adv.RunEpoch(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Update.Norm2() != 0 {
		t.Error("Adv1 must submit a zero update")
	}
	if res.DataSize != 100 {
		t.Errorf("claimed data size = %d", res.DataSize)
	}
	if res.NumCheckpoints != p.NumCheckpoints() {
		t.Errorf("checkpoints = %d", res.NumCheckpoints)
	}
	// Every committed checkpoint is the unchanged global model.
	for i := 0; i < res.NumCheckpoints; i++ {
		w, err := adv.OpenCheckpoint(i)
		if err != nil {
			t.Fatal(err)
		}
		if !w.Equal(p.Global, 0) {
			t.Errorf("checkpoint %d differs from global", i)
		}
	}
}

// openingCommitted checks that w is what the submission's root commits at
// leaf idx, by the verifier's rule — the leaf is w's encoding under v1 and
// its LSH digest encoding under v2, the digest riding with the proof —
// against the opener's own inclusion proof.
func openingCommitted(res *rpol.EpochResult, opener rpol.ProofOpener, fam *lsh.Family, idx int, w tensor.Vector) error {
	lp, err := opener.OpenProof(idx)
	if err != nil {
		return err
	}
	if lp.Proof.Index != idx {
		return fmt.Errorf("proof answers leaf %d, want %d", lp.Proof.Index, idx)
	}
	payload := w.Encode()
	if fam != nil {
		d, err := fam.Hash(w)
		if err != nil {
			return err
		}
		if payload = d.Encode(); !bytes.Equal(lp.Digest, payload) {
			return errors.New("riding digest is not the opened checkpoint's")
		}
	}
	return commitment.VerifyMerkle(res.MerkleRoot, res.NumCheckpoints, payload, lp.Proof)
}

func TestAdv1ConsistentWithCommitment(t *testing.T) {
	net, _ := advTask(t, 2)
	adv := NewAdv1("adv1", gpu.GT4, 10)
	p := advParams(net.ParamVector())
	res, err := adv.RunEpoch(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < res.NumCheckpoints; i++ {
		w, err := adv.OpenCheckpoint(i)
		if err != nil {
			t.Fatal(err)
		}
		if err := openingCommitted(res, adv, nil, i, w); err != nil {
			t.Errorf("Adv1 opening %d inconsistent with its own commitment: %v", i, err)
		}
	}
}

func TestAdv2TrainsPrefixSpoofsSuffix(t *testing.T) {
	net, ds := advTask(t, 3)
	adv, err := NewAdv2("adv2", gpu.GA10, 7, net, ds, 0.34, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	p := advParams(net.ParamVector())
	res, err := adv.RunEpoch(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumCheckpoints != p.NumCheckpoints() {
		t.Fatalf("checkpoints = %d, want %d", res.NumCheckpoints, p.NumCheckpoints())
	}
	trace := adv.LastTrace()
	// First interval honestly trained: checkpoint 1 differs from global.
	d1, err := tensor.Distance(trace.Checkpoints[1], p.Global)
	if err != nil {
		t.Fatal(err)
	}
	if d1 == 0 {
		t.Error("Adv2 trained nothing in its honest prefix")
	}
	// The spoofed final checkpoint must differ from an honestly trained one.
	honestNet, _ := advTask(t, 3)
	honest, err := rpol.NewHonestWorker("h", gpu.GA10, 7, honestNet, ds)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := honest.RunEpoch(p); err != nil {
		t.Fatal(err)
	}
	dFinal, err := tensor.Distance(trace.Final(), honest.LastTrace().Final())
	if err != nil {
		t.Fatal(err)
	}
	if dFinal == 0 {
		t.Error("spoofed trajectory coincides with honest one")
	}
}

func TestAdv2HonestSteps(t *testing.T) {
	net, ds := advTask(t, 4)
	adv, err := NewAdv2("adv2", gpu.GA10, 7, net, ds, 0.1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	p := advParams(net.ParamVector())
	// 3 intervals, 10% honest rounds up to 1 interval = 5 steps.
	if got := adv.honestSteps(p); got != 5 {
		t.Errorf("honestSteps = %d, want 5", got)
	}
	full, err := NewAdv2("adv2b", gpu.GA10, 7, net, ds, 1.0, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if got := full.honestSteps(p); got != p.Steps {
		t.Errorf("fully honest Adv2 steps = %d, want %d", got, p.Steps)
	}
}

func TestAdv2Validation(t *testing.T) {
	net, ds := advTask(t, 5)
	if _, err := NewAdv2("x", gpu.GA10, 1, net, &dataset.Dataset{}, 0.1, 0.5); err == nil {
		t.Error("want error for empty shard")
	}
	if _, err := NewAdv2("x", gpu.GA10, 1, net, ds, -0.1, 0.5); err == nil {
		t.Error("want error for bad fraction")
	}
	if _, err := NewAdv2("x", gpu.Profile{Name: "bad"}, 1, net, ds, 0.1, 0.5); err == nil {
		t.Error("want error for bad profile")
	}
}

func TestSpoofDistanceExceedsReproductionError(t *testing.T) {
	// The separation Fig. 5 depends on: even the strong Adv2 spoof lands
	// far from the true next checkpoint relative to hardware reproduction
	// error.
	net, ds := advTask(t, 6)
	p := advParams(net.ParamVector())

	// Honest run on GA10 plus an independent re-run on G3090 establish the
	// reproduction-error scale.
	h1Net, _ := advTask(t, 6)
	h1, err := rpol.NewHonestWorker("h1", gpu.GA10, 11, h1Net, ds)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h1.RunEpoch(p); err != nil {
		t.Fatal(err)
	}
	h2Net, _ := advTask(t, 6)
	h2, err := rpol.NewHonestWorker("h2", gpu.G3090, 12, h2Net, ds)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h2.RunEpoch(p); err != nil {
		t.Fatal(err)
	}
	reproErrs, err := rpol.TraceDistances(h1.LastTrace(), h2.LastTrace())
	if err != nil {
		t.Fatal(err)
	}
	maxRepro := 0.0
	for _, e := range reproErrs {
		if e > maxRepro {
			maxRepro = e
		}
	}

	// Spoof the final checkpoint from the honest history and measure its
	// distance to the true final checkpoint.
	hist := h1.LastTrace().Checkpoints
	spoofed, err := Spoof(nil, nil, hist[:len(hist)-1], 0.5)
	if err != nil {
		t.Fatal(err)
	}
	spoofDist, err := tensor.Distance(spoofed, hist[len(hist)-1])
	if err != nil {
		t.Fatal(err)
	}
	if spoofDist <= maxRepro*5 {
		t.Errorf("spoof distance %v not clearly above repro error %v", spoofDist, maxRepro)
	}
}

func TestFabricatorCommitsConsistently(t *testing.T) {
	net, _ := advTask(t, 7)
	p := advParams(net.ParamVector())
	fam, err := lsh.NewFamily(len(p.Global), lsh.Params{R: 1, K: 2, L: 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	p.LSH = fam
	fab := newFabricator("fab", gpu.GT4, 9, 0.5, 50)
	res, err := fab.RunEpoch(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.DataSize != 50 {
		t.Errorf("claimed data size = %d", res.DataSize)
	}
	for i := 0; i < res.NumCheckpoints; i++ {
		w, err := fab.OpenCheckpoint(i)
		if err != nil {
			t.Fatal(err)
		}
		if err := openingCommitted(res, fab, fam, i, w); err != nil {
			t.Errorf("fabricator opening %d inconsistent: %v", i, err)
		}
	}
}

func TestAdversariesErrorBeforeFirstEpoch(t *testing.T) {
	if _, err := NewAdv1("a", gpu.GT4, 1).OpenCheckpoint(0); err == nil {
		t.Error("Adv1: want error before first epoch")
	}
	if _, err := newFabricator("f", gpu.GT4, 1, 1, 1).OpenCheckpoint(0); err == nil {
		t.Error("Fabricator: want error before first epoch")
	}
}

func TestAdversariesRejectBadParams(t *testing.T) {
	net, ds := advTask(t, 8)
	bad := advParams(net.ParamVector())
	bad.Steps = 0
	if _, err := NewAdv1("a", gpu.GT4, 1).RunEpoch(bad); err == nil {
		t.Error("Adv1 accepted bad params")
	}
	adv2, err := NewAdv2("b", gpu.GA10, 1, net, ds, 0.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := adv2.RunEpoch(bad); err == nil {
		t.Error("Adv2 accepted bad params")
	}
	if _, err := newFabricator("c", gpu.GT4, 1, 1, 1).RunEpoch(bad); err == nil {
		t.Error("Fabricator accepted bad params")
	}
}
