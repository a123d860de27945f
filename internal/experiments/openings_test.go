package experiments

import (
	"math"
	"testing"

	"rpol/internal/gpu"
	"rpol/internal/modelzoo"
	"rpol/internal/prf"
	"rpol/internal/rpol"
	"rpol/internal/tensor"
)

func TestExpectedOpeningsClosedForm(t *testing.T) {
	cases := []struct {
		scheme             string
		intervals, samples int
		want               float64
	}{
		// Every interval sampled: all interior leaves under v1, every input
		// but leaf 0 under v2.
		{"RPoLv1", 3, 3, 2}, {"RPoLv2", 3, 3, 2},
		{"RPoLv1", 3, 2, 2}, {"RPoLv2", 3, 2, 4.0 / 3},
		{"RPoLv1", 1, 3, 0}, {"RPoLv2", 1, 3, 0},
		{"RPoLv1", 8, 3, 4.5}, {"RPoLv2", 8, 3, 2.625},
		// The paper's ≈ 49 intervals: 4 % and 2 % below q × {2, 1}.
		{"RPoLv1", 49, 3, 48 * (1 - 46.0*45/(49*48))}, {"RPoLv2", 49, 3, 3 * 48.0 / 49},
	}
	for _, c := range cases {
		got, err := ExpectedOpenings(c.scheme, c.intervals, c.samples)
		if err != nil || math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s, %d of %d intervals: %v, %v; want %v", c.scheme, c.samples, c.intervals, got, err, c.want)
		}
	}
	if v1, _ := ExpectedOpenings("RPoLv1", 49, 3); v1 < 0.95*6 || v1 >= 6 {
		t.Errorf("v1 at the paper's shape opens %v vectors, want ≈ 4 %% below 2q", v1)
	}
	for _, bad := range []struct {
		scheme             string
		intervals, samples int
	}{{"baseline", 8, 3}, {"RPoLv1", 0, 3}, {"RPoLv2", 8, 0}} {
		if _, err := ExpectedOpenings(bad.scheme, bad.intervals, bad.samples); err == nil {
			t.Errorf("%+v accepted", bad)
		}
	}
}

// TestVerifierOpeningsMatchClosedForm verifies one honest submission 200
// times under seeded samplers and holds the mean number of checkpoint vectors
// the verifier actually pulled against ExpectedOpenings, within three
// standard errors — under v2 with the double-checks it reported on top.
func TestVerifierOpeningsMatchClosedForm(t *testing.T) {
	const submissions, intervals, q = 200, 8, 3
	spec, err := modelzoo.Get("resnet18-cifar10")
	if err != nil {
		t.Fatal(err)
	}
	_, train, _, err := spec.BuildProxy(5)
	if err != nil {
		t.Fatal(err)
	}
	halves, err := train.Partition(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []rpol.Scheme{rpol.SchemeV1, rpol.SchemeV2} {
		t.Run(scheme.String(), func(t *testing.T) {
			net, err := spec.BuildProxyNet(6)
			if err != nil {
				t.Fatal(err)
			}
			p := rpol.TaskParams{
				Global:          net.ParamVector(),
				Hyper:           rpol.Hyper{Optimizer: "sgdm", LR: 0.02, BatchSize: spec.ProxyBatchSize},
				Nonce:           prf.DeriveNonce([]byte("openings"), scheme.String(), 0),
				Steps:           2 * intervals,
				CheckpointEvery: 2,
			}
			calibrator := &rpol.Calibrator{Net: net, Shard: halves[0], XFactor: 5, KLsh: 16}
			cal, fam, err := calibrator.Calibrate(p, gpu.G3090, gpu.GA10, [2]int64{7, 8}, 9)
			if err != nil {
				t.Fatal(err)
			}
			if scheme == rpol.SchemeV2 {
				p.LSH = fam
			}
			workerNet, err := spec.BuildProxyNet(6)
			if err != nil {
				t.Fatal(err)
			}
			worker, err := rpol.NewHonestWorker("w", gpu.GA10, 10, workerNet, halves[1])
			if err != nil {
				t.Fatal(err)
			}
			result, err := worker.RunEpoch(p)
			if err != nil {
				t.Fatal(err)
			}
			verifyNet, err := spec.BuildProxyNet(6)
			if err != nil {
				t.Fatal(err)
			}
			device, err := gpu.NewDevice(gpu.G3090, 11)
			if err != nil {
				t.Fatal(err)
			}
			verifier := &rpol.Verifier{
				Scheme: scheme, Net: verifyNet, Device: device, Beta: cal.Beta, LSH: p.LSH, Samples: q,
			}
			vectorBytes := float64(tensor.EncodedSize(len(p.Global)))
			var sum, sumSq, doubleChecks float64
			for i := 0; i < submissions; i++ {
				verifier.Sampler = tensor.NewRNG(int64(1000 + i))
				out, err := verifier.VerifySubmission(worker, halves[1], result, p)
				if err != nil {
					t.Fatal(err)
				}
				if !out.Accepted {
					t.Fatalf("submission %d rejected: %s", i, out.FailReason)
				}
				opened := float64(out.CommBytes-out.CommitBytes) / vectorBytes
				if opened != math.Trunc(opened) {
					t.Fatalf("submission %d pulled %v vectors", i, opened)
				}
				sum += opened
				sumSq += opened * opened
				doubleChecks += float64(out.DoubleChecks)
			}
			mean := sum / submissions
			stderr := math.Sqrt((sumSq/submissions - mean*mean) / (submissions - 1)) // of the mean
			want, err := ExpectedOpenings(scheme.String(), intervals, q)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%.3f vectors per submission (closed form %.3f, standard error %.3f, %.0f double-checks)",
				mean, want, stderr, doubleChecks)
			if mean < want-3*stderr || mean > want+doubleChecks/submissions+3*stderr {
				t.Errorf("%.3f vectors pulled per submission, closed form %.3f ± %.3f (+ %.3f double-checks)",
					mean, want, 3*stderr, doubleChecks/submissions)
			}
			if bound := float64(q) * map[rpol.Scheme]float64{rpol.SchemeV1: 2, rpol.SchemeV2: 1}[scheme]; mean >= bound+doubleChecks/submissions {
				t.Errorf("%.3f vectors per submission does not undercut the paper's bound of %v", mean, bound)
			}
		})
	}
}
