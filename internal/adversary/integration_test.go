package adversary

import (
	"errors"
	"fmt"
	"testing"

	"rpol/internal/commitment"
	"rpol/internal/dataset"
	"rpol/internal/gpu"
	"rpol/internal/parallel"
	"rpol/internal/rpol"
	"rpol/internal/tensor"
)

// setWorkers sets the process compute setting (parallel.SetDefaultWorkers)
// to n until the test ends. A trainer reads it when it builds its runtime.
func setWorkers(t testing.TB, n int) {
	prev := parallel.DefaultWorkers()
	parallel.SetDefaultWorkers(n)
	t.Cleanup(func() { parallel.SetDefaultWorkers(prev) })
}

// buildVerifier calibrates β (and the LSH family for v2) from the real task
// and returns a ready verifier, mirroring the manager's per-epoch setup.
func buildVerifier(t *testing.T, scheme rpol.Scheme, p *rpol.TaskParams) *rpol.Verifier {
	t.Helper()
	netC, ds := advTask(t, 40)
	cal := &rpol.Calibrator{Net: netC, Shard: ds, XFactor: 5, KLsh: 16}
	calOut, fam, err := cal.Calibrate(*p, gpu.G3090, gpu.GA10, [2]int64{51, 52}, 53)
	if err != nil {
		t.Fatal(err)
	}
	netV, _ := advTask(t, 40)
	device, err := gpu.NewDevice(gpu.G3090, 54)
	if err != nil {
		t.Fatal(err)
	}
	v := &rpol.Verifier{
		Scheme:  scheme,
		Net:     netV,
		Device:  device,
		Beta:    calOut.Beta,
		Samples: 3,
		Sampler: tensor.NewRNG(55),
	}
	if scheme == rpol.SchemeV2 {
		v.LSH = fam
		p.LSH = fam
	}
	return v
}

func TestVerifierCatchesAdv1(t *testing.T) {
	for _, scheme := range []rpol.Scheme{rpol.SchemeV1, rpol.SchemeV2} {
		t.Run(scheme.String(), func(t *testing.T) {
			net, ds := advTask(t, 40)
			p := advParams(net.ParamVector())
			verifier := buildVerifier(t, scheme, &p)
			adv := NewAdv1("adv1", gpu.GT4, ds.Len())
			res, err := adv.RunEpoch(p)
			if err != nil {
				t.Fatal(err)
			}
			out, err := verifier.VerifySubmission(adv, ds, res, p)
			if err != nil {
				t.Fatal(err)
			}
			if out.Accepted {
				t.Error("replay attacker passed verification")
			}
		})
	}
}

func TestVerifierCatchesAdv2(t *testing.T) {
	// With 3 intervals sampled out of 3 and only 1 honestly trained, at
	// least one spoofed interval is always checked; the spoof distance
	// exceeds β, so the attacker is rejected.
	for _, scheme := range []rpol.Scheme{rpol.SchemeV1, rpol.SchemeV2} {
		t.Run(scheme.String(), func(t *testing.T) {
			net, ds := advTask(t, 40)
			p := advParams(net.ParamVector())
			verifier := buildVerifier(t, scheme, &p)
			advNet, _ := advTask(t, 40)
			adv, err := NewAdv2("adv2", gpu.GA10, 61, advNet, ds, 0.1, 0.5)
			if err != nil {
				t.Fatal(err)
			}
			res, err := adv.RunEpoch(p)
			if err != nil {
				t.Fatal(err)
			}
			out, err := verifier.VerifySubmission(adv, ds, res, p)
			if err != nil {
				t.Fatal(err)
			}
			if out.Accepted {
				t.Error("spoofing attacker passed verification")
			}
		})
	}
}

func TestVerifierCatchesFabricator(t *testing.T) {
	net, ds := advTask(t, 40)
	p := advParams(net.ParamVector())
	verifier := buildVerifier(t, rpol.SchemeV2, &p)
	fab := newFabricator("fab", gpu.GT4, 62, 0.5, ds.Len())
	res, err := fab.RunEpoch(p)
	if err != nil {
		t.Fatal(err)
	}
	out, err := verifier.VerifySubmission(fab, ds, res, p)
	if err != nil {
		t.Fatal(err)
	}
	if out.Accepted {
		t.Error("fabricator passed verification")
	}
}

func TestHonestWorkerStillPassesSameSetup(t *testing.T) {
	// Sanity companion to the rejection tests: the exact same calibrated
	// verifier accepts an honest worker (0 false negatives, Sec. VII-D).
	for _, scheme := range []rpol.Scheme{rpol.SchemeV1, rpol.SchemeV2} {
		t.Run(scheme.String(), func(t *testing.T) {
			net, ds := advTask(t, 40)
			p := advParams(net.ParamVector())
			verifier := buildVerifier(t, scheme, &p)
			hNet, _ := advTask(t, 40)
			honest, err := rpol.NewHonestWorker("h", gpu.GA10, 63, hNet, ds)
			if err != nil {
				t.Fatal(err)
			}
			res, err := honest.RunEpoch(p)
			if err != nil {
				t.Fatal(err)
			}
			out, err := verifier.VerifySubmission(honest, ds, res, p)
			if err != nil {
				t.Fatal(err)
			}
			if !out.Accepted {
				t.Errorf("honest worker rejected: %s", out.FailReason)
			}
		})
	}
}

func TestVerifierCatchesWrongInit(t *testing.T) {
	// The attacker trains fully honestly but from a shifted initialization.
	// Sampled intervals re-execute perfectly; only the trace-origin binding
	// (first committed checkpoint must equal the distributed θ_t) catches
	// it.
	for _, scheme := range []rpol.Scheme{rpol.SchemeV1, rpol.SchemeV2} {
		t.Run(scheme.String(), func(t *testing.T) {
			net, ds := advTask(t, 40)
			p := advParams(net.ParamVector())
			verifier := buildVerifier(t, scheme, &p)
			advNet, _ := advTask(t, 40)
			shift := tensor.NewRNG(77).NormalVector(len(p.Global), 0, 0.5)
			adv, err := NewWrongInit("wronginit", gpu.GA10, 71, advNet, ds, shift)
			if err != nil {
				t.Fatal(err)
			}
			res, err := adv.RunEpoch(p)
			if err != nil {
				t.Fatal(err)
			}
			out, err := verifier.VerifySubmission(adv, ds, res, p)
			if err != nil {
				t.Fatal(err)
			}
			if out.Accepted {
				t.Error("wrong-initialization attacker passed verification")
			}
			if len(out.SampledCheckpoints) != 0 {
				t.Error("origin binding should reject before any sampling")
			}
		})
	}
}

func TestVerifierCatchesUpdateScaler(t *testing.T) {
	// The attacker's proofs are all genuine; only the update-to-trace
	// binding rejects the scaled submission.
	for _, scheme := range []rpol.Scheme{rpol.SchemeV1, rpol.SchemeV2} {
		t.Run(scheme.String(), func(t *testing.T) {
			net, ds := advTask(t, 40)
			p := advParams(net.ParamVector())
			verifier := buildVerifier(t, scheme, &p)
			advNet, _ := advTask(t, 40)
			adv, err := newUpdateScaler("scaler", gpu.GA10, 81, advNet, ds, 10)
			if err != nil {
				t.Fatal(err)
			}
			res, err := adv.RunEpoch(p)
			if err != nil {
				t.Fatal(err)
			}
			out, err := verifier.VerifySubmission(adv, ds, res, p)
			if err != nil {
				t.Fatal(err)
			}
			if out.Accepted {
				t.Error("update-scaling attacker passed verification")
			}
			if len(out.SampledCheckpoints) != 0 {
				t.Error("update binding should reject before any sampling")
			}
		})
	}
}

func TestUpdateScalerWithFactorOnePasses(t *testing.T) {
	// Sanity: with Factor 1 the "attacker" is an honest worker and must be
	// accepted — the binding check cannot cause false rejections.
	net, ds := advTask(t, 40)
	p := advParams(net.ParamVector())
	verifier := buildVerifier(t, rpol.SchemeV2, &p)
	advNet, _ := advTask(t, 40)
	adv, err := newUpdateScaler("unit", gpu.GA10, 82, advNet, ds, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := adv.RunEpoch(p)
	if err != nil {
		t.Fatal(err)
	}
	out, err := verifier.VerifySubmission(adv, ds, res, p)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Accepted {
		t.Errorf("factor-1 scaler rejected: %s", out.FailReason)
	}
}

// callCounter counts every request a verifier makes of a worker.
type callCounter struct {
	rpol.Worker
	calls int
}

func (c *callCounter) OpenCheckpoint(idx int) (tensor.Vector, error) {
	c.calls++
	return c.Worker.OpenCheckpoint(idx)
}

func (c *callCounter) OpenProof(idx int) (rpol.LeafProof, error) {
	c.calls++
	return c.Worker.OpenProof(idx)
}

// TestVerifierCatchesTruncator: a worker that trains only the first k
// intervals honestly and commits that (k+1)-leaf trace passes the origin
// binding, the update binding and every interval a verifier could sample from
// it — before the leaf count was held to the task's it was accepted with
// probability 1, full reward for k/n of the work. It, and its over-claiming
// twin, must be rejected under every scheme and verifier loop before a single
// request is made or a byte tallied. merkle=false strips the root from the
// submission: the leaf-count rejection must not lean on the commitment.
func TestVerifierCatchesTruncator(t *testing.T) {
	for _, scheme := range []rpol.Scheme{rpol.SchemeV1, rpol.SchemeV2} {
		for _, workers := range []int{0, 2} {
			net, ds := advTask(t, 40)
			p := advParams(net.ParamVector())
			intervals := p.NumCheckpoints() - 1
			setWorkers(t, workers)
			verifier := buildVerifier(t, scheme, &p)
			for _, merkle := range []bool{false, true} {
				for _, claimed := range []int{1, intervals - 1, intervals + 1} {
					name := fmt.Sprintf("%s/merkle=%v/workers=%d/intervals=%d", scheme, merkle, workers, claimed)
					t.Run(name, func(t *testing.T) {
						netA, _ := advTask(t, 40)
						adv, err := newTruncator("lazy", gpu.GT4, 71, netA, ds, claimed)
						if err != nil {
							t.Fatal(err)
						}
						res, err := adv.RunEpoch(p)
						if err != nil {
							t.Fatal(err)
						}
						if res.NumCheckpoints != claimed+1 {
							t.Fatalf("committed %d leaves, want %d", res.NumCheckpoints, claimed+1)
						}
						if !merkle {
							res.MerkleRoot = commitment.Hash{}
						}
						counter := &callCounter{Worker: adv}
						out, err := verifier.VerifySubmission(counter, ds, res, p)
						if err != nil {
							t.Fatal(err)
						}
						if out.Accepted {
							t.Fatalf("a %d-interval trace of a %d-interval task accepted (re-executed %d of %d steps)",
								claimed, intervals, out.ReexecSteps, p.Steps)
						}
						if !errors.Is(out.FailReason, rpol.ErrLeafCount) {
							t.Errorf("FailReason = %q, want the leaf-count rejection", out.FailReason)
						}
						if counter.calls != 0 || out.CommBytes != 0 || out.CommitBytes != 0 || out.ReexecSteps != 0 {
							t.Errorf("rejected after %d requests, (%d, %d) bytes and %d replayed steps, want none",
								counter.calls, out.CommBytes, out.CommitBytes, out.ReexecSteps)
						}
					})
				}
			}
		}
	}
}

// TestManagerRejectsRebaser runs a manager over one honest worker and a
// Rebaser, which scales the task vector it is handed in place and trains
// honestly from it, under both schemes and both collection loops: the
// manager must verify against its own θ_t — rejecting the Rebaser, accepting
// the honest worker — and aggregate exactly the model the honest worker alone
// yields.
func TestManagerRejectsRebaser(t *testing.T) {
	for _, scheme := range []rpol.Scheme{rpol.SchemeV1, rpol.SchemeV2} {
		for _, concurrent := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/concurrent=%v", scheme, concurrent), func(t *testing.T) {
				global := func(rebaser bool) (tensor.Vector, []*rpol.VerifyOutcome) {
					net, ds := advTask(t, 40)
					shards, err := ds.Partition(3)
					if err != nil {
						t.Fatal(err)
					}
					honestNet, _ := advTask(t, 40)
					honest, err := rpol.NewHonestWorker("honest", gpu.GA10, 71, honestNet, shards[0])
					if err != nil {
						t.Fatal(err)
					}
					workers := []rpol.Worker{honest}
					shardMap := map[string]*dataset.Dataset{"honest": shards[0], "rebaser": shards[1]}
					if rebaser {
						rebNet, _ := advTask(t, 40)
						reb, err := newRebaser("rebaser", gpu.GA10, 72, rebNet, shards[1], 3)
						if err != nil {
							t.Fatal(err)
						}
						workers = append(workers, reb)
					}
					mgr, err := rpol.NewManager(rpol.ManagerConfig{
						Scheme:               scheme,
						Hyper:                rpol.Hyper{Optimizer: "sgdm", LR: 0.05, BatchSize: 8},
						StepsPerEpoch:        15,
						CheckpointEvery:      5,
						Samples:              3,
						GPU:                  gpu.G3090,
						MasterKey:            []byte("rebaser"),
						Seed:                 73,
						ConcurrentCollection: concurrent,
					}, net, workers, shardMap, shards[2])
					if err != nil {
						t.Fatal(err)
					}
					var outcomes []*rpol.VerifyOutcome
					for epoch := 0; epoch < 2; epoch++ {
						report, err := mgr.RunEpoch()
						if err != nil {
							t.Fatal(err)
						}
						outcomes = append(outcomes, report.Outcomes...)
					}
					return mgr.Global(), outcomes
				}
				got, outcomes := global(true)
				for _, o := range outcomes {
					if o.Accepted != (o.WorkerID == "honest") {
						t.Errorf("epoch %d: %s accepted = %v (%s)", o.Epoch, o.WorkerID, o.Accepted, o.FailReason)
					}
				}
				if want, _ := global(false); !got.Equal(want, 0) {
					t.Error("the rebaser's write reached the aggregated global model")
				}
			})
		}
	}
}
