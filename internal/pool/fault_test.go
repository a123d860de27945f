package pool

import (
	"errors"
	"math"
	"testing"

	"rpol/internal/netsim"
	"rpol/internal/rpol"
)

// epochSummary is the comparable projection of EpochStats (Calibration and
// Phases hold pointers/maps, so the struct itself isn't ==-comparable).
type epochSummary struct {
	Epoch           int
	TestAccuracy    float64
	Accepted        int
	Rejected        int
	Absent          int
	Detected        int
	Missed          int
	FalseRejections int
	VerifyCommBytes int64
	ReexecSteps     int
}

func summarize(s *EpochStats) epochSummary {
	return epochSummary{
		Epoch:           s.Epoch,
		TestAccuracy:    s.TestAccuracy,
		Accepted:        s.Accepted,
		Rejected:        s.Rejected,
		Absent:          s.AbsentWorkers,
		Detected:        s.DetectedAdversaries,
		Missed:          s.MissedAdversaries,
		FalseRejections: s.FalseRejections,
		VerifyCommBytes: s.VerifyCommBytes,
		ReexecSteps:     s.ReexecSteps,
	}
}

// TestFaultSoakReplayDeterminism is the fault-injection soak: a seeded
// FaultPlan knocks workers out across epochs, and two replays of the same
// (pool seed, fault seed) must produce identical EpochStats — absences
// included — with honest-but-absent workers never counted as false
// rejections.
func TestFaultSoakReplayDeterminism(t *testing.T) {
	run := func() []epochSummary {
		cfg := baseConfig(rpol.SchemeV2)
		cfg.Faults = netsim.NewFaultPlan(17, netsim.DefaultFaultConfig())
		p, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		history, err := p.RunEpochs(6)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]epochSummary, len(history))
		for i, s := range history {
			out[i] = summarize(s)
		}
		return out
	}
	first := run()
	second := run()

	totalAbsent := 0
	for e := range first {
		if first[e] != second[e] {
			t.Fatalf("epoch %d diverged between replays:\n  %+v\n  %+v", e, first[e], second[e])
		}
		totalAbsent += first[e].Absent
		if first[e].FalseRejections != 0 {
			t.Fatalf("epoch %d: %d false rejections in an honest pool under faults (absent workers misclassified?)",
				e, first[e].FalseRejections)
		}
		if got := first[e].Accepted + first[e].Rejected + first[e].Absent; got != 5 {
			t.Fatalf("epoch %d: outcomes cover %d of 5 workers", e, got)
		}
	}
	if totalAbsent == 0 {
		t.Fatal("fault seed 17 injected no absences across 6 epochs; pick a seed that exercises the crash schedule")
	}
}

func TestPoolWithoutFaultsHasNoAbsences(t *testing.T) {
	p, err := New(baseConfig(rpol.SchemeV2))
	if err != nil {
		t.Fatal(err)
	}
	stats, err := p.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if stats.AbsentWorkers != 0 {
		t.Fatalf("fault-free pool recorded %d absences", stats.AbsentWorkers)
	}
}

func TestConfigValidateRejectsNegatives(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"StepsPerEpoch", func(c *Config) { c.StepsPerEpoch = -1 }},
		{"CheckpointEvery", func(c *Config) { c.CheckpointEvery = -5 }},
		{"Samples", func(c *Config) { c.Samples = -3 }},
		// The row keeps the name of a deleted verifier-count knob; the
		// worker count is the count left to reject.
		{"Verifiers", func(c *Config) { c.NumWorkers = -2 }},
		{"Adv1FractionNaN", func(c *Config) { c.Adv1Fraction = math.NaN() }},
		{"Adv2FractionNaN", func(c *Config) { c.Adv2Fraction = math.NaN() }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := baseConfig(rpol.SchemeV2)
			tc.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Fatalf("bad %s accepted by Validate", tc.name)
			}
			if _, err := New(cfg); err == nil {
				t.Fatalf("bad %s accepted by New", tc.name)
			}
		})
	}
}

// TestPoolQuorumNotMetSurfacesUnavailable: a crash schedule that downs every
// worker in every epoch leaves no submission to settle with, so the epoch
// fails with an availability error.
func TestPoolQuorumNotMetSurfacesUnavailable(t *testing.T) {
	cfg := baseConfig(rpol.SchemeV2)
	cfg.Faults = netsim.NewFaultPlan(17, netsim.FaultConfig{CrashRate: 1, CrashPeriod: 1, MaxCrashLen: 1})
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = p.RunEpochs(8)
	if !errors.Is(err, rpol.ErrWorkerUnavailable) {
		t.Fatalf("err = %v, want a failure wrapping ErrWorkerUnavailable", err)
	}
}
