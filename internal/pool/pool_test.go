package pool

import (
	"strings"
	"testing"

	"rpol/internal/rpol"
)

func baseConfig(scheme rpol.Scheme) Config {
	return Config{
		TaskName:      "resnet18-cifar10",
		Scheme:        scheme,
		NumWorkers:    5,
		StepsPerEpoch: 10,
		Samples:       2, // all intervals sampled (10 steps / 5 = 2)
		Seed:          321,
	}
}

func TestConfigValidate(t *testing.T) {
	good := baseConfig(rpol.SchemeV1)
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := good
	bad.TaskName = ""
	if err := bad.Validate(); err == nil {
		t.Error("missing task accepted")
	}
	bad = good
	bad.NumWorkers = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero workers accepted")
	}
	bad = good
	bad.Adv1Fraction = 0.7
	bad.Adv2Fraction = 0.7
	if err := bad.Validate(); err == nil {
		t.Error("adversary fractions > 1 accepted")
	}
}

func TestHonestPoolAllAccepted(t *testing.T) {
	p, err := New(baseConfig(rpol.SchemeV2))
	if err != nil {
		t.Fatal(err)
	}
	stats, err := p.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rejected != 0 || stats.FalseRejections != 0 {
		t.Errorf("honest pool saw rejections: %+v", stats)
	}
	if stats.Accepted != 5 {
		t.Errorf("accepted = %d", stats.Accepted)
	}
	if stats.Calibration == nil {
		t.Error("v2 epoch must carry a calibration")
	}
}

func TestAdversariesDetected(t *testing.T) {
	cfg := baseConfig(rpol.SchemeV2)
	cfg.NumWorkers = 6
	cfg.Adv1Fraction = 0.34 // 2 replay attackers
	cfg.Adv2Fraction = 0.34 // 2 spoofers
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	roles := p.Roles()
	nAdv := 0
	for _, r := range roles {
		if r != RoleHonest {
			nAdv++
		}
	}
	if nAdv != 4 {
		t.Fatalf("adversaries placed = %d, want 4", nAdv)
	}
	stats, err := p.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if stats.DetectedAdversaries != nAdv {
		t.Errorf("detected %d of %d adversaries (missed %d)",
			stats.DetectedAdversaries, nAdv, stats.MissedAdversaries)
	}
	if stats.FalseRejections != 0 {
		t.Errorf("honest workers rejected: %d", stats.FalseRejections)
	}
	// Rewards flow only to honest workers.
	for id, r := range p.Rewards() {
		if !strings.HasPrefix(id, "worker-") && r > 0 {
			t.Errorf("adversary %s earned %v", id, r)
		}
	}
}

func TestBaselineAcceptsAdversaries(t *testing.T) {
	cfg := baseConfig(rpol.SchemeBaseline)
	cfg.Adv1Fraction = 0.4
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := p.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rejected != 0 {
		t.Error("baseline must not reject anyone")
	}
	if stats.MissedAdversaries == 0 {
		t.Error("baseline should be missing the adversaries")
	}
}

func TestVerifiedPoolBeatsBaselineUnderAttack(t *testing.T) {
	// The Fig. 6 headline: with 40 % replay adversaries, the verified pool
	// reaches higher test accuracy than the unverified baseline.
	const epochs = 6
	run := func(scheme rpol.Scheme) float64 {
		cfg := baseConfig(scheme)
		cfg.Adv1Fraction = 0.4
		p, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		history, err := p.RunEpochs(epochs)
		if err != nil {
			t.Fatal(err)
		}
		return history[len(history)-1].TestAccuracy
	}
	baseline := run(rpol.SchemeBaseline)
	verified := run(rpol.SchemeV2)
	if verified <= baseline {
		t.Errorf("RPoLv2 accuracy %v not above baseline %v under attack", verified, baseline)
	}
}

func TestAccuracyImprovesOverEpochs(t *testing.T) {
	p, err := New(baseConfig(rpol.SchemeV1))
	if err != nil {
		t.Fatal(err)
	}
	history, err := p.RunEpochs(5)
	if err != nil {
		t.Fatal(err)
	}
	first, last := history[0].TestAccuracy, history[len(history)-1].TestAccuracy
	if last <= first {
		t.Errorf("accuracy did not improve: %v → %v", first, last)
	}
	if last < 0.5 {
		t.Errorf("final accuracy %v too low", last)
	}
}

func TestAMLayerPool(t *testing.T) {
	cfg := baseConfig(rpol.SchemeV1)
	cfg.UseAMLayer = true
	cfg.ManagerAddress = "deadbeef"
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := p.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rejected != 0 {
		t.Errorf("AMLayer pool saw rejections: %+v", stats)
	}
	if stats.TestAccuracy <= 1.0/float64(p.Spec().ProxyClasses)+0.05 {
		t.Errorf("AMLayer pool accuracy %v barely above chance", stats.TestAccuracy)
	}
}

func TestRunEpochsValidation(t *testing.T) {
	p, err := New(baseConfig(rpol.SchemeBaseline))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.RunEpochs(0); err == nil {
		t.Error("zero epochs accepted")
	}
}

func TestNewRejectsUnknownTask(t *testing.T) {
	cfg := baseConfig(rpol.SchemeV1)
	cfg.TaskName = "lenet-mnist"
	if _, err := New(cfg); err == nil {
		t.Error("unknown task accepted")
	}
}

func TestRoleString(t *testing.T) {
	if RoleHonest.String() != "honest" || RoleAdv1.String() != "adv1" ||
		RoleAdv2.String() != "adv2" || Role(0).String() != "unknown" {
		t.Error("role names wrong")
	}
}

func TestConvTaskPoolVerifies(t *testing.T) {
	// The protocol must verify bit-consistently with a convolutional
	// architecture too (re-execution through Conv2D layers).
	cfg := baseConfig(rpol.SchemeV2)
	cfg.TaskName = "resnet18-cifar10-conv"
	cfg.NumWorkers = 3
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := p.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rejected != 0 {
		t.Errorf("conv pool saw rejections: %+v", stats)
	}
	if stats.Accepted != 3 {
		t.Errorf("accepted = %d", stats.Accepted)
	}
}

func TestPoolDeterministicGivenSeed(t *testing.T) {
	run := func() (float64, int) {
		cfg := baseConfig(rpol.SchemeV2)
		cfg.Adv2Fraction = 0.2
		p, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var detected int
		var acc float64
		for i := 0; i < 2; i++ {
			stats, err := p.RunEpoch()
			if err != nil {
				t.Fatal(err)
			}
			detected += stats.DetectedAdversaries
			acc = stats.TestAccuracy
		}
		return acc, detected
	}
	acc1, det1 := run()
	acc2, det2 := run()
	if acc1 != acc2 || det1 != det2 {
		t.Errorf("same seed diverged: (%v, %d) vs (%v, %d)", acc1, det1, acc2, det2)
	}
}
