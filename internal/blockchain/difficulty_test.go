package blockchain

import (
	"errors"
	"math"
	"testing"
	"time"
)

func controller() difficultyController {
	return difficultyController{
		TargetBlockTime: 10 * time.Minute,
		Step:            0.02,
		MinAccuracy:     0.5,
		MaxAccuracy:     0.99,
	}
}

func TestRetargetFastBlocksRaiseDifficulty(t *testing.T) {
	d := controller()
	next, err := d.retarget(0.8, 5*time.Minute) // twice as fast
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(next-0.82) > 1e-12 {
		t.Errorf("next = %v, want 0.82", next)
	}
}

func TestRetargetSlowBlocksLowerDifficulty(t *testing.T) {
	d := controller()
	next, err := d.retarget(0.8, 20*time.Minute) // twice as slow
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(next-0.78) > 1e-12 {
		t.Errorf("next = %v, want 0.78", next)
	}
}

func TestRetargetStableAtTarget(t *testing.T) {
	d := controller()
	next, err := d.retarget(0.8, 10*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if next != 0.8 {
		t.Errorf("on-target block moved difficulty: %v", next)
	}
}

func TestRetargetSwingCapped(t *testing.T) {
	d := controller()
	// A block 1000× too fast must move at most MaxSwing (= 4×Step).
	next, err := d.retarget(0.8, 600*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(next-0.88) > 1e-12 {
		t.Errorf("next = %v, want capped 0.88", next)
	}
}

func TestRetargetClampedToRange(t *testing.T) {
	d := controller()
	hi, err := d.retarget(0.985, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if hi > d.MaxAccuracy {
		t.Errorf("exceeded max: %v", hi)
	}
	lo, err := d.retarget(0.51, 10*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if lo < d.MinAccuracy {
		t.Errorf("below min: %v", lo)
	}
}

func TestRetargetConverges(t *testing.T) {
	// Model: block time grows with difficulty (a round at accuracy a takes
	// a/0.8 × target). Iterating the controller must settle near the
	// accuracy whose block time equals the target (a = 0.8).
	d := controller()
	acc := 0.6
	for i := 0; i < 60; i++ {
		blockTime := time.Duration(float64(d.TargetBlockTime) * acc / 0.8)
		next, err := d.retarget(acc, blockTime)
		if err != nil {
			t.Fatal(err)
		}
		acc = next
	}
	if math.Abs(acc-0.8) > 0.02 {
		t.Errorf("controller settled at %v, want ≈ 0.8", acc)
	}
}

func TestControllerValidation(t *testing.T) {
	bads := []difficultyController{
		{TargetBlockTime: 0, Step: 0.1, MinAccuracy: 0.1, MaxAccuracy: 0.9},
		{TargetBlockTime: time.Minute, Step: 0, MinAccuracy: 0.1, MaxAccuracy: 0.9},
		{TargetBlockTime: time.Minute, Step: 0.1, MinAccuracy: 0.9, MaxAccuracy: 0.1},
		{TargetBlockTime: time.Minute, Step: 0.1, MinAccuracy: 0.1, MaxAccuracy: 1.5},
	}
	for i, b := range bads {
		if _, err := b.retarget(0.5, time.Minute); !errors.Is(err, ErrBadController) {
			t.Errorf("bad controller %d accepted: %v", i, err)
		}
	}
	d := controller()
	if _, err := d.retarget(0.5, 0); err == nil {
		t.Error("zero block time accepted")
	}
}
