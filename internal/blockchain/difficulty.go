package blockchain

import (
	"errors"
	"math"
	"time"
)

// difficultyController retargets a PoUW task's difficulty — the target test
// accuracy that ends a round — so that block production time stays near a
// desired interval. The paper flags this as the open knob for very large
// models ("the difficulty level (test set accuracy) should be adjusted to
// accommodate a reasonable block production time", Sec. VII-E); this
// controller implements the standard logarithmic retarget used by
// production chains, applied to accuracy instead of hash difficulty.
//
// Accuracy difficulty is nonlinear (the last points of accuracy cost far
// more training than the first), so the controller moves the target by a
// fixed accuracy step per doubling/halving of block time, clamped to a
// sane range and a maximum per-retarget swing.
type difficultyController struct {
	// TargetBlockTime is the desired production interval.
	TargetBlockTime time.Duration
	// Step is the accuracy change applied per log2 unit of timing error
	// (e.g. 0.02 ⇒ a block that took twice the target lowers the bar by
	// two points of accuracy).
	Step float64
	// MinAccuracy and MaxAccuracy clamp the target.
	MinAccuracy, MaxAccuracy float64
	// MaxSwing caps one retarget's change (default: 4×Step).
	MaxSwing float64
}

// Errors for controller configuration.
var ErrBadController = errors.New("blockchain: invalid difficulty controller")

// Validate checks the controller's configuration.
func (d difficultyController) Validate() error {
	switch {
	case d.TargetBlockTime <= 0:
		return ErrBadController
	case d.Step <= 0:
		return ErrBadController
	case d.MinAccuracy < 0 || d.MaxAccuracy > 1 || d.MinAccuracy >= d.MaxAccuracy:
		return ErrBadController
	}
	return nil
}

// retarget returns the next round's target accuracy given the current
// target and the last block's production time. Faster-than-target blocks
// raise the bar; slower blocks lower it.
func (d difficultyController) retarget(current float64, lastBlockTime time.Duration) (float64, error) {
	if err := d.Validate(); err != nil {
		return 0, err
	}
	if lastBlockTime <= 0 {
		return 0, errors.New("blockchain: non-positive block time")
	}
	// log2(target/actual): positive when the block was fast.
	speed := math.Log2(float64(d.TargetBlockTime) / float64(lastBlockTime))
	delta := d.Step * speed
	maxSwing := d.MaxSwing
	if maxSwing <= 0 {
		maxSwing = 4 * d.Step
	}
	if delta > maxSwing {
		delta = maxSwing
	}
	if delta < -maxSwing {
		delta = -maxSwing
	}
	next := current + delta
	if next < d.MinAccuracy {
		next = d.MinAccuracy
	}
	if next > d.MaxAccuracy {
		next = d.MaxAccuracy
	}
	return next, nil
}
