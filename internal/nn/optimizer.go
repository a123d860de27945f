package nn

import (
	"errors"
	"fmt"
	"math"

	"rpol/internal/tensor"
)

// Optimizer applies a gradient-descent update to a set of parameter tensors.
// The params and grads slices are positionally matched; implementations keep
// per-tensor state (momentum, second moments) keyed by position, so an
// optimizer instance must be used with a single network.
type Optimizer interface {
	// Step updates params in place from grads.
	Step(params, grads []tensor.Vector) error
	// Reset clears any accumulated state (momentum buffers etc.) in place:
	// the buffers are zeroed and kept, so an optimizer reset at every
	// checkpoint boundary allocates its state once. The parameter layout may
	// change across a Reset (the first Step after it re-sizes the state);
	// without one a layout change is ErrStateMismatch.
	Reset()
}

// ErrStateMismatch is returned when Step is called with a parameter layout
// different from earlier calls.
var ErrStateMismatch = errors.New("nn: optimizer state mismatch")

func checkPairs(params, grads []tensor.Vector) error {
	if len(params) != len(grads) {
		return fmt.Errorf("params %d vs grads %d: %w", len(params), len(grads), ErrStateMismatch)
	}
	for i := range params {
		if len(params[i]) != len(grads[i]) {
			return fmt.Errorf("tensor %d: param %d vs grad %d: %w",
				i, len(params[i]), len(grads[i]), ErrStateMismatch)
		}
	}
	return nil
}

// optState is one positional set of per-tensor state buffers (a velocity, a
// moment). It is owned by its optimizer for the optimizer's lifetime.
type optState struct {
	bufs []tensor.Vector
	// pinned is set by the first Step after construction or Reset; until
	// then the state follows whatever layout that Step brings.
	pinned bool
}

// fit returns the state buffers for params: allocated on first use, reused
// (already zeroed by reset) when the layout is the one they were built for,
// rebuilt when the layout changed across a reset, ErrStateMismatch when it
// changed without one.
func (s *optState) fit(params []tensor.Vector) ([]tensor.Vector, error) {
	match := len(s.bufs) == len(params)
	for i := 0; match && i < len(params); i++ {
		match = len(s.bufs[i]) == len(params[i])
	}
	if !match {
		if s.pinned {
			return nil, fmt.Errorf("parameter layout changed without Reset: %w", ErrStateMismatch)
		}
		s.bufs = make([]tensor.Vector, len(params))
		for i := range params {
			s.bufs[i] = tensor.NewVector(len(params[i]))
		}
	}
	s.pinned = true
	return s.bufs, nil
}

// reset zeroes the buffers in place and unpins the layout.
func (s *optState) reset() {
	for _, b := range s.bufs {
		b.Zero()
	}
	s.pinned = false
}

// SGD is plain stochastic gradient descent: θ ← θ − lr·g.
type SGD struct {
	LR float64
}

var _ Optimizer = (*SGD)(nil)

// Step applies θ ← θ − lr·g.
func (o *SGD) Step(params, grads []tensor.Vector) error {
	if err := checkPairs(params, grads); err != nil {
		return err
	}
	for i := range params {
		if err := params[i].AXPY(-o.LR, grads[i]); err != nil {
			return err
		}
	}
	return nil
}

// Reset is a no-op; SGD is stateless.
func (o *SGD) Reset() {}

// SGDM is SGD with classical momentum — the paper's default optimizer
// (lr 0.1, momentum 0.9, Sec. VII-A).
type SGDM struct {
	LR       float64
	Momentum float64

	velocity optState
}

var _ Optimizer = (*SGDM)(nil)

// Step applies v ← μ·v + g; θ ← θ − lr·v.
func (o *SGDM) Step(params, grads []tensor.Vector) error {
	if err := checkPairs(params, grads); err != nil {
		return err
	}
	velocity, err := o.velocity.fit(params)
	if err != nil {
		return err
	}
	for i, p := range params {
		if err := tensor.MomentumStep(p, velocity[i], grads[i], o.Momentum, o.LR); err != nil {
			return err
		}
	}
	return nil
}

// Reset zeroes the momentum buffers.
func (o *SGDM) Reset() { o.velocity.reset() }

// RMSprop divides the learning rate by a running RMS of recent gradients.
type RMSprop struct {
	LR    float64
	Decay float64 // typically 0.99
	Eps   float64 // typically 1e-8

	sq optState
}

var _ Optimizer = (*RMSprop)(nil)

// Step applies s ← ρ·s + (1−ρ)·g²; θ ← θ − lr·g/√(s+ε).
func (o *RMSprop) Step(params, grads []tensor.Vector) error {
	if err := checkPairs(params, grads); err != nil {
		return err
	}
	sq, err := o.sq.fit(params)
	if err != nil {
		return err
	}
	eps := o.Eps
	if eps == 0 {
		eps = 1e-8
	}
	for i := range params {
		s, g := sq[i], grads[i]
		for j := range s {
			s[j] = float64(o.Decay*s[j]) + float64((1-o.Decay)*g[j]*g[j])
			params[i][j] -= o.LR * g[j] / (math.Sqrt(s[j]) + eps)
		}
	}
	return nil
}

// Reset zeroes the running squared-gradient buffers.
func (o *RMSprop) Reset() { o.sq.reset() }

// Adam combines momentum and RMS scaling with bias correction.
type Adam struct {
	LR       float64
	Beta1    float64 // typically 0.9
	Beta2    float64 // typically 0.999
	Eps      float64 // typically 1e-8
	timestep int

	m, v optState
}

var _ Optimizer = (*Adam)(nil)

// Step applies the Adam update with bias correction.
func (o *Adam) Step(params, grads []tensor.Vector) error {
	if err := checkPairs(params, grads); err != nil {
		return err
	}
	ms, err := o.m.fit(params)
	if err != nil {
		return err
	}
	vs, err := o.v.fit(params)
	if err != nil {
		return err
	}
	eps := o.Eps
	if eps == 0 {
		eps = 1e-8
	}
	o.timestep++
	bc1 := 1 - math.Pow(o.Beta1, float64(o.timestep))
	bc2 := 1 - math.Pow(o.Beta2, float64(o.timestep))
	for i := range params {
		m, v, g := ms[i], vs[i], grads[i]
		for j := range m {
			m[j] = float64(o.Beta1*m[j]) + float64((1-o.Beta1)*g[j])
			v[j] = float64(o.Beta2*v[j]) + float64((1-o.Beta2)*g[j]*g[j])
			mhat := m[j] / bc1
			vhat := v[j] / bc2
			params[i][j] -= o.LR * mhat / (math.Sqrt(vhat) + eps)
		}
	}
	return nil
}

// Reset zeroes the moment buffers and the timestep.
func (o *Adam) Reset() {
	o.m.reset()
	o.v.reset()
	o.timestep = 0
}

// NewOptimizer constructs an optimizer by name with the paper's default
// hyper-parameters (Sec. VII-A: SGDM lr 0.1, momentum 0.9).
func NewOptimizer(name string, lr float64) (Optimizer, error) {
	switch name {
	case "sgd":
		return &SGD{LR: lr}, nil
	case "sgdm":
		return &SGDM{LR: lr, Momentum: 0.9}, nil
	case "rmsprop":
		return &RMSprop{LR: lr, Decay: 0.99, Eps: 1e-8}, nil
	case "adam":
		return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}, nil
	default:
		return nil, fmt.Errorf("nn: unknown optimizer %q", name)
	}
}
