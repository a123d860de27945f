package nn

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"rpol/internal/tensor"
)

func quadParams() ([]tensor.Vector, []tensor.Vector) {
	// One parameter tensor θ=[4, -3]; loss = ½‖θ‖², grad = θ.
	p := []tensor.Vector{{4, -3}}
	g := []tensor.Vector{p[0].Clone()}
	return p, g
}

func runQuadratic(t *testing.T, opt Optimizer, steps int) float64 {
	t.Helper()
	p, _ := quadParams()
	for i := 0; i < steps; i++ {
		g := []tensor.Vector{p[0].Clone()} // grad of ½‖θ‖² is θ
		if err := opt.Step(p, g); err != nil {
			t.Fatal(err)
		}
	}
	return p[0].Norm2()
}

func TestOptimizersConvergeOnQuadratic(t *testing.T) {
	cases := []struct {
		name string
		opt  Optimizer
	}{
		{"sgd", &SGD{LR: 0.1}},
		{"sgdm", &SGDM{LR: 0.05, Momentum: 0.9}},
		{"rmsprop", &RMSprop{LR: 0.05, Decay: 0.99}},
		{"adam", &Adam{LR: 0.2, Beta1: 0.9, Beta2: 0.999}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			start := (tensor.Vector{4, -3}).Norm2()
			final := runQuadratic(t, c.opt, 200)
			if final >= start/10 {
				t.Errorf("%s: ‖θ‖ %v → %v, insufficient convergence", c.name, start, final)
			}
		})
	}
}

func TestSGDExactStep(t *testing.T) {
	opt := &SGD{LR: 0.5}
	p := []tensor.Vector{{2, 2}}
	g := []tensor.Vector{{1, -1}}
	if err := opt.Step(p, g); err != nil {
		t.Fatal(err)
	}
	if !p[0].Equal(tensor.Vector{1.5, 2.5}, 1e-12) {
		t.Errorf("SGD step = %v", p[0])
	}
}

func TestSGDMMomentumAccumulates(t *testing.T) {
	opt := &SGDM{LR: 1, Momentum: 0.5}
	p := []tensor.Vector{{0}}
	g := []tensor.Vector{{1}}
	// Step 1: v=1, θ=-1. Step 2 (same grad): v=1.5, θ=-2.5.
	if err := opt.Step(p, g); err != nil {
		t.Fatal(err)
	}
	if err := opt.Step(p, []tensor.Vector{{1}}); err != nil {
		t.Fatal(err)
	}
	if math.Abs(p[0][0]+2.5) > 1e-12 {
		t.Errorf("θ = %v, want -2.5", p[0][0])
	}
}

func TestOptimizerShapeErrors(t *testing.T) {
	for _, opt := range []Optimizer{&SGD{LR: 0.1}, &SGDM{LR: 0.1}, &RMSprop{LR: 0.1, Decay: 0.9}, &Adam{LR: 0.1, Beta1: 0.9, Beta2: 0.99}} {
		if err := opt.Step([]tensor.Vector{{1}}, nil); !errors.Is(err, ErrStateMismatch) {
			t.Errorf("%T: err = %v, want ErrStateMismatch", opt, err)
		}
		if err := opt.Step([]tensor.Vector{{1, 2}}, []tensor.Vector{{1}}); !errors.Is(err, ErrStateMismatch) {
			t.Errorf("%T: err = %v, want ErrStateMismatch", opt, err)
		}
	}
}

// statefulOptimizers returns one fresh instance of every optimizer that keeps
// per-tensor state.
func statefulOptimizers(t *testing.T) []Optimizer {
	t.Helper()
	var opts []Optimizer
	for _, name := range []string{"sgdm", "rmsprop", "adam"} {
		opt, err := NewOptimizer(name, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		opts = append(opts, opt)
	}
	return opts
}

func TestStatefulOptimizerLayoutChange(t *testing.T) {
	for _, opt := range statefulOptimizers(t) {
		if err := opt.Step([]tensor.Vector{{1, 2}}, []tensor.Vector{{1, 1}}); err != nil {
			t.Fatal(err)
		}
		// Different tensor count after state init must error, not corrupt.
		err := opt.Step([]tensor.Vector{{1, 2}, {3}}, []tensor.Vector{{1, 1}, {1}})
		if !errors.Is(err, ErrStateMismatch) {
			t.Errorf("%T: err = %v, want ErrStateMismatch", opt, err)
		}
		// Same count but different size must error too.
		err = opt.Step([]tensor.Vector{{1, 2, 3}}, []tensor.Vector{{1, 1, 1}})
		if !errors.Is(err, ErrStateMismatch) {
			t.Errorf("%T: err = %v, want ErrStateMismatch", opt, err)
		}
		// The original layout still steps: a refused Step leaves the state alone.
		if err := opt.Step([]tensor.Vector{{1, 2}}, []tensor.Vector{{1, 1}}); err != nil {
			t.Errorf("%T: original layout after refused steps: %v", opt, err)
		}
	}
}

func TestResetClearsState(t *testing.T) {
	for _, opt := range statefulOptimizers(t) {
		p := []tensor.Vector{{0}}
		if err := opt.Step(p, []tensor.Vector{{1}}); err != nil {
			t.Fatal(err)
		}
		opt.Reset()
		// After reset, state layout may change freely...
		if err := opt.Step([]tensor.Vector{{0, 0}}, []tensor.Vector{{1, 1}}); err != nil {
			t.Errorf("%T: step after reset: %v", opt, err)
		}
		// ...once: the first Step after a Reset pins the new layout.
		if err := opt.Step(p, []tensor.Vector{{1}}); !errors.Is(err, ErrStateMismatch) {
			t.Errorf("%T: layout change without reset: err = %v, want ErrStateMismatch", opt, err)
		}
	}
}

// TestResetInPlaceMatchesFreshOptimizer drives two intervals through one
// optimizer reset in place between them and through two fresh NewOptimizer
// instances: the parameters must agree bit for bit, or a checkpoint interval
// would stop being a pure function of its starting weights.
func TestResetInPlaceMatchesFreshOptimizer(t *testing.T) {
	interval := func(opt Optimizer, p []tensor.Vector, seed int64) {
		rng := tensor.NewRNG(seed)
		for step := 0; step < 7; step++ {
			g := []tensor.Vector{rng.NormalVector(len(p[0]), 0, 1), rng.NormalVector(len(p[1]), 0, 1)}
			if err := opt.Step(p, g); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, name := range []string{"sgd", "sgdm", "rmsprop", "adam"} {
		reused, err := NewOptimizer(name, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		got := []tensor.Vector{{1, -2, 3}, {0.5, 4}}
		want := []tensor.Vector{got[0].Clone(), got[1].Clone()}
		for i := int64(0); i < 2; i++ {
			reused.Reset()
			interval(reused, got, 40+i)
			fresh, err := NewOptimizer(name, 0.05)
			if err != nil {
				t.Fatal(err)
			}
			interval(fresh, want, 40+i)
		}
		for i := range got {
			if !got[i].Equal(want[i], 0) {
				t.Errorf("%s: tensor %d after reset-in-place %v, fresh optimizers %v", name, i, got[i], want[i])
			}
		}
	}
}

func TestAdamBiasCorrectionFirstStep(t *testing.T) {
	opt := &Adam{LR: 0.1, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
	p := []tensor.Vector{{0}}
	if err := opt.Step(p, []tensor.Vector{{1}}); err != nil {
		t.Fatal(err)
	}
	// With bias correction the first step is ≈ -lr regardless of betas.
	if math.Abs(p[0][0]+0.1) > 1e-6 {
		t.Errorf("first Adam step = %v, want ≈ -0.1", p[0][0])
	}
}

func TestNewOptimizer(t *testing.T) {
	for _, name := range []string{"sgd", "sgdm", "rmsprop", "adam"} {
		opt, err := NewOptimizer(name, 0.1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := map[string]Optimizer{"sgd": &SGD{}, "sgdm": &SGDM{}, "rmsprop": &RMSprop{}, "adam": &Adam{}}[name]
		if reflect.TypeOf(opt) != reflect.TypeOf(want) {
			t.Errorf("NewOptimizer(%q) = %T, want %T", name, opt, want)
		}
	}
	if _, err := NewOptimizer("adagrad", 0.1); err == nil {
		t.Error("want error for unknown optimizer")
	}
}

func TestOptimizersProduceDistinctTrajectories(t *testing.T) {
	// Different optimizers must lead to different weights after the same
	// steps — the paper observes reproduction errors differ by optimizer
	// (Sec. VII-C), which requires distinct dynamics.
	trajectory := func(opt Optimizer) tensor.Vector {
		p := []tensor.Vector{{1, -2, 3}}
		for i := 0; i < 10; i++ {
			g := []tensor.Vector{p[0].Clone()}
			if err := opt.Step(p, g); err != nil {
				t.Fatal(err)
			}
		}
		return p[0]
	}
	sgd := trajectory(&SGD{LR: 0.1})
	sgdm := trajectory(&SGDM{LR: 0.1, Momentum: 0.9})
	adam := trajectory(&Adam{LR: 0.1, Beta1: 0.9, Beta2: 0.999})
	if sgd.Equal(sgdm, 1e-12) || sgd.Equal(adam, 1e-12) || sgdm.Equal(adam, 1e-12) {
		t.Error("optimizers should produce distinct trajectories")
	}
}
