package amlayer

import (
	"errors"
	"testing"

	"rpol/internal/nn"
	"rpol/internal/tensor"
)

func TestNewDenseDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	a, err := NewDense("addr-1", 16, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewDense("addr-1", 16, cfg)
	if err != nil {
		t.Fatal(err)
	}
	da := a.Inner.(*nn.Dense)
	db := b.Inner.(*nn.Dense)
	if !da.W.Data.Equal(db.W.Data, 0) || !da.B.Equal(db.B, 0) {
		t.Error("same address must generate identical AMLayers")
	}
	c, err := NewDense("addr-2", 16, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dc := c.Inner.(*nn.Dense)
	if da.W.Data.Equal(dc.W.Data, 0) {
		t.Error("different addresses must generate different AMLayers")
	}
}

func TestConfigValidation(t *testing.T) {
	for _, c := range []float64{0, 1, -0.5, 1.5} {
		if _, err := NewDense("a", 4, Config{ScalingC: c}); !errors.Is(err, ErrBadConfig) {
			t.Errorf("c=%v: err = %v", c, err)
		}
	}
	if _, err := NewDense("a", 0, DefaultConfig()); err == nil {
		t.Error("want error for zero dim")
	}
}

func TestLipschitzBound(t *testing.T) {
	cfg := DefaultConfig()
	layer, err := NewDense("addr", 32, cfg)
	if err != nil {
		t.Fatal(err)
	}
	inner := layer.Inner.(*nn.Dense)
	// Power iteration estimates σ from below, so allow the estimation slack
	// inherent to Eq. (4).
	sigma := inner.W.SpectralNorm(400)
	if sigma > cfg.ScalingC*(1+1e-4) {
		t.Errorf("inner spectral norm %v exceeds c = %v", sigma, cfg.ScalingC)
	}
	// Empirical Lipschitz check of Eq. (3) on random pairs.
	rng := tensor.NewRNG(5)
	for trial := 0; trial < 20; trial++ {
		x1 := rng.NormalVector(32, 0, 1)
		x2 := rng.NormalVector(32, 0, 1)
		y1, err := inner.Forward(x1)
		if err != nil {
			t.Fatal(err)
		}
		y2, err := inner.Forward(x2)
		if err != nil {
			t.Fatal(err)
		}
		dy, err := tensor.Distance(y1, y2)
		if err != nil {
			t.Fatal(err)
		}
		dx, err := tensor.Distance(x1, x2)
		if err != nil {
			t.Fatal(err)
		}
		if dy > cfg.ScalingC*dx*(1+1e-4)+1e-9 {
			t.Errorf("Lipschitz violated: ‖f(x1)-f(x2)‖ = %v > c‖x1-x2‖ = %v", dy, cfg.ScalingC*dx)
		}
	}
}

func TestInvertibility(t *testing.T) {
	layer, err := NewDense("addr", 24, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(9)
	x := rng.NormalVector(24, 0, 1)
	y, err := layer.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	back, err := invert(layer, y, 200)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(x, 1e-9) {
		d, _ := tensor.Distance(back, x)
		t.Errorf("inversion error %v; AMLayer must be a 1-1 mapping", d)
	}
}

func TestVerifyDense(t *testing.T) {
	cfg := DefaultConfig()
	layer, err := NewDense("manager-addr", 16, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(2)
	base, err := nn.NewNetwork(nn.NewDense(16, 4, rng))
	if err != nil {
		t.Fatal(err)
	}
	net, err := Prepend(layer, base)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyDense(net, "manager-addr", cfg); err != nil {
		t.Errorf("genuine address rejected: %v", err)
	}
	if err := VerifyDense(net, "thief-addr", cfg); !errors.Is(err, ErrMismatch) {
		t.Errorf("wrong address: err = %v", err)
	}
}

func TestVerifyDenseStructuralErrors(t *testing.T) {
	cfg := DefaultConfig()
	rng := tensor.NewRNG(3)
	plain, err := nn.NewNetwork(nn.NewDense(8, 2, rng))
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyDense(plain, "a", cfg); !errors.Is(err, ErrNotFound) {
		t.Errorf("network without AMLayer: err = %v", err)
	}
	if err := VerifyDense(&nn.Network{}, "a", cfg); !errors.Is(err, ErrNotFound) {
		t.Errorf("empty network: err = %v", err)
	}
}

func TestReplaceDenseAttack(t *testing.T) {
	cfg := DefaultConfig()
	layer, err := NewDense("victim", 16, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(4)
	base, err := nn.NewNetwork(nn.NewDense(16, 4, rng))
	if err != nil {
		t.Fatal(err)
	}
	net, err := Prepend(layer, base)
	if err != nil {
		t.Fatal(err)
	}
	if err := replaceDense(net, "attacker", cfg); err != nil {
		t.Fatal(err)
	}
	// After replacement, verification binds the attacker's address...
	if err := VerifyDense(net, "attacker", cfg); err != nil {
		t.Errorf("attacker address should verify post-replacement: %v", err)
	}
	// ...but no longer the victim's.
	if err := VerifyDense(net, "victim", cfg); !errors.Is(err, ErrMismatch) {
		t.Errorf("victim address: err = %v", err)
	}
}

func TestReplaceDenseOnPlainNetwork(t *testing.T) {
	rng := tensor.NewRNG(6)
	plain, err := nn.NewNetwork(nn.NewDense(8, 2, rng))
	if err != nil {
		t.Fatal(err)
	}
	if err := replaceDense(plain, "x", DefaultConfig()); !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v", err)
	}
}

func TestAMLayerIsFrozen(t *testing.T) {
	layer, err := NewDense("addr", 8, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if layer.Params() != nil {
		t.Error("AMLayer must expose no trainable parameters")
	}
	rng := tensor.NewRNG(7)
	base, err := nn.NewNetwork(nn.NewDense(8, 2, rng))
	if err != nil {
		t.Fatal(err)
	}
	net, err := Prepend(layer, base)
	if err != nil {
		t.Fatal(err)
	}
	if net.NumParams() != 8*2+2 {
		t.Errorf("NumParams = %d; AMLayer weights leaked into trainables", net.NumParams())
	}
}

func TestNewConvAMLayer(t *testing.T) {
	cfg := DefaultConfig()
	layer, err := newConv("addr", 3, 8, 8, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if layer.InputDim() != 3*8*8 || layer.OutputDim() != 3*8*8 {
		t.Errorf("conv AMLayer dims %d→%d", layer.InputDim(), layer.OutputDim())
	}
	if layer.Params() != nil {
		t.Error("conv AMLayer must be frozen")
	}
	// Determinism.
	layer2, err := newConv("addr", 3, 8, 8, cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := layer.Inner.(*nn.Conv2D)
	b := layer2.Inner.(*nn.Conv2D)
	if !a.W.Equal(b.W, 0) {
		t.Error("conv AMLayer must be deterministic in the address")
	}
	if _, err := newConv("addr", 3, 8, 8, Config{ScalingC: 2}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("err = %v", err)
	}
}

func TestTrainingPreservesAMLayer(t *testing.T) {
	// After training steps, the AMLayer weights must be unchanged (it is
	// non-trainable) so address verification still passes.
	cfg := DefaultConfig()
	layer, err := NewDense("owner", 8, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(8)
	base, err := nn.NewNetwork(nn.NewDense(8, 8, rng), nn.NewReLU(8), nn.NewDense(8, 3, rng))
	if err != nil {
		t.Fatal(err)
	}
	net, err := Prepend(layer, base)
	if err != nil {
		t.Fatal(err)
	}
	opt := &nn.SGDM{LR: 0.1, Momentum: 0.9}
	xs := []tensor.Vector{rng.NormalVector(8, 0, 1), rng.NormalVector(8, 0, 1)}
	labels := []int{0, 2}
	for i := 0; i < 20; i++ {
		if _, err := net.TrainBatch(xs, labels, opt); err != nil {
			t.Fatal(err)
		}
	}
	if err := VerifyDense(net, "owner", cfg); err != nil {
		t.Errorf("AMLayer mutated by training: %v", err)
	}
}

func TestDenseStackDeterministicAndDistinct(t *testing.T) {
	cfg := StackConfig()
	a, err := NewDenseStack("addr", 12, DefaultStackDepth, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != DefaultStackDepth {
		t.Fatalf("depth = %d", len(a))
	}
	b, err := NewDenseStack("addr", 12, DefaultStackDepth, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		da := a[i].Inner.(*nn.Dense)
		db := b[i].Inner.(*nn.Dense)
		if !da.W.Data.Equal(db.W.Data, 0) {
			t.Errorf("block %d not deterministic", i)
		}
	}
	// Blocks within a stack must differ from each other (distinct seeds).
	d0 := a[0].Inner.(*nn.Dense)
	d1 := a[1].Inner.(*nn.Dense)
	if d0.W.Data.Equal(d1.W.Data, 0) {
		t.Error("stack blocks identical")
	}
}

func TestDenseStackValidation(t *testing.T) {
	if _, err := NewDenseStack("a", 0, 2, DefaultConfig()); err == nil {
		t.Error("zero dim accepted")
	}
	if _, err := NewDenseStack("a", 4, 0, DefaultConfig()); err == nil {
		t.Error("zero depth accepted")
	}
	if _, err := NewDenseStack("a", 4, 2, Config{ScalingC: 2}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("err = %v", err)
	}
}

func TestVerifyAndReplaceDenseStack(t *testing.T) {
	cfg := DefaultConfig()
	stack, err := NewDenseStack("owner", 10, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(14)
	base, err := nn.NewNetwork(nn.NewDense(10, 3, rng))
	if err != nil {
		t.Fatal(err)
	}
	net, err := PrependStack(stack, base)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyDenseStack(net, "owner", 3, cfg); err != nil {
		t.Errorf("genuine stack rejected: %v", err)
	}
	if err := VerifyDenseStack(net, "thief", 3, cfg); !errors.Is(err, ErrMismatch) {
		t.Errorf("thief address: err = %v", err)
	}
	// Asking for a deeper stack than present must fail structurally.
	if err := VerifyDenseStack(net, "owner", 4, cfg); !errors.Is(err, ErrNotFound) {
		t.Errorf("over-deep verify: err = %v", err)
	}
	// Replacing rebinds all blocks to the attacker.
	if err := ReplaceDenseStack(net, "attacker", cfg); err != nil {
		t.Fatal(err)
	}
	if err := VerifyDenseStack(net, "attacker", 3, cfg); err != nil {
		t.Errorf("attacker stack rejected post-replacement: %v", err)
	}
	if err := VerifyDenseStack(net, "owner", 3, cfg); !errors.Is(err, ErrMismatch) {
		t.Errorf("owner still verifies: %v", err)
	}
}

func TestStackFunctionsOnPlainNetwork(t *testing.T) {
	rng := tensor.NewRNG(15)
	plain, err := nn.NewNetwork(nn.NewDense(6, 2, rng))
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyDenseStack(plain, "a", 1, DefaultConfig()); !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v", err)
	}
	if err := ReplaceDenseStack(plain, "a", DefaultConfig()); !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v", err)
	}
	if err := ReplaceDenseStack(plain, "a", Config{ScalingC: 2}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("err = %v", err)
	}
}

func TestStackInvertible(t *testing.T) {
	// Even the strong theft-resistant stack is a 1-1 mapping: inverting
	// block by block recovers the input.
	cfg := StackConfig()
	stack, err := NewDenseStack("owner", 8, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(16)
	x := rng.NormalVector(8, 0, 1)
	y := x.Clone()
	for _, block := range stack {
		out, err := block.Forward(y)
		if err != nil {
			t.Fatal(err)
		}
		y = out
	}
	for i := len(stack) - 1; i >= 0; i-- {
		back, err := invert(stack[i], y, 500)
		if err != nil {
			t.Fatal(err)
		}
		y = back
	}
	if !y.Equal(x, 1e-6) {
		d, _ := tensor.Distance(y, x)
		t.Errorf("stack inversion error %v", d)
	}
}
