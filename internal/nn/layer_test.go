package nn

import (
	"errors"
	"math"
	"testing"

	"rpol/internal/tensor"
)

// numericalGrad estimates ∂loss/∂θ for a single parameter via central
// differences, where loss is the cross-entropy of the network on (x, label).
func numericalGrad(t *testing.T, net *Network, x tensor.Vector, label int, p tensor.Vector, idx int) float64 {
	t.Helper()
	const h = 1e-6
	orig := p[idx]
	p[idx] = orig + h
	lp := lossOf(t, net, x, label)
	p[idx] = orig - h
	lm := lossOf(t, net, x, label)
	p[idx] = orig
	return (lp - lm) / (2 * h)
}

func lossOf(t *testing.T, net *Network, x tensor.Vector, label int) float64 {
	t.Helper()
	logits, err := net.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	loss, _, err := SoftmaxCrossEntropy(logits, label)
	if err != nil {
		t.Fatal(err)
	}
	return loss
}

func analyticGrads(t *testing.T, net *Network, x tensor.Vector, label int) []tensor.Vector {
	t.Helper()
	net.ZeroGrads()
	logits, err := net.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	_, grad, err := SoftmaxCrossEntropy(logits, label)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Backward(grad); err != nil {
		t.Fatal(err)
	}
	return net.Grads()
}

func checkGradients(t *testing.T, net *Network, x tensor.Vector, label int) {
	t.Helper()
	grads := analyticGrads(t, net, x, label)
	params := net.Params()
	for pi, p := range params {
		stride := len(p)/7 + 1
		for idx := 0; idx < len(p); idx += stride {
			num := numericalGrad(t, net, x, label, p, idx)
			ana := grads[pi][idx]
			if math.Abs(num-ana) > 1e-4*(1+math.Abs(num)) {
				t.Errorf("param %d[%d]: numerical %v vs analytic %v", pi, idx, num, ana)
			}
		}
	}
}

func TestDenseGradCheck(t *testing.T) {
	rng := tensor.NewRNG(1)
	net, err := NewNetwork(NewDense(6, 5, rng), NewReLU(5), NewDense(5, 3, rng))
	if err != nil {
		t.Fatal(err)
	}
	x := rng.NormalVector(6, 0, 1)
	checkGradients(t, net, x, 2)
}

func TestConvGradCheck(t *testing.T) {
	rng := tensor.NewRNG(2)
	conv, err := NewConv2D(2, 5, 5, 3, 3, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	net, err := NewNetwork(conv, NewReLU(conv.OutputDim()), NewDense(conv.OutputDim(), 4, rng))
	if err != nil {
		t.Fatal(err)
	}
	x := rng.NormalVector(conv.InputDim(), 0, 1)
	checkGradients(t, net, x, 1)
}

func TestResidualGradCheck(t *testing.T) {
	rng := tensor.NewRNG(3)
	inner := NewDense(6, 6, rng)
	res, err := NewResidual(inner)
	if err != nil {
		t.Fatal(err)
	}
	net, err := NewNetwork(res, NewDense(6, 3, rng))
	if err != nil {
		t.Fatal(err)
	}
	x := rng.NormalVector(6, 0, 1)
	checkGradients(t, net, x, 0)
}

func TestResidualRequiresSquare(t *testing.T) {
	rng := tensor.NewRNG(4)
	if _, err := NewResidual(NewDense(4, 5, rng)); !errors.Is(err, ErrNotConnected) {
		t.Errorf("err = %v, want ErrNotConnected", err)
	}
}

func TestResidualIdentitySkip(t *testing.T) {
	rng := tensor.NewRNG(5)
	inner := NewDense(3, 3, rng)
	inner.W.Data.Zero()
	inner.B.Zero()
	res, err := NewResidual(inner)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.Vector{1, 2, 3}
	y, err := res.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	if !y.Equal(x, 0) {
		t.Errorf("zero inner must be identity: %v", y)
	}
}

func TestFrozenDenseExposesNoParams(t *testing.T) {
	rng := tensor.NewRNG(6)
	d := NewDense(4, 4, rng)
	d.Frozen = true
	if d.Params() != nil || d.Grads() != nil {
		t.Error("frozen layer must expose no params")
	}
	// Backward must still propagate gradient without touching param grads.
	x := rng.NormalVector(4, 0, 1)
	if _, err := d.Forward(x); err != nil {
		t.Fatal(err)
	}
	g, err := d.Backward(tensor.Vector{1, 0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(g) != 4 {
		t.Errorf("grad len = %d", len(g))
	}
	if d.GradW.Data.Norm2() != 0 || d.GradB.Norm2() != 0 {
		t.Error("frozen layer accumulated parameter gradients")
	}
}

func TestBackwardBeforeForwardErrors(t *testing.T) {
	rng := tensor.NewRNG(7)
	d := NewDense(3, 3, rng)
	if _, err := d.Backward(tensor.Vector{1, 1, 1}); err == nil {
		t.Error("dense: want error")
	}
	r := NewReLU(3)
	if _, err := r.Backward(tensor.Vector{1, 1, 1}); err == nil {
		t.Error("relu: want error")
	}
	c, err := NewConv2D(1, 3, 3, 1, 3, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Backward(tensor.NewVector(c.OutputDim())); err == nil {
		t.Error("conv: want error")
	}
	// The batch forms refuse a backward before their own forward, even
	// after the per-example form ran.
	for _, l := range convNet(t, 7).Layers {
		if _, err := l.Forward(tensor.NewVector(l.InputDim())); err != nil {
			t.Fatal(err)
		}
		if _, err := l.BackwardBatch(nil, tensor.NewMatrix(2, l.OutputDim())); err == nil {
			t.Errorf("%s: batch backward before batch forward: want error", l.Name())
		}
	}
}

func TestReLUForward(t *testing.T) {
	r := NewReLU(4)
	y, err := r.Forward(tensor.Vector{-1, 0, 2, -3})
	if err != nil {
		t.Fatal(err)
	}
	if !y.Equal(tensor.Vector{0, 0, 2, 0}, 0) {
		t.Errorf("ReLU = %v", y)
	}
	if _, err := r.Forward(tensor.Vector{1}); err == nil {
		t.Error("want shape error")
	}
}

func TestConvGeometryValidation(t *testing.T) {
	rng := tensor.NewRNG(8)
	if _, err := NewConv2D(0, 3, 3, 1, 3, 1, rng); err == nil {
		t.Error("want error for zero channels")
	}
	if _, err := NewConv2D(1, 2, 2, 1, 5, 0, rng); err == nil {
		t.Error("want error for kernel larger than input")
	}
	if _, err := NewConv2D(1, 3, 3, 1, 3, -1, rng); err == nil {
		t.Error("want error for negative padding")
	}
}

func TestConvOutputDims(t *testing.T) {
	rng := tensor.NewRNG(9)
	// Same-padding 3x3 conv on 8x8: output spatial dims preserved.
	c, err := NewConv2D(3, 8, 8, 16, 3, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	if c.OutputDim() != 16*8*8 {
		t.Errorf("OutputDim = %d, want %d", c.OutputDim(), 16*8*8)
	}
	// Valid (pad 0) conv shrinks by K-1.
	v, err := NewConv2D(1, 8, 8, 2, 3, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	if v.OutputDim() != 2*6*6 {
		t.Errorf("valid OutputDim = %d, want %d", v.OutputDim(), 2*6*6)
	}
}

func TestConvKnownValue(t *testing.T) {
	rng := tensor.NewRNG(10)
	c, err := NewConv2D(1, 3, 3, 1, 3, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Identity-ish kernel: only center weight 1.
	c.W.Zero()
	c.W[4] = 1 // center of 3x3
	c.B[0] = 0.5
	x := tensor.Vector{1, 2, 3, 4, 5, 6, 7, 8, 9}
	y, err := c.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	if len(y) != 1 {
		t.Fatalf("out len %d", len(y))
	}
	if y[0] != 5.5 { // center pixel + bias
		t.Errorf("conv out = %v, want 5.5", y[0])
	}
}

func TestSpectralNormalize(t *testing.T) {
	rng := tensor.NewRNG(11)
	m := rng.XavierMatrix(12, 12)
	m.Data.Scale(10) // make σ large
	SpectralNormalize(m, 0.5, 60)
	got := m.SpectralNorm(60)
	if got > 0.5+1e-6 {
		t.Errorf("σ after normalize = %v, want ≤ 0.5", got)
	}
	// A matrix already below the bound must be untouched.
	small := rng.XavierMatrix(4, 4)
	small.Data.Scale(1e-3)
	before := small.Data.Clone()
	SpectralNormalize(small, 0.5, 60)
	if !small.Data.Equal(before, 0) {
		t.Error("matrix below bound must not be rescaled")
	}
}
