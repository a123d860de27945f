package nn

import (
	"math"
	"testing"

	"rpol/internal/tensor"
)

func TestLayerNormForwardNormalizes(t *testing.T) {
	ln, err := newLayerNorm(4)
	if err != nil {
		t.Fatal(err)
	}
	y, err := ln.Forward(tensor.Vector{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	// With γ=1, b=0 the output has (near-)zero mean and unit variance.
	if math.Abs(y.Sum()) > 1e-9 {
		t.Errorf("output mean = %v", y.Sum()/4)
	}
	var variance float64
	for _, v := range y {
		variance += v * v
	}
	variance /= 4
	if math.Abs(variance-1) > 1e-3 {
		t.Errorf("output variance = %v", variance)
	}
}

func TestLayerNormAffine(t *testing.T) {
	ln, err := newLayerNorm(3)
	if err != nil {
		t.Fatal(err)
	}
	ln.Gamma.Fill(2)
	ln.Beta.Fill(5)
	y, err := ln.Forward(tensor.Vector{-1, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	// Symmetric input: norm = x/std; y = 2·norm + 5, so mean is exactly 5.
	if math.Abs(y.Sum()/3-5) > 1e-9 {
		t.Errorf("affine mean = %v, want 5", y.Sum()/3)
	}
}

func TestLayerNormGradCheck(t *testing.T) {
	rng := tensor.NewRNG(31)
	ln, err := newLayerNorm(6)
	if err != nil {
		t.Fatal(err)
	}
	net, err := NewNetwork(NewDense(5, 6, rng), ln, NewReLU(6), NewDense(6, 3, rng))
	if err != nil {
		t.Fatal(err)
	}
	x := rng.NormalVector(5, 0, 1)
	checkGradients(t, net, x, 2)
}

func TestLayerNormValidation(t *testing.T) {
	if _, err := newLayerNorm(1); err == nil {
		t.Error("dim 1 accepted")
	}
	ln, err := newLayerNorm(3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ln.Forward(tensor.NewVector(2)); err == nil {
		t.Error("wrong input size accepted")
	}
	if _, err := ln.Backward(tensor.NewVector(3)); err == nil {
		t.Error("backward before forward accepted")
	}
	if _, err := ln.Forward(tensor.NewVector(3)); err != nil {
		t.Fatal(err)
	}
	if _, err := ln.Backward(tensor.NewVector(2)); err == nil {
		t.Error("wrong grad size accepted")
	}
	if ln.Name() != "layernorm" || ln.InputDim() != 3 || ln.OutputDim() != 3 {
		t.Error("metadata wrong")
	}
}

func TestLayerNormFrozen(t *testing.T) {
	ln, err := newLayerNorm(4)
	if err != nil {
		t.Fatal(err)
	}
	ln.Frozen = true
	if ln.Params() != nil || ln.Grads() != nil {
		t.Error("frozen layernorm exposes params")
	}
	if _, err := ln.Forward(tensor.Vector{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := ln.Backward(tensor.Vector{1, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	if ln.GradGamma.Norm2() != 0 || ln.GradBeta.Norm2() != 0 {
		t.Error("frozen layernorm accumulated gradients")
	}
}

func TestLayerNormTrainsInNetwork(t *testing.T) {
	rng := tensor.NewRNG(32)
	ln, err := newLayerNorm(8)
	if err != nil {
		t.Fatal(err)
	}
	net, err := NewNetwork(NewDense(4, 8, rng), ln, NewReLU(8), NewDense(8, 2, rng))
	if err != nil {
		t.Fatal(err)
	}
	opt := &SGDM{LR: 0.05, Momentum: 0.9}
	xs := []tensor.Vector{rng.NormalVector(4, 0, 1), rng.NormalVector(4, 3, 1)}
	labels := []int{0, 1}
	first, err := net.TrainBatch(xs, labels, opt)
	if err != nil {
		t.Fatal(err)
	}
	var last float64
	for i := 0; i < 60; i++ {
		last, err = net.TrainBatch(xs, labels, opt)
		if err != nil {
			t.Fatal(err)
		}
	}
	if last >= first {
		t.Errorf("loss did not decrease through layernorm: %v → %v", first, last)
	}
}
