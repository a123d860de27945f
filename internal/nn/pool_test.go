package nn

import (
	"testing"

	"rpol/internal/tensor"
)

func TestMaxPoolForwardKnown(t *testing.T) {
	// 1 channel, 4×4 input, 2×2 windows.
	mp, err := newMaxPool2D(1, 4, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.Vector{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}
	y, err := mp.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	if !y.Equal(tensor.Vector{6, 8, 14, 16}, 0) {
		t.Errorf("pool = %v", y)
	}
	if mp.OutputDim() != 4 || mp.InputDim() != 16 {
		t.Errorf("dims = %d, %d", mp.InputDim(), mp.OutputDim())
	}
}

func TestMaxPoolBackwardRouting(t *testing.T) {
	mp, err := newMaxPool2D(1, 2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.Vector{1, 9, 3, 4} // max at index 1
	if _, err := mp.Forward(x); err != nil {
		t.Fatal(err)
	}
	gin, err := mp.Backward(tensor.Vector{5})
	if err != nil {
		t.Fatal(err)
	}
	if !gin.Equal(tensor.Vector{0, 5, 0, 0}, 0) {
		t.Errorf("grad routing = %v", gin)
	}
}

func TestMaxPoolValidation(t *testing.T) {
	if _, err := newMaxPool2D(0, 4, 4, 2); err == nil {
		t.Error("zero channels accepted")
	}
	if _, err := newMaxPool2D(1, 5, 4, 2); err == nil {
		t.Error("non-dividing window accepted")
	}
	mp, err := newMaxPool2D(1, 4, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mp.Forward(tensor.NewVector(3)); err == nil {
		t.Error("wrong input size accepted")
	}
	if _, err := mp.Backward(tensor.NewVector(4)); err == nil {
		t.Error("backward before forward accepted")
	}
	if _, err := mp.Forward(tensor.NewVector(16)); err != nil {
		t.Fatal(err)
	}
	if _, err := mp.Backward(tensor.NewVector(3)); err == nil {
		t.Error("wrong grad size accepted")
	}
	if mp.Params() != nil || mp.Grads() != nil || mp.Name() != "maxpool2d" {
		t.Error("metadata wrong")
	}
}

func TestMaxPoolGradCheckInNetwork(t *testing.T) {
	rng := tensor.NewRNG(21)
	conv, err := NewConv2D(1, 4, 4, 2, 3, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	mp, err := newMaxPool2D(2, 4, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	net, err := NewNetwork(conv, mp, NewDense(mp.OutputDim(), 3, rng))
	if err != nil {
		t.Fatal(err)
	}
	x := rng.NormalVector(16, 0, 1)
	checkGradients(t, net, x, 1)
}

func TestMaxPoolMultiChannel(t *testing.T) {
	mp, err := newMaxPool2D(2, 2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Channel 0: max 4; channel 1: max 8.
	x := tensor.Vector{1, 2, 3, 4, 8, 7, 6, 5}
	y, err := mp.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	if !y.Equal(tensor.Vector{4, 8}, 0) {
		t.Errorf("multi-channel pool = %v", y)
	}
}
