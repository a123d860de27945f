package nn

import (
	"errors"
	"math"
	"testing"

	"rpol/internal/dataset"
	"rpol/internal/tensor"
)

func tinyNet(t *testing.T, seed int64) *Network {
	t.Helper()
	rng := tensor.NewRNG(seed)
	net, err := NewNetwork(
		NewDense(8, 16, rng),
		NewReLU(16),
		NewDense(16, 4, rng),
	)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestNewNetworkValidation(t *testing.T) {
	rng := tensor.NewRNG(1)
	if _, err := NewNetwork(); err == nil {
		t.Error("want error for empty network")
	}
	if _, err := NewNetwork(NewDense(4, 8, rng), NewDense(9, 2, rng)); !errors.Is(err, ErrNotConnected) {
		t.Errorf("err = %v, want ErrNotConnected", err)
	}
}

func TestParamVectorRoundTrip(t *testing.T) {
	net := tinyNet(t, 2)
	v := net.ParamVector()
	if len(v) != net.NumParams() {
		t.Fatalf("vector %d vs NumParams %d", len(v), net.NumParams())
	}
	v2 := v.Clone()
	v2.Scale(2)
	if err := net.SetParamVector(v2); err != nil {
		t.Fatal(err)
	}
	got := net.ParamVector()
	if !got.Equal(v2, 0) {
		t.Error("SetParamVector did not round-trip")
	}
	if err := net.SetParamVector(tensor.NewVector(3)); !errors.Is(err, tensor.ErrShapeMismatch) {
		t.Errorf("err = %v, want shape mismatch", err)
	}
}

func TestTrainingReducesLoss(t *testing.T) {
	ds, err := dataset.Generate(dataset.Config{
		Name: "t", NumClasses: 4, Dim: 8, Size: 240, ClusterStd: 0.3, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	net := tinyNet(t, 3)
	opt := &SGDM{LR: 0.05, Momentum: 0.9}

	xs := make([]tensor.Vector, ds.Len())
	labels := make([]int, ds.Len())
	for i, ex := range ds.Examples {
		xs[i] = ex.Features
		labels[i] = ex.Label
	}

	first, err := net.TrainBatch(xs[:32], labels[:32], opt)
	if err != nil {
		t.Fatal(err)
	}
	var last float64
	for epoch := 0; epoch < 30; epoch++ {
		for i := 0; i+32 <= len(xs); i += 32 {
			last, err = net.TrainBatch(xs[i:i+32], labels[i:i+32], opt)
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	if last >= first {
		t.Errorf("loss did not decrease: first %v, last %v", first, last)
	}
	acc, err := net.Accuracy(xs, labels)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.6 {
		t.Errorf("training accuracy %v too low for separable clusters", acc)
	}
}

func TestTrainBatchDeterministic(t *testing.T) {
	run := func() tensor.Vector {
		net := tinyNet(t, 7)
		opt := &SGDM{LR: 0.1, Momentum: 0.9}
		rng := tensor.NewRNG(11)
		xs := []tensor.Vector{rng.NormalVector(8, 0, 1), rng.NormalVector(8, 0, 1)}
		labels := []int{1, 3}
		for i := 0; i < 5; i++ {
			if _, err := net.TrainBatch(xs, labels, opt); err != nil {
				t.Fatal(err)
			}
		}
		return net.ParamVector()
	}
	a, b := run(), run()
	if !a.Equal(b, 0) {
		t.Error("training must be bit-reproducible for identical inputs")
	}
}

func TestTrainBatchValidation(t *testing.T) {
	net := tinyNet(t, 8)
	opt := &SGD{LR: 0.1}
	if _, err := net.TrainBatch(nil, nil, opt); err == nil {
		t.Error("want error for empty batch")
	}
	rng := tensor.NewRNG(1)
	if _, err := net.TrainBatch([]tensor.Vector{rng.NormalVector(8, 0, 1)}, []int{0, 1}, opt); err == nil {
		t.Error("want error for mismatched labels")
	}
}

func TestAccuracyValidation(t *testing.T) {
	net := tinyNet(t, 9)
	if _, err := net.Accuracy(nil, nil); err == nil {
		t.Error("want error for empty eval set")
	}
}

func TestSoftmaxCrossEntropy(t *testing.T) {
	logits := tensor.Vector{1, 2, 3}
	loss, grad, err := SoftmaxCrossEntropy(logits, 2)
	if err != nil {
		t.Fatal(err)
	}
	probs := softmax(logits)
	if math.Abs(loss+math.Log(probs[2])) > 1e-9 {
		t.Errorf("loss = %v, want %v", loss, -math.Log(probs[2]))
	}
	// Gradient sums to zero: softmax probs sum to 1, minus one-hot.
	if math.Abs(grad.Sum()) > 1e-9 {
		t.Errorf("grad sum = %v", grad.Sum())
	}
	if _, _, err := SoftmaxCrossEntropy(logits, 5); !errors.Is(err, ErrBadLabel) {
		t.Errorf("err = %v, want ErrBadLabel", err)
	}
	if _, _, err := SoftmaxCrossEntropy(logits, -1); !errors.Is(err, ErrBadLabel) {
		t.Errorf("err = %v, want ErrBadLabel", err)
	}
}

func TestSoftmaxStability(t *testing.T) {
	probs := softmax(tensor.Vector{1000, 1001, 1002})
	if !probs.IsFinite() {
		t.Fatal("softmax overflowed")
	}
	if math.Abs(probs.Sum()-1) > 1e-9 {
		t.Errorf("softmax sum = %v", probs.Sum())
	}
	if softmax(nil) != nil {
		t.Error("softmax of empty must be nil")
	}
}

func TestArgmax(t *testing.T) {
	if got := Argmax(tensor.Vector{1, 5, 3}); got != 1 {
		t.Errorf("Argmax = %d, want 1", got)
	}
	if got := Argmax(nil); got != -1 {
		t.Errorf("Argmax(nil) = %d, want -1", got)
	}
	if got := Argmax(tensor.Vector{7}); got != 0 {
		t.Errorf("Argmax single = %d, want 0", got)
	}
}

func TestFrozenLayerNotInParamVector(t *testing.T) {
	rng := tensor.NewRNG(12)
	frozen := NewDense(8, 8, rng)
	frozen.Frozen = true
	res, err := NewResidual(frozen)
	if err != nil {
		t.Fatal(err)
	}
	net, err := NewNetwork(res, NewDense(8, 2, rng))
	if err != nil {
		t.Fatal(err)
	}
	want := 8*2 + 2 // only the trailing dense layer
	if net.NumParams() != want {
		t.Errorf("NumParams = %d, want %d", net.NumParams(), want)
	}
}
