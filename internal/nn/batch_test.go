package nn

import (
	"math"
	"testing"

	"rpol/internal/parallel"
	"rpol/internal/tensor"
)

// convNet builds a small conv→pool→dense stack covering every layer kind.
func convNet(t *testing.T, seed int64) *Network {
	t.Helper()
	rng := tensor.NewRNG(seed)
	conv, err := NewConv2D(1, 8, 8, 2, 3, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	mp, err := NewMaxPool2D(2, 8, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := NewLayerNorm(2 * 4 * 4)
	if err != nil {
		t.Fatal(err)
	}
	inner := NewDense(2*4*4, 2*4*4, rng)
	res, err := NewResidual(inner)
	if err != nil {
		t.Fatal(err)
	}
	net, err := NewNetwork(conv, NewReLU(conv.OutputDim()), mp, ln, res, NewDense(2*4*4, 3, rng))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func batchData(n, dim int, seed int64) ([]tensor.Vector, []int) {
	rng := tensor.NewRNG(seed)
	xs := make([]tensor.Vector, n)
	labels := make([]int, n)
	for i := range xs {
		xs[i] = rng.NormalVector(dim, 0, 1)
		labels[i] = rng.Intn(3)
	}
	return xs, labels
}

// TestBatchTrainerDeterministicAcrossWorkers is the nn-level half of the
// repo's parallel-determinism guarantee: identical initial weights and data
// must yield bit-identical parameters and losses at every worker count.
func TestBatchTrainerDeterministicAcrossWorkers(t *testing.T) {
	xs, labels := batchData(13, 64, 7)
	var refParams tensor.Vector
	var refLoss float64
	for _, workers := range []int{1, 2, 8} {
		net := convNet(t, 42)
		bt, err := NewBatchTrainer(net, parallel.New(workers))
		if err != nil {
			t.Fatal(err)
		}
		opt := &SGDM{LR: 0.05, Momentum: 0.9}
		var loss float64
		for step := 0; step < 4; step++ {
			loss, err = bt.TrainBatch(xs, labels, opt)
			if err != nil {
				t.Fatal(err)
			}
		}
		params := net.ParamVector()
		if workers == 1 {
			refParams, refLoss = params, loss
			continue
		}
		if math.Float64bits(loss) != math.Float64bits(refLoss) {
			t.Errorf("workers=%d: loss %x vs %x", workers, math.Float64bits(loss), math.Float64bits(refLoss))
		}
		for i := range params {
			if math.Float64bits(params[i]) != math.Float64bits(refParams[i]) {
				t.Fatalf("workers=%d: param %d bits %x vs %x",
					workers, i, math.Float64bits(params[i]), math.Float64bits(refParams[i]))
			}
		}
	}
}

// TestBatchTrainerMatchesSerialDense: for stacks whose layers accumulate one
// gradient term per parameter per example (everything except Conv2D), the
// chunked trainer reproduces the plain serial TrainBatch bit for bit.
func TestBatchTrainerMatchesSerialDense(t *testing.T) {
	build := func() *Network {
		rng := tensor.NewRNG(3)
		net, err := NewNetwork(
			NewDense(20, 16, rng), NewReLU(16), NewDense(16, 4, rng),
		)
		if err != nil {
			t.Fatal(err)
		}
		return net
	}
	xs, labels := batchData(9, 20, 11)

	serial := build()
	optS := &Adam{LR: 0.01, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
	parallelNet := build()
	bt, err := NewBatchTrainer(parallelNet, parallel.New(4))
	if err != nil {
		t.Fatal(err)
	}
	optP := &Adam{LR: 0.01, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
	for step := 0; step < 3; step++ {
		lossS, err := serial.TrainBatch(xs, labels, optS)
		if err != nil {
			t.Fatal(err)
		}
		lossP, err := bt.TrainBatch(xs, labels, optP)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(lossS) != math.Float64bits(lossP) {
			t.Fatalf("step %d: loss %x vs %x", step, math.Float64bits(lossS), math.Float64bits(lossP))
		}
	}
	ps, pp := serial.ParamVector(), parallelNet.ParamVector()
	for i := range ps {
		if math.Float64bits(ps[i]) != math.Float64bits(pp[i]) {
			t.Fatalf("param %d: %x vs %x", i, math.Float64bits(ps[i]), math.Float64bits(pp[i]))
		}
	}
}

// denseResNet builds a dense stack with a residual block — every layer kind
// the whole-batch GEMM path supports.
func denseResNet(t *testing.T, seed int64) *Network {
	t.Helper()
	rng := tensor.NewRNG(seed)
	res, err := NewResidual(NewDense(24, 24, rng))
	if err != nil {
		t.Fatal(err)
	}
	net, err := NewNetwork(
		NewDense(32, 24, rng), NewReLU(24), res, NewReLU(24), NewDense(24, 5, rng),
	)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestBatchTrainerGEMMMatchesSerialAnyBatch: the whole-batch GEMM path must
// reproduce the plain serial Network.TrainBatch bit for bit at ANY batch
// size and worker count — including batches larger than maxBatchChunks,
// where the retired chunked path would have merged per-chunk subtotals in a
// different association order.
func TestBatchTrainerGEMMMatchesSerialAnyBatch(t *testing.T) {
	for _, b := range []int{1, 3, 16, 33} {
		xs, labels := batchData(b, 32, int64(100+b))

		// Serial reference: plain per-example Network.TrainBatch.
		serial := denseResNet(t, 9)
		optS := &SGDM{LR: 0.05, Momentum: 0.9}
		var lossS float64
		var err error
		for step := 0; step < 3; step++ {
			if lossS, err = serial.TrainBatch(xs, labels, optS); err != nil {
				t.Fatal(err)
			}
		}
		refParams := serial.ParamVector()

		for _, workers := range []int{0, 1, 4} {
			net := denseResNet(t, 9)
			var pool *parallel.Pool
			if workers > 0 {
				pool = parallel.New(workers)
			}
			bt, err := NewBatchTrainer(net, pool)
			if err != nil {
				t.Fatal(err)
			}
			if bt.batchLayers == nil {
				t.Fatal("dense stack did not select the GEMM path")
			}
			optP := &SGDM{LR: 0.05, Momentum: 0.9}
			var lossP float64
			for step := 0; step < 3; step++ {
				if lossP, err = bt.TrainBatch(xs, labels, optP); err != nil {
					t.Fatal(err)
				}
			}
			if math.Float64bits(lossP) != math.Float64bits(lossS) {
				t.Errorf("batch=%d workers=%d: loss %x vs serial %x",
					b, workers, math.Float64bits(lossP), math.Float64bits(lossS))
			}
			pp := net.ParamVector()
			for i := range refParams {
				if math.Float64bits(pp[i]) != math.Float64bits(refParams[i]) {
					t.Fatalf("batch=%d workers=%d: param %d bits %x vs %x",
						b, workers, i, math.Float64bits(pp[i]), math.Float64bits(refParams[i]))
				}
			}
		}
	}
}

// TestBatchTrainerConvFallsBack: conv stacks have no whole-batch kernels and
// must keep using the chunked-replica path.
func TestBatchTrainerConvFallsBack(t *testing.T) {
	bt, err := NewBatchTrainer(convNet(t, 2), nil)
	if err != nil {
		t.Fatal(err)
	}
	if bt.batchLayers != nil {
		t.Fatal("conv stack unexpectedly selected the GEMM path")
	}
}

// TestReplicateShared: replicas alias parameter storage but own gradients.
func TestReplicateShared(t *testing.T) {
	net := convNet(t, 5)
	rep, err := net.Replicate()
	if err != nil {
		t.Fatal(err)
	}
	src, dup := net.Params(), rep.Params()
	if len(src) != len(dup) {
		t.Fatalf("param count %d vs %d", len(src), len(dup))
	}
	for i := range src {
		if &src[i][0] != &dup[i][0] {
			t.Errorf("param %d not shared", i)
		}
	}
	sg, dg := net.Grads(), rep.Grads()
	for i := range sg {
		if &sg[i][0] == &dg[i][0] {
			t.Errorf("grad %d shared, want private", i)
		}
	}
	// Frozen layers stay frozen through replication.
	frozen := &Dense{W: tensor.NewMatrix(2, 2), B: tensor.NewVector(2),
		GradW: tensor.NewMatrix(2, 2), GradB: tensor.NewVector(2), Frozen: true}
	fr := frozen.Replicate()
	if fr.Params() != nil {
		t.Error("frozen replica exposes params")
	}
}

// TestBatchTrainerErrors: shape errors surface, in deterministic order.
func TestBatchTrainerErrors(t *testing.T) {
	net := convNet(t, 1)
	bt, err := NewBatchTrainer(net, parallel.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bt.TrainBatch(nil, nil, &SGD{LR: 0.1}); err == nil {
		t.Error("empty batch accepted")
	}
	xs, labels := batchData(4, 64, 2)
	xs[2] = tensor.NewVector(3) // wrong dim mid-batch
	if _, err := bt.TrainBatch(xs, labels, &SGD{LR: 0.1}); err == nil {
		t.Error("bad example accepted")
	}
}

// TestReLUBatchMatchesOracleOnSpecialValues holds the branch-free batch ReLU
// to the per-example Forward/Backward bit for bit on the inputs where a mask
// trick could slip: signed zeros, denormals, infinities and NaNs of both
// signs, as activations and as incoming gradients.
func TestReLUBatchMatchesOracleOnSpecialValues(t *testing.T) {
	negNaN := math.Float64frombits(math.Float64bits(math.NaN()) | 1<<63)
	special := []float64{
		0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		1, -1, math.MaxFloat64, -math.MaxFloat64,
		math.Inf(1), math.Inf(-1),
		math.NaN(), negNaN,
	}
	n := len(special)
	// Row r pairs activation special[c] with gradient special[(c+r) % n], so
	// the rows together cover every (activation, gradient) pair.
	x, grad := tensor.NewMatrix(n, n), tensor.NewMatrix(n, n)
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			x.Row(r)[c] = special[c]
			grad.Row(r)[c] = special[(c+r)%n]
		}
	}
	batch := NewReLU(n)
	out, err := batch.ForwardBatch(nil, x)
	if err != nil {
		t.Fatal(err)
	}
	back, err := batch.BackwardBatch(nil, grad)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < n; r++ {
		oracle := NewReLU(n)
		wantOut, err := oracle.Forward(x.Row(r))
		if err != nil {
			t.Fatal(err)
		}
		wantBack, err := oracle.Backward(grad.Row(r))
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < n; c++ {
			if got, want := math.Float64bits(out.Row(r)[c]), math.Float64bits(wantOut[c]); got != want {
				t.Errorf("forward(%v) = %#x, oracle %#x", special[c], got, want)
			}
			if got, want := math.Float64bits(back.Row(r)[c]), math.Float64bits(wantBack[c]); got != want {
				t.Errorf("backward(activation %v, gradient %v) = %#x, oracle %#x", special[c], special[(c+r)%n], got, want)
			}
		}
	}
}
