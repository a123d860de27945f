package nn

import (
	"fmt"
	"math"
	"runtime"
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
	mp, err := newMaxPool2D(2, 8, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := newLayerNorm(2 * 4 * 4)
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

// workerCounts are the pool sizes the runtime must give the same bits at;
// 0 is the nil (serial) pool.
var workerCounts = []int{0, 1, 2, 8}

func poolOf(workers int) *parallel.Pool {
	if workers == 0 {
		return nil
	}
	return parallel.New(workers)
}

// trainSteps takes steps optimization steps on a fresh convNet(seed), through
// a BatchTrainer over pool, or through the per-example Network.TrainBatch
// when serial is set, and returns the final loss and parameters.
func trainSteps(t *testing.T, seed int64, serial bool, pool *parallel.Pool, xs []tensor.Vector, labels []int, steps int) (float64, tensor.Vector) {
	t.Helper()
	net := convNet(t, seed)
	train := net.TrainBatch
	if !serial {
		bt, err := NewBatchTrainer(net, pool)
		if err != nil {
			t.Fatal(err)
		}
		train = bt.TrainBatch
	}
	opt := &SGDM{LR: 0.05, Momentum: 0.9}
	var loss float64
	var err error
	for step := 0; step < steps; step++ {
		if loss, err = train(xs, labels, opt); err != nil {
			t.Fatal(err)
		}
	}
	return loss, net.ParamVector()
}

// sameBits fails the test unless the two runs agree bit for bit.
func sameBits(t *testing.T, what string, loss, refLoss float64, params, refParams tensor.Vector) {
	t.Helper()
	if math.Float64bits(loss) != math.Float64bits(refLoss) {
		t.Errorf("%s: loss %x vs %x", what, math.Float64bits(loss), math.Float64bits(refLoss))
	}
	for i := range refParams {
		if math.Float64bits(params[i]) != math.Float64bits(refParams[i]) {
			t.Fatalf("%s: param %d bits %x vs %x",
				what, i, math.Float64bits(params[i]), math.Float64bits(refParams[i]))
		}
	}
}

// TestBatchTrainerDeterministicAcrossWorkers is the nn-level half of the
// repo's parallel-determinism guarantee: identical initial weights and data
// must yield bit-identical parameters and losses at every pool size, on a
// stack of every layer kind.
func TestBatchTrainerDeterministicAcrossWorkers(t *testing.T) {
	xs, labels := batchData(13, 64, 7)
	refLoss, refParams := trainSteps(t, 42, false, nil, xs, labels, 4)
	for _, workers := range workerCounts[1:] {
		loss, params := trainSteps(t, 42, false, poolOf(workers), xs, labels, 4)
		sameBits(t, fmt.Sprintf("workers=%d", workers), loss, refLoss, params, refParams)
	}
}

// TestBatchTrainerMatchesSerialDense: on a stack of every layer kind, the
// trainer reproduces the plain serial Network.TrainBatch bit for bit at
// every pool size.
func TestBatchTrainerMatchesSerialDense(t *testing.T) {
	xs, labels := batchData(9, 64, 11)
	refLoss, refParams := trainSteps(t, 3, true, nil, xs, labels, 3)
	for _, workers := range workerCounts {
		loss, params := trainSteps(t, 3, false, poolOf(workers), xs, labels, 3)
		sameBits(t, fmt.Sprintf("workers=%d", workers), loss, refLoss, params, refParams)
	}
}

// denseResNet builds a dense stack with a residual block, every layer of
// which runs on the GEMM kernels.
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

// TestBatchTrainerGEMMMatchesSerialAnyBatch: the GEMM kernels must
// reproduce the plain serial Network.TrainBatch bit for bit at ANY batch
// size and worker count, whatever chunks the pool splits the kernels into.
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

// TestBatchTrainerConvFallsBack: a conv stack takes the one batch path —
// its layers run their batch forms, never the per-example ones — and lands
// on TrainBatch's bits.
func TestBatchTrainerConvFallsBack(t *testing.T) {
	xs, labels := batchData(5, 64, 4)
	net := convNet(t, 2)
	bt, err := NewBatchTrainer(net, parallel.New(2))
	if err != nil {
		t.Fatal(err)
	}
	opt := &SGD{LR: 0.1}
	loss, err := bt.TrainBatch(xs, labels, opt)
	if err != nil {
		t.Fatal(err)
	}
	conv := net.Layers[0].(*Conv2D)
	if conv.lastInB == nil || conv.lastIn != nil {
		t.Fatal("conv layer did not run its batch form")
	}
	serial := convNet(t, 2)
	refLoss, err := serial.TrainBatch(xs, labels, &SGD{LR: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "conv stack", loss, refLoss, net.ParamVector(), serial.ParamVector())
}

// TestAccuracyFollowsRepointedLayers: Accuracy runs on the network's own
// layers, so a layer of any kind re-pointed at other parameters or swapped
// between calls is evaluated as it now stands, and every prediction stays
// Predict's.
func TestAccuracyFollowsRepointedLayers(t *testing.T) {
	xs, _ := batchData(20, 64, 8)
	net := convNet(t, 8)
	conv := net.Layers[0].(*Conv2D)
	ln := net.Layers[3].(*LayerNorm)
	// A shift after the norm, so that ε's per-example scale moves argmaxes.
	for i := range ln.Beta {
		ln.Beta[i] = float64(i%5) - 2
	}
	for _, edit := range []struct {
		name  string
		apply func()
	}{
		{"conv kernel", func() { conv.W = conv.W.Clone(); conv.W.Scale(-1) }},
		{"layernorm γ", func() { ln.Gamma = ln.Gamma.Clone(); ln.Gamma.Scale(3) }},
		{"layernorm ε", func() { ln.Eps = 10 }},
		{"residual's dense", func() { net.Layers[4].(*Residual).Inner = NewDense(32, 32, tensor.NewRNG(1)) }},
	} {
		if _, err := net.Accuracy(xs, make([]int, len(xs))); err != nil {
			t.Fatal(err)
		}
		edit.apply()
		predicted := make([]int, len(xs))
		for i, x := range xs {
			var err error
			if predicted[i], err = net.Predict(x); err != nil {
				t.Fatal(err)
			}
		}
		if agree, err := net.Accuracy(xs, predicted); err != nil || agree != 1 {
			t.Errorf("after re-pointing the %s, Accuracy agrees with Predict on %v (%v)", edit.name, agree, err)
		}
	}
}

// TestReplicateShared: a BatchTrainer steps the network's own parameters
// with the network's own gradients — one storage, no copy — and a frozen
// layer exposes neither.
func TestReplicateShared(t *testing.T) {
	net := convNet(t, 5)
	bt, err := NewBatchTrainer(net, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what      string
		got, want []tensor.Vector
	}{
		{"param", bt.params, net.Params()},
		{"grad", bt.grads, net.Grads()},
	} {
		if len(c.got) != len(c.want) {
			t.Fatalf("%s count %d vs %d", c.what, len(c.got), len(c.want))
		}
		for i := range c.want {
			if !tensor.SameStorage(c.got[i], c.want[i]) || len(c.got[i]) != len(c.want[i]) {
				t.Errorf("%s %d is not the network's storage", c.what, i)
			}
		}
	}
	frozen := &Dense{W: tensor.NewMatrix(2, 2), B: tensor.NewVector(2),
		GradW: tensor.NewMatrix(2, 2), GradB: tensor.NewVector(2), Frozen: true}
	fnet, err := NewNetwork(frozen)
	if err != nil {
		t.Fatal(err)
	}
	if bt, err = NewBatchTrainer(fnet, nil); err != nil {
		t.Fatal(err)
	}
	if bt.params != nil || bt.grads != nil {
		t.Error("frozen layer exposes params or grads to its trainer")
	}
}

// TestOracleLeavesArenaAlone: the per-example methods run with the network's
// arena detached, so after batch steps have sized it, a thousand Predict and
// Network.TrainBatch calls leave it as it was, and the next batch step
// still grabs from it without growing it.
func TestOracleLeavesArenaAlone(t *testing.T) {
	xs, labels := batchData(3, 64, 12)
	net := convNet(t, 12)
	bt, err := NewBatchTrainer(net, nil)
	if err != nil {
		t.Fatal(err)
	}
	opt := &SGD{LR: 0.01}
	// One step settles the arena (TestBatchArenaSettlesInOneStep).
	if _, err := bt.TrainBatch(xs, labels, opt); err != nil {
		t.Fatal(err)
	}
	size := net.arena.Size()
	if size == 0 {
		t.Fatal("batch step grabbed nothing from the arena")
	}
	for i := 0; i < 1000; i++ {
		if _, err := net.Predict(xs[i%len(xs)]); err != nil {
			t.Fatal(err)
		}
		if _, err := net.TrainBatch(xs, labels, opt); err != nil {
			t.Fatal(err)
		}
	}
	if got := net.arena.Size(); got != size {
		t.Errorf("per-example calls grew the arena from %d to %d floats", size, got)
	}
	if _, err := bt.TrainBatch(xs, labels, opt); err != nil {
		t.Fatal(err)
	}
	if got := net.arena.Size(); got != size {
		t.Errorf("the next batch step grew the arena from %d to %d floats", size, got)
	}
}

// TestBatchArenaSettlesInOneStep: a fresh network's first batch step sizes
// its arena for the whole step, so the second step neither grows the arena
// nor allocates a chunk: it allocates fewer bytes than the arena holds.
func TestBatchArenaSettlesInOneStep(t *testing.T) {
	for _, workers := range workerCounts {
		xs, labels := batchData(16, 64, 13)
		net := convNet(t, 13)
		bt, err := NewBatchTrainer(net, poolOf(workers))
		if err != nil {
			t.Fatal(err)
		}
		opt := &SGD{LR: 0.01}
		if _, err := bt.TrainBatch(xs, labels, opt); err != nil {
			t.Fatal(err)
		}
		size := net.arena.Size()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := bt.TrainBatch(xs, labels, opt); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if got := net.arena.Size(); got != size {
			t.Errorf("workers=%d: the second batch step grew the arena from %d to %d floats", workers, size, got)
		}
		if bytes := after.TotalAlloc - before.TotalAlloc; bytes >= uint64(8*size) {
			t.Errorf("workers=%d: the second batch step allocated %d bytes, an arena of %d floats: a chunk", workers, bytes, size)
		}
	}
}

// TestBatchArenaServesBothShapes: a network's arena serves two window
// shapes, the training batch and Accuracy's 64-row tile with its shorter last
// tile. Once each has run, the two take turns without growing the arena.
func TestBatchArenaServesBothShapes(t *testing.T) {
	xs, labels := batchData(150, 64, 14)
	net := convNet(t, 14)
	bt, err := NewBatchTrainer(net, nil)
	if err != nil {
		t.Fatal(err)
	}
	opt := &SGD{LR: 0.01}
	round := func() {
		if _, err := bt.TrainBatch(xs[:16], labels[:16], opt); err != nil {
			t.Fatal(err)
		}
		if _, err := net.Accuracy(xs, labels); err != nil {
			t.Fatal(err)
		}
	}
	round()
	size := net.arena.Size()
	for i := 0; i < 3; i++ {
		round()
	}
	if got := net.arena.Size(); got != size {
		t.Errorf("batch steps and evaluation taking turns grew the arena from %d to %d floats", size, got)
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
