package nn

import (
	"fmt"

	"rpol/internal/parallel"
	"rpol/internal/tensor"
)

// maxBatchChunks bounds how many fixed chunks a batch is split into. Chunk
// boundaries depend only on the batch size and this constant — NEVER on the
// worker count — so the gradient merge order, and therefore every float bit
// of the update, is identical whether the chunks ran on 1 or 16 goroutines.
const maxBatchChunks = 16

// BatchTrainer runs Network.TrainBatch's per-example forward/backward work
// through the parallel runtime. Networks whose layers all support the
// whole-batch path (dense stacks: Dense, ReLU, Residual) take the GEMM fast
// path: ONE shared-parameter replica pushes the entire batch through the
// batched kernels in internal/tensor, whose internal row-chunking composes
// with the pool. Other networks (convolutional) fall back to the chunked
// path: the batch is split into fixed chunks, each chunk is processed by a
// private replica network (shared weights, private gradients and caches,
// arena-backed scratch), and per-chunk gradients and losses are merged in
// chunk-index order before the single optimizer step on the source network.
//
// Determinism: results are bit-identical for any pool size, including a nil
// (serial) pool, because chunking and merge order are fixed. On the GEMM
// path they are additionally bit-identical to the plain serial
// Network.TrainBatch at ANY batch size: every kernel output element is one
// left-to-right accumulation chain in the serial per-example index order,
// and the loss/bias reductions are explicit ascending-batch loops. The
// chunked fallback may differ from serial in low-order float bits on layers
// that accumulate several gradient terms per parameter per example (Conv2D):
// the serial loop folds those terms into the running cross-example total,
// while the chunked merge folds per-chunk subtotals. So rpol drives every
// BatchCapable network through this trainer at any worker count, and keeps
// Network.TrainBatch only for a conv stack at Workers ≤ 0.
//
// The trainer snapshots the network's layer graph and parameter layout at
// construction; mutate the architecture afterwards and the trainer is stale.
// Not safe for concurrent use.
type BatchTrainer struct {
	net    *Network
	pool   *parallel.Pool
	params []tensor.Vector
	grads  []tensor.Vector

	reps      []*Network
	repGrads  [][]tensor.Vector
	arenas    []*parallel.Arena
	chunkLoss []float64
	chunkErr  []error

	// GEMM fast path (nil batchLayers = chunked fallback): one
	// shared-parameter replica, batched kernels, arena reset per batch.
	batchRep    *Network
	batchLayers []BatchLayer
	batchGrads  []tensor.Vector
	batchArena  *parallel.Arena
	xb          tensor.Matrix
}

// NewBatchTrainer returns a trainer for net over pool. A nil pool is valid
// and runs chunks serially — same bits, no concurrency. Errors if any layer
// does not support replication.
func NewBatchTrainer(net *Network, pool *parallel.Pool) (*BatchTrainer, error) {
	for i, l := range net.Layers {
		if _, ok := l.(Replicable); !ok {
			return nil, fmt.Errorf("nn: layer %d (%s) does not support replication", i, l.Name())
		}
	}
	bt := &BatchTrainer{
		net:    net,
		pool:   pool,
		params: net.Params(),
		grads:  net.Grads(),
	}
	if net.BatchCapable() {
		rep, err := net.Replicate()
		if err != nil {
			return nil, err
		}
		arena := parallel.NewArena(0)
		rep.setScratch(arena)
		layers := make([]BatchLayer, len(rep.Layers))
		for i, l := range rep.Layers {
			layers[i] = l.(BatchLayer)
		}
		bt.batchRep = rep
		bt.batchLayers = layers
		bt.batchGrads = rep.Grads()
		bt.batchArena = arena
	}
	return bt, nil
}

// ensureReplicas grows the replica set to at least chunks entries.
func (bt *BatchTrainer) ensureReplicas(chunks int) error {
	for len(bt.reps) < chunks {
		rep, err := bt.net.Replicate()
		if err != nil {
			return err
		}
		arena := parallel.NewArena(0)
		rep.setScratch(arena)
		bt.reps = append(bt.reps, rep)
		bt.repGrads = append(bt.repGrads, rep.Grads())
		bt.arenas = append(bt.arenas, arena)
	}
	if cap(bt.chunkLoss) < chunks {
		bt.chunkLoss = make([]float64, chunks)
		bt.chunkErr = make([]error, chunks)
	}
	bt.chunkLoss = bt.chunkLoss[:chunks]
	bt.chunkErr = bt.chunkErr[:chunks]
	return nil
}

// TrainBatch runs one optimization step over (xs, labels) and returns the
// mean loss, exactly like Network.TrainBatch but with the per-example work
// spread across the pool.
func (bt *BatchTrainer) TrainBatch(xs []tensor.Vector, labels []int, opt Optimizer) (float64, error) {
	b := len(xs)
	if b == 0 || b != len(labels) {
		return 0, fmt.Errorf("batch %d inputs vs %d labels: %w", b, len(labels), tensor.ErrShapeMismatch)
	}
	if bt.batchLayers != nil {
		return bt.trainBatchGEMM(xs, labels, opt)
	}
	grain := (b + maxBatchChunks - 1) / maxBatchChunks
	chunks := parallel.NumChunks(b, grain)
	if err := bt.ensureReplicas(chunks); err != nil {
		return 0, err
	}
	bt.net.ZeroGrads()
	invB := 1 / float64(b)
	bt.pool.ForChunks(b, grain, func(c, lo, hi int) {
		rep, arena := bt.reps[c], bt.arenas[c]
		rep.ZeroGrads()
		bt.chunkErr[c] = nil
		var sum float64
		for i := lo; i < hi; i++ {
			logits, err := rep.Forward(xs[i])
			if err != nil {
				bt.chunkErr[c] = err
				return
			}
			loss, grad, err := SoftmaxCrossEntropy(logits, labels[i])
			if err != nil {
				bt.chunkErr[c] = err
				return
			}
			sum += loss
			grad.Scale(invB)
			if err := rep.Backward(grad); err != nil {
				bt.chunkErr[c] = err
				return
			}
			// All forward caches and intermediates for this example are dead
			// once its backward completed; recycle them.
			arena.Reset()
		}
		bt.chunkLoss[c] = sum
	})
	// Ordered reduction: chunk 0, 1, 2, … regardless of which goroutine
	// finished first. This is what pins the float bits.
	var total float64
	for c := 0; c < chunks; c++ {
		if err := bt.chunkErr[c]; err != nil {
			return 0, err
		}
		total += bt.chunkLoss[c]
		for j, g := range bt.repGrads[c] {
			if err := bt.grads[j].AXPY(1, g); err != nil {
				return 0, err
			}
		}
	}
	if err := opt.Step(bt.params, bt.grads); err != nil {
		return 0, err
	}
	return total / float64(b), nil
}

// trainBatchGEMM is the whole-batch fast path: pack the batch into one
// matrix, run each layer's batched kernel once, compute the loss gradient in
// place over the logits, run the batched backward, step. Allocation-free at
// steady state (arena scratch, reusable matrix headers); bit-identical to
// the serial per-example Network.TrainBatch for any pool size.
func (bt *BatchTrainer) trainBatchGEMM(xs []tensor.Vector, labels []int, opt Optimizer) (float64, error) {
	b := len(xs)
	in := bt.net.Layers[0].InputDim()
	bt.batchArena.Reset()
	bt.xb = tensor.Matrix{Rows: b, Cols: in, Data: tensor.Vector(bt.batchArena.Grab(b * in))}
	for i, x := range xs {
		if len(x) != in {
			return 0, fmt.Errorf("batch example %d: input %d, want %d: %w", i, len(x), in, tensor.ErrShapeMismatch)
		}
		copy(bt.xb.Row(i), x)
	}
	cur := &bt.xb
	var err error
	for i, l := range bt.batchLayers {
		if cur, err = l.ForwardBatch(bt.pool, cur); err != nil {
			return 0, fmt.Errorf("layer %d (%s): %w", i, bt.batchRep.Layers[i].Name(), err)
		}
	}
	// Loss gradient in place over the logits, scaled to the batch mean, in
	// ascending batch order — the exact serial reduction.
	invB := 1 / float64(b)
	var total float64
	for r := 0; r < b; r++ {
		row := cur.Row(r)
		loss, err := SoftmaxCrossEntropyInto(row, row, labels[r])
		if err != nil {
			return 0, err
		}
		total += loss
		row.Scale(invB)
	}
	bt.batchRep.ZeroGrads()
	for i := len(bt.batchLayers) - 1; i > 0; i-- {
		if cur, err = bt.batchLayers[i].BackwardBatch(bt.pool, cur); err != nil {
			return 0, fmt.Errorf("layer %d (%s): %w", i, bt.batchRep.Layers[i].Name(), err)
		}
	}
	// The first layer's input gradient has no consumer; skip its GEMM when
	// the layer supports it (pure wall-clock win, parameter bits unchanged).
	if ni, ok := bt.batchLayers[0].(interface {
		BackwardBatchNoInput(p *parallel.Pool, grad *tensor.Matrix) error
	}); ok {
		if err = ni.BackwardBatchNoInput(bt.pool, cur); err != nil {
			return 0, fmt.Errorf("layer 0 (%s): %w", bt.batchRep.Layers[0].Name(), err)
		}
	} else if _, err = bt.batchLayers[0].BackwardBatch(bt.pool, cur); err != nil {
		return 0, fmt.Errorf("layer 0 (%s): %w", bt.batchRep.Layers[0].Name(), err)
	}
	if err := opt.Step(bt.params, bt.batchGrads); err != nil {
		return 0, err
	}
	return total / float64(b), nil
}
