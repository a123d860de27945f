package nn

import (
	"errors"
	"fmt"

	"rpol/internal/parallel"
	"rpol/internal/tensor"
)

// attach readies the network's one layer graph for a batch entry point: it
// installs the network's arena on every layer, a layer swapped in since the
// last call included. The entry point defers setScratch(nil), so the
// per-example methods never grab from the arena.
func (n *Network) attach() {
	n.setScratch(&n.arena)
}

func (n *Network) setScratch(a *parallel.Arena) {
	for _, l := range n.Layers {
		l.setScratch(a)
	}
}

func (d *Dense) setScratch(a *parallel.Arena)     { d.scratch = a }
func (r *ReLU) setScratch(a *parallel.Arena)      { r.scratch = a }
func (r *Residual) setScratch(a *parallel.Arena)  { r.Inner.setScratch(a) }
func (c *Conv2D) setScratch(a *parallel.Arena)    { c.scratch = a }
func (l *LayerNorm) setScratch(a *parallel.Arena) { l.scratch = a }
func (m *MaxPool2D) setScratch(a *parallel.Arena) { m.scratch = a }

// forwardBatch recycles the previous batch's buffers, packs xs one example
// per row and pushes the batch through every layer's ForwardBatch. The
// caller has attached the arena.
func (n *Network) forwardBatch(p *parallel.Pool, xs []tensor.Vector) (*tensor.Matrix, error) {
	in := n.Layers[0].InputDim()
	n.arena.Reset()
	n.xb = tensor.Matrix{Rows: len(xs), Cols: in, Data: tensor.Vector(n.arena.Grab(len(xs) * in))}
	for i, x := range xs {
		if len(x) != in {
			return nil, fmt.Errorf("batch example %d: input %d, want %d: %w", i, len(x), in, tensor.ErrShapeMismatch)
		}
		copy(n.xb.Row(i), x)
	}
	cur := &n.xb
	var err error
	for i, l := range n.Layers {
		if cur, err = l.ForwardBatch(p, cur); err != nil {
			return nil, fmt.Errorf("layer %d (%s): %w", i, l.Name(), err)
		}
	}
	return cur, nil
}

// BatchTrainer is the training runtime: one optimization step pushes the
// whole batch through each layer's batch form (see Layer), on the network's
// own layers, with the GEMM kernels spread over the pool. Every result is
// bit-identical to the per-example Network.TrainBatch, at any batch size and
// for any pool, including a nil (serial) one. Allocation-free at steady
// state.
//
// The trainer steps the parameter and gradient lists the network exposes
// at construction; swap a layer that has parameters afterwards and build a
// new trainer. Every trainer on one network, and the network's Accuracy,
// share its gradients, its forward caches and its arena: they may take
// turns, each step being self-contained, but never run at the same time.
// Not safe for concurrent use.
type BatchTrainer struct {
	net    *Network
	pool   *parallel.Pool
	params []tensor.Vector
	grads  []tensor.Vector
}

// NewBatchTrainer returns a trainer for net over pool. A nil pool is valid
// and runs the kernels serially — same bits, no concurrency.
func NewBatchTrainer(net *Network, pool *parallel.Pool) (*BatchTrainer, error) {
	if len(net.Layers) == 0 {
		return nil, errors.New("nn: empty network")
	}
	return &BatchTrainer{net: net, pool: pool, params: net.Params(), grads: net.Grads()}, nil
}

// TrainBatch runs one optimization step over (xs, labels) and returns the
// mean loss, exactly like Network.TrainBatch: forward, the loss gradient in
// place over the logits, backward, step.
func (bt *BatchTrainer) TrainBatch(xs []tensor.Vector, labels []int, opt Optimizer) (float64, error) {
	b := len(xs)
	if b == 0 || b != len(labels) {
		return 0, fmt.Errorf("batch %d inputs vs %d labels: %w", b, len(labels), tensor.ErrShapeMismatch)
	}
	net := bt.net
	net.attach()
	defer net.setScratch(nil)
	cur, err := net.forwardBatch(bt.pool, xs)
	if err != nil {
		return 0, err
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
	layers := net.Layers
	net.ZeroGrads()
	for i := len(layers) - 1; i > 0; i-- {
		if cur, err = layers[i].BackwardBatch(bt.pool, cur); err != nil {
			return 0, fmt.Errorf("layer %d (%s): %w", i, layers[i].Name(), err)
		}
	}
	// The first layer's input gradient has no consumer; skip its GEMM when
	// the layer supports it (pure wall-clock win, parameter bits unchanged).
	if ni, ok := layers[0].(interface {
		BackwardBatchNoInput(p *parallel.Pool, grad *tensor.Matrix) error
	}); ok {
		err = ni.BackwardBatchNoInput(bt.pool, cur)
	} else {
		_, err = layers[0].BackwardBatch(bt.pool, cur)
	}
	if err != nil {
		return 0, fmt.Errorf("layer 0 (%s): %w", layers[0].Name(), err)
	}
	if err := opt.Step(bt.params, bt.grads); err != nil {
		return 0, err
	}
	return total / float64(b), nil
}
