package nn

import (
	"errors"
	"fmt"
	"math"

	"rpol/internal/parallel"
	"rpol/internal/tensor"
)

// replica is a network's batch runtime: a copy of its layers sharing the
// parameters (Network.Replicate), an arena every layer grabs its batch
// buffers from, reset per batch, and the matrix the batch is packed into.
type replica struct {
	net   *Network
	arena *parallel.Arena
	xb    tensor.Matrix
}

func newReplica(n *Network) *replica {
	r := &replica{net: n.Replicate(), arena: parallel.NewArena(0)}
	r.net.setScratch(r.arena)
	return r
}

// forward recycles the previous batch's buffers, packs xs one example per
// row and pushes the batch through every layer's ForwardBatch.
func (r *replica) forward(p *parallel.Pool, xs []tensor.Vector) (*tensor.Matrix, error) {
	in := r.net.Layers[0].InputDim()
	r.arena.Reset()
	r.xb = tensor.Matrix{Rows: len(xs), Cols: in, Data: tensor.Vector(r.arena.Grab(len(xs) * in))}
	for i, x := range xs {
		if len(x) != in {
			return nil, fmt.Errorf("batch example %d: input %d, want %d: %w", i, len(x), in, tensor.ErrShapeMismatch)
		}
		copy(r.xb.Row(i), x)
	}
	cur := &r.xb
	var err error
	for i, l := range r.net.Layers {
		if cur, err = l.ForwardBatch(p, cur); err != nil {
			return nil, fmt.Errorf("layer %d (%s): %w", i, l.Name(), err)
		}
	}
	return cur, nil
}

// BatchTrainer is the training runtime: one optimization step pushes the
// whole batch through each layer's batch form (see Layer), on a replica that
// shares the network's parameters, with the GEMM kernels spread over the
// pool. Every result is bit-identical to the per-example
// Network.TrainBatch, at any batch size and for any pool, including a nil
// (serial) one. Allocation-free at steady state.
//
// The trainer snapshots the network's layer graph at construction; mutate
// the architecture afterwards and the trainer is stale. Not safe for
// concurrent use.
type BatchTrainer struct {
	rep    *replica
	pool   *parallel.Pool
	params []tensor.Vector // the source network's
	grads  []tensor.Vector // the replica's
}

// NewBatchTrainer returns a trainer for net over pool. A nil pool is valid
// and runs the kernels serially — same bits, no concurrency.
func NewBatchTrainer(net *Network, pool *parallel.Pool) (*BatchTrainer, error) {
	if len(net.Layers) == 0 {
		return nil, errors.New("nn: empty network")
	}
	rep := newReplica(net)
	return &BatchTrainer{rep: rep, pool: pool, params: net.Params(), grads: rep.net.Grads()}, nil
}

// TrainBatch runs one optimization step over (xs, labels) and returns the
// mean loss, exactly like Network.TrainBatch: forward, the loss gradient in
// place over the logits, backward, step.
func (bt *BatchTrainer) TrainBatch(xs []tensor.Vector, labels []int, opt Optimizer) (float64, error) {
	b := len(xs)
	if b == 0 || b != len(labels) {
		return 0, fmt.Errorf("batch %d inputs vs %d labels: %w", b, len(labels), tensor.ErrShapeMismatch)
	}
	cur, err := bt.rep.forward(bt.pool, xs)
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
	layers := bt.rep.net.Layers
	bt.rep.net.ZeroGrads()
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

// evalTile is how many examples Network.Accuracy forwards per batched call.
const evalTile = 64

// current reports whether the replica still mirrors n layer by layer, so
// Network.Accuracy rebuilds it after a layer was swapped or re-pointed.
func (r *replica) current(n *Network) bool {
	if len(r.net.Layers) != len(n.Layers) {
		return false
	}
	for i, l := range n.Layers {
		if !shares(l, r.net.Layers[i]) {
			return false
		}
	}
	return true
}

// shares reports whether replica layer r computes what l does: the same
// kind and geometry, over l's own parameter storage.
func shares(l, r Layer) bool {
	switch l := l.(type) {
	case *Dense:
		r, ok := r.(*Dense)
		return ok && r.W == l.W && tensor.SameStorage(r.W.Data, l.W.Data) && tensor.SameStorage(r.B, l.B)
	case *ReLU:
		r, ok := r.(*ReLU)
		return ok && r.dim == l.dim
	case *Residual:
		r, ok := r.(*Residual)
		return ok && shares(l.Inner, r.Inner)
	case *Conv2D:
		r, ok := r.(*Conv2D)
		return ok && r.InC == l.InC && r.InH == l.InH && r.InW == l.InW &&
			r.OutC == l.OutC && r.K == l.K && r.Pad == l.Pad &&
			tensor.SameStorage(r.W, l.W) && tensor.SameStorage(r.B, l.B)
	case *LayerNorm:
		r, ok := r.(*LayerNorm)
		return ok && math.Float64bits(r.Eps) == math.Float64bits(l.Eps) && len(r.Gamma) == len(l.Gamma) &&
			tensor.SameStorage(r.Gamma, l.Gamma) && tensor.SameStorage(r.Beta, l.Beta)
	case *MaxPool2D:
		r, ok := r.(*MaxPool2D)
		return ok && r.C == l.C && r.H == l.H && r.W == l.W && r.Window == l.Window
	}
	return false
}

// correct forwards the tile xs in one batch and counts the rows whose argmax
// is the label.
func (r *replica) correct(xs []tensor.Vector, labels []int) (int, error) {
	out, err := r.forward(nil, xs)
	if err != nil {
		return 0, err
	}
	correct := 0
	for i, label := range labels {
		if Argmax(out.Row(i)) == label {
			correct++
		}
	}
	return correct, nil
}
