package nn

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"rpol/internal/parallel"
	"rpol/internal/tensor"
)

// BatchLayer is the whole-batch form of Layer: one call pushes every example
// (one per matrix row) through the layer via the batched GEMM kernels in
// internal/tensor, instead of one matvec per example.
//
// Determinism contract: for any pool (including nil), ForwardBatch and
// BackwardBatch produce bit-identical results to calling Forward/Backward on
// each row in ascending order. The kernels guarantee this per element (each
// output is a single left-to-right accumulation chain in the serial index
// order), and the layer-level reductions below (bias gradient, residual add)
// are explicit ascending-index loops.
//
// Returned matrices alias layer-owned scratch headers backed by the layer's
// arena; they are valid until the arena is reset. Like Layer, a BatchLayer
// caches forward state for the subsequent backward and is therefore not safe
// for concurrent use — the pool parallelism lives inside the kernels.
type BatchLayer interface {
	Layer
	// ForwardBatch computes the layer output for every row of x.
	ForwardBatch(p *parallel.Pool, x *tensor.Matrix) (*tensor.Matrix, error)
	// BackwardBatch consumes per-row ∂L/∂output, accumulates parameter
	// gradients (summed over the batch in ascending row order), and returns
	// per-row ∂L/∂input.
	BackwardBatch(p *parallel.Pool, grad *tensor.Matrix) (*tensor.Matrix, error)
}

// batchCapable reports whether a layer can run the whole-batch path. It is
// not a plain type assertion because Residual structurally implements
// BatchLayer while only supporting it when its inner layer does.
func batchCapable(l Layer) bool {
	switch v := l.(type) {
	case *Residual:
		return batchCapable(v.Inner)
	case BatchLayer:
		return true
	}
	return false
}

// BatchCapable reports whether every layer runs the whole-batch GEMM path,
// i.e. whether BatchTrainer is bit-identical to TrainBatch on this network.
func (n *Network) BatchCapable() bool {
	for _, l := range n.Layers {
		if !batchCapable(l) {
			return false
		}
	}
	return true
}

// evalTile is how many examples Network.Accuracy forwards per batched call.
const evalTile = 64

// evaluator is Network.Accuracy's batched forward path: a replica sharing
// the network's parameters, its batch layers, and an arena reset per tile.
// A network whose layers were swapped or re-pointed since the replica was
// made gets a new one (see shares).
type evaluator struct {
	rep    *Network
	layers []BatchLayer
	arena  *parallel.Arena
	xb     tensor.Matrix
}

func newEvaluator(n *Network) (*evaluator, error) {
	rep, err := n.Replicate()
	if err != nil {
		return nil, err
	}
	ev := &evaluator{rep: rep, layers: make([]BatchLayer, len(rep.Layers)), arena: parallel.NewArena(0)}
	rep.setScratch(ev.arena)
	for i, l := range rep.Layers {
		ev.layers[i] = l.(BatchLayer)
	}
	return ev, nil
}

// current reports whether the replica still mirrors n layer by layer.
func (ev *evaluator) current(n *Network) bool {
	if len(ev.rep.Layers) != len(n.Layers) {
		return false
	}
	for i, l := range n.Layers {
		if !shares(l, ev.rep.Layers[i]) {
			return false
		}
	}
	return true
}

// shares reports whether replica layer r computes what l does: the same
// kind, over l's own parameter storage. Only batch-capable kinds qualify.
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
	}
	return false
}

// correct forwards the tile xs in one batch and counts the rows whose argmax
// is the label.
func (ev *evaluator) correct(xs []tensor.Vector, labels []int) (int, error) {
	in := ev.rep.Layers[0].InputDim()
	ev.arena.Reset()
	ev.xb = tensor.Matrix{Rows: len(xs), Cols: in, Data: tensor.Vector(ev.arena.Grab(len(xs) * in))}
	for i, x := range xs {
		if len(x) != in {
			return 0, fmt.Errorf("eval example %d: input %d, want %d: %w", i, len(x), in, tensor.ErrShapeMismatch)
		}
		copy(ev.xb.Row(i), x)
	}
	cur := &ev.xb
	var err error
	for i, l := range ev.layers {
		if cur, err = l.ForwardBatch(nil, cur); err != nil {
			return 0, fmt.Errorf("layer %d (%s): %w", i, ev.rep.Layers[i].Name(), err)
		}
	}
	correct := 0
	for r, label := range labels {
		if Argmax(cur.Row(r)) == label {
			correct++
		}
	}
	return correct, nil
}

// ForwardBatch computes W·x + b for every row of x in one GEMM call. The
// pack scratch (arena-recycled) unlocks the SIMD kernel where the host has
// one; the result is bit-identical with or without it.
func (d *Dense) ForwardBatch(p *parallel.Pool, x *tensor.Matrix) (*tensor.Matrix, error) {
	d.outB = tensor.Matrix{Rows: x.Rows, Cols: d.W.Rows, Data: tensor.Vector(d.scratch.Grab(x.Rows * d.W.Rows))}
	pack := tensor.Vector(d.scratch.Grab(tensor.MulMatPackSize(x.Rows, x.Cols)))
	if err := d.W.MulMatPoolScratch(p, &d.outB, x, pack); err != nil {
		return nil, fmt.Errorf("dense forward: %w", err)
	}
	for r := 0; r < d.outB.Rows; r++ {
		if err := d.outB.Row(r).AXPY(1, d.B); err != nil {
			return nil, fmt.Errorf("dense bias: %w", err)
		}
	}
	d.lastInB = x
	return &d.outB, nil
}

// BackwardBatch accumulates ∂L/∂W += Σ_b g_b·x_bᵀ and ∂L/∂b += Σ_b g_b in
// ascending batch order, returning per-row Wᵀ·g.
func (d *Dense) BackwardBatch(p *parallel.Pool, grad *tensor.Matrix) (*tensor.Matrix, error) {
	if err := d.backwardBatchParams(p, grad); err != nil {
		return nil, err
	}
	d.inGradB = tensor.Matrix{Rows: grad.Rows, Cols: d.W.Cols, Data: tensor.Vector(d.scratch.Grab(grad.Rows * d.W.Cols))}
	if err := d.W.MulMatTPool(p, &d.inGradB, grad); err != nil {
		return nil, fmt.Errorf("dense backward: %w", err)
	}
	return &d.inGradB, nil
}

// BackwardBatchNoInput is BackwardBatch without the Wᵀ·g input-gradient
// GEMM. The trainer calls it on the first layer of the stack, where the
// input gradient has no consumer — the skipped product is discarded in the
// per-example path too, so parameter bits are unchanged.
func (d *Dense) BackwardBatchNoInput(p *parallel.Pool, grad *tensor.Matrix) error {
	return d.backwardBatchParams(p, grad)
}

func (d *Dense) backwardBatchParams(p *parallel.Pool, grad *tensor.Matrix) error {
	if d.lastInB == nil {
		return errors.New("nn: dense batch backward before forward")
	}
	if !d.Frozen {
		if err := d.GradW.AddOuterBatchPool(p, 1, grad, d.lastInB); err != nil {
			return fmt.Errorf("dense gradW: %w", err)
		}
		for r := 0; r < grad.Rows; r++ {
			if err := d.GradB.AXPY(1, grad.Row(r)); err != nil {
				return fmt.Errorf("dense gradB: %w", err)
			}
		}
	}
	return nil
}

// positiveMask returns all ones when b is the bit pattern of a float64 v
// with v > 0 and zero otherwise, without a branch: activations split about
// evenly around zero, so a compare-and-jump per element mispredicts half the
// time. v > 0 holds exactly for 0 < b ≤ bits(+Inf) — everything above is a
// NaN or carries the sign bit — i.e. for b−1 below bits(+Inf) as unsigned
// numbers (b = 0 wraps to the maximum), which is the borrow of one
// subtraction. So ±0, every negative and every NaN mask to +0, as `if v > 0`
// leaving a zeroed slot did.
func positiveMask(b uint64) uint64 {
	const inf = 0x7FF0000000000000
	_, borrow := bits.Sub64(b-1, inf, 0)
	return -borrow
}

// ForwardBatch returns max(0, x) element-wise over the whole batch.
func (r *ReLU) ForwardBatch(_ *parallel.Pool, x *tensor.Matrix) (*tensor.Matrix, error) {
	if x.Cols != r.dim {
		return nil, fmt.Errorf("relu input %d, want %d: %w", x.Cols, r.dim, tensor.ErrShapeMismatch)
	}
	r.outB = tensor.Matrix{Rows: x.Rows, Cols: x.Cols, Data: tensor.Vector(r.scratch.Grab(x.Rows * x.Cols))}
	out := r.outB.Data[:len(x.Data)]
	for i, v := range x.Data {
		b := math.Float64bits(v)
		out[i] = math.Float64frombits(b & positiveMask(b))
	}
	r.lastInB = x
	return &r.outB, nil
}

// BackwardBatch masks the batch gradient by the activation pattern. The mask
// is written to a private scratch matrix, not in place: a residual wrapper
// needs the incoming gradient intact for its identity branch, exactly like
// the per-example Backward.
func (r *ReLU) BackwardBatch(_ *parallel.Pool, grad *tensor.Matrix) (*tensor.Matrix, error) {
	if r.lastInB == nil {
		return nil, errors.New("nn: relu batch backward before forward")
	}
	if grad.Cols != r.dim || grad.Rows != r.lastInB.Rows {
		return nil, fmt.Errorf("relu grad %dx%d, want %dx%d: %w",
			grad.Rows, grad.Cols, r.lastInB.Rows, r.dim, tensor.ErrShapeMismatch)
	}
	r.gradB = tensor.Matrix{Rows: grad.Rows, Cols: grad.Cols, Data: tensor.Vector(r.scratch.Grab(grad.Rows * grad.Cols))}
	in := r.lastInB.Data
	out, g := r.gradB.Data[:len(in)], grad.Data[:len(in)]
	for i, v := range in {
		out[i] = math.Float64frombits(math.Float64bits(g[i]) & positiveMask(math.Float64bits(v)))
	}
	return &r.gradB, nil
}

// ForwardBatch computes x + inner(x) row-wise. The inner layer must itself
// be batch-capable (batchCapable checks this before the path is selected).
func (r *Residual) ForwardBatch(p *parallel.Pool, x *tensor.Matrix) (*tensor.Matrix, error) {
	bl, ok := r.Inner.(BatchLayer)
	if !ok {
		return nil, fmt.Errorf("nn: residual inner layer %s has no batch path", r.Inner.Name())
	}
	y, err := bl.ForwardBatch(p, x)
	if err != nil {
		return nil, fmt.Errorf("residual forward: %w", err)
	}
	if y.Rows != x.Rows || y.Cols != x.Cols {
		return nil, fmt.Errorf("residual inner %dx%d vs input %dx%d: %w",
			y.Rows, y.Cols, x.Rows, x.Cols, tensor.ErrShapeMismatch)
	}
	for i, v := range x.Data {
		y.Data[i] += v
	}
	return y, nil
}

// BackwardBatch propagates grad through both the identity and the inner
// branch, summing in place on the inner result (same operand order as the
// per-example Backward).
func (r *Residual) BackwardBatch(p *parallel.Pool, grad *tensor.Matrix) (*tensor.Matrix, error) {
	bl, ok := r.Inner.(BatchLayer)
	if !ok {
		return nil, fmt.Errorf("nn: residual inner layer %s has no batch path", r.Inner.Name())
	}
	ig, err := bl.BackwardBatch(p, grad)
	if err != nil {
		return nil, fmt.Errorf("residual backward: %w", err)
	}
	if ig.Rows != grad.Rows || ig.Cols != grad.Cols {
		return nil, fmt.Errorf("residual inner grad %dx%d vs grad %dx%d: %w",
			ig.Rows, ig.Cols, grad.Rows, grad.Cols, tensor.ErrShapeMismatch)
	}
	for i, v := range grad.Data {
		ig.Data[i] += v
	}
	return ig, nil
}
