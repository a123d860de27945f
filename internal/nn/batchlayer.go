package nn

import (
	"errors"
	"fmt"

	"rpol/internal/parallel"
	"rpol/internal/tensor"
)

// ForwardBatch computes W·x + b for every row of x in one GEMM call, the
// bias added after each row's chains (the bits of the per-example AXPY). The
// pack scratch (arena-recycled) unlocks the SIMD kernel where the host has
// one; the result is bit-identical with or without it.
func (d *Dense) ForwardBatch(p *parallel.Pool, x *tensor.Matrix) (*tensor.Matrix, error) {
	d.outB = tensor.Matrix{Rows: x.Rows, Cols: d.W.Rows, Data: tensor.Vector(d.scratch.Grab(x.Rows * d.W.Rows))}
	pack := tensor.Vector(d.scratch.Grab(tensor.MulMatPackSize(x.Rows, x.Cols)))
	if err := d.W.MulMatPoolScratch(p, &d.outB, x, d.B, pack); err != nil {
		return nil, fmt.Errorf("dense forward: %w", err)
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
		if err := d.GradB.AddRows(grad); err != nil {
			return fmt.Errorf("dense gradB: %w", err)
		}
	}
	return nil
}

// ForwardBatch returns max(0, x) element-wise over the whole batch: x where
// x > 0, +0 elsewhere (±0, negatives and NaN), as the per-example Forward
// leaves a zeroed slot.
func (r *ReLU) ForwardBatch(_ *parallel.Pool, x *tensor.Matrix) (*tensor.Matrix, error) {
	if x.Cols != r.dim {
		return nil, fmt.Errorf("relu input %d, want %d: %w", x.Cols, r.dim, tensor.ErrShapeMismatch)
	}
	r.outB = tensor.Matrix{Rows: x.Rows, Cols: x.Cols, Data: tensor.Vector(r.scratch.Grab(x.Rows * x.Cols))}
	if err := tensor.MaskPositive(r.outB.Data, x.Data, x.Data); err != nil {
		return nil, fmt.Errorf("relu forward: %w", err)
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
	if err := tensor.MaskPositive(r.gradB.Data, grad.Data, r.lastInB.Data); err != nil {
		return nil, fmt.Errorf("relu backward: %w", err)
	}
	return &r.gradB, nil
}

// ForwardBatch computes x + inner(x) row-wise.
func (r *Residual) ForwardBatch(p *parallel.Pool, x *tensor.Matrix) (*tensor.Matrix, error) {
	y, err := r.Inner.ForwardBatch(p, x)
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
	ig, err := r.Inner.BackwardBatch(p, grad)
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
