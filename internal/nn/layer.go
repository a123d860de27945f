// Package nn is a from-scratch neural-network training substrate: dense and
// convolutional layers, ReLU activations, residual blocks, softmax
// cross-entropy loss, and the four optimizers the paper evaluates (SGD, SGDM,
// RMSprop, Adam).
//
// It replaces the paper's PyTorch stack. RPoL treats a model as an opaque
// flattened weight vector advanced by a deterministic training step plus
// hardware noise (Eq. 2), so any trainer with reproducible per-step updates
// exercises the same protocol paths. Training has one runtime, BatchTrainer,
// which pushes a whole batch through every layer's batch form; its result is
// bit-identical to the per-example Network.TrainBatch oracle at any pool
// size, so it is reproducible given (seed, data, schedule). A network has one
// layer graph: the runtime, Accuracy and the oracle all run on the network's
// own layers, and nothing copies them. Nondeterministic "GPU" reproduction
// error is injected by internal/gpu, not by this package.
package nn

import (
	"errors"
	"fmt"

	"rpol/internal/parallel"
	"rpol/internal/tensor"
)

// Layer is one differentiable stage of a network, in two forms: the
// per-example Forward/Backward, which is the reference oracle, and the
// whole-batch ForwardBatch/BackwardBatch, which takes one example per matrix
// row and is what BatchTrainer runs.
//
// Determinism contract: for any pool (including nil), ForwardBatch and
// BackwardBatch produce bit-identical results to calling Forward/Backward on
// each row in ascending order, and accumulate parameter gradients in that
// same serial example order. Dense does so through the GEMM kernels in
// internal/tensor (each output element is one left-to-right accumulation
// chain in the serial index order); every other layer applies its
// per-example kernel row by row.
//
// Both forms cache forward state for the subsequent backward, so a layer is
// not safe for concurrent use: the pool parallelism lives inside the
// kernels. Returned batch matrices alias layer-owned headers over the
// layer's scratch arena and are valid until the arena is reset. A layer
// belongs to one network, whose batch entry points all run on it: two
// trainers on one network (the manager's verifier and calibrator) share its
// gradients, caches and arena, and so take turns, never overlap.
//
// The interface is closed to this package (setScratch), so every layer has
// every form.
type Layer interface {
	// Forward computes the layer output for input x.
	Forward(x tensor.Vector) (tensor.Vector, error)
	// Backward consumes ∂L/∂output, accumulates parameter gradients, and
	// returns ∂L/∂input.
	Backward(grad tensor.Vector) (tensor.Vector, error)
	// ForwardBatch computes the layer output for every row of x.
	ForwardBatch(p *parallel.Pool, x *tensor.Matrix) (*tensor.Matrix, error)
	// BackwardBatch consumes per-row ∂L/∂output, accumulates parameter
	// gradients (summed over the batch in ascending row order), and returns
	// per-row ∂L/∂input.
	BackwardBatch(p *parallel.Pool, grad *tensor.Matrix) (*tensor.Matrix, error)
	// Params returns slices aliasing the layer's trainable parameters.
	// Frozen layers return nil.
	Params() []tensor.Vector
	// Grads returns slices aliasing the accumulated parameter gradients,
	// positionally matching Params.
	Grads() []tensor.Vector
	// ZeroGrads clears the accumulated gradients.
	ZeroGrads()
	// InputDim and OutputDim describe the flattened I/O sizes.
	InputDim() int
	OutputDim() int
	// Name identifies the layer kind for diagnostics.
	Name() string

	// setScratch installs the arena transient buffers are grabbed from.
	setScratch(a *parallel.Arena)
}

// ErrNotConnected is returned when stacked layers have incompatible
// dimensions.
var ErrNotConnected = errors.New("nn: layer dimensions not connected")

// Dense is a fully connected layer: y = W·x + b.
type Dense struct {
	W      *tensor.Matrix // out×in
	B      tensor.Vector  // out
	GradW  *tensor.Matrix
	GradB  tensor.Vector
	Frozen bool // frozen layers expose no params (used by AMLayer)

	lastIn  tensor.Vector
	scratch *parallel.Arena // the network's arena during a batch call; nil = plain make

	// Batch-form state: reusable matrix headers over arena-backed data,
	// plus the cached batch input for backward.
	outB    tensor.Matrix
	inGradB tensor.Matrix
	lastInB *tensor.Matrix
}

var _ Layer = (*Dense)(nil)

// NewDense returns a dense layer with Xavier-initialized weights.
func NewDense(in, out int, rng *tensor.RNG) *Dense {
	return &Dense{
		W:     rng.XavierMatrix(out, in),
		B:     tensor.NewVector(out),
		GradW: tensor.NewMatrix(out, in),
		GradB: tensor.NewVector(out),
	}
}

// Forward computes W·x + b.
func (d *Dense) Forward(x tensor.Vector) (tensor.Vector, error) {
	y := tensor.Vector(d.scratch.Grab(d.W.Rows))
	if err := d.W.MulVecInto(y, x); err != nil {
		return nil, fmt.Errorf("dense forward: %w", err)
	}
	if err := y.AXPY(1, d.B); err != nil {
		return nil, fmt.Errorf("dense bias: %w", err)
	}
	d.lastIn = x
	return y, nil
}

// Backward accumulates ∂L/∂W += g·xᵀ and ∂L/∂b += g, returning Wᵀ·g.
func (d *Dense) Backward(grad tensor.Vector) (tensor.Vector, error) {
	if d.lastIn == nil {
		return nil, errors.New("nn: dense backward before forward")
	}
	if !d.Frozen {
		if err := d.GradW.AddOuter(1, grad, d.lastIn); err != nil {
			return nil, fmt.Errorf("dense gradW: %w", err)
		}
		if err := d.GradB.AXPY(1, grad); err != nil {
			return nil, fmt.Errorf("dense gradB: %w", err)
		}
	}
	in := tensor.Vector(d.scratch.Grab(d.W.Cols))
	if err := d.W.MulVecTInto(in, grad); err != nil {
		return nil, fmt.Errorf("dense backward: %w", err)
	}
	return in, nil
}

// Params returns the weight and bias storage, or nil when frozen.
func (d *Dense) Params() []tensor.Vector {
	if d.Frozen {
		return nil
	}
	return []tensor.Vector{d.W.Data, d.B}
}

// Grads returns the accumulated gradients, or nil when frozen.
func (d *Dense) Grads() []tensor.Vector {
	if d.Frozen {
		return nil
	}
	return []tensor.Vector{d.GradW.Data, d.GradB}
}

// ZeroGrads clears the accumulated gradients.
func (d *Dense) ZeroGrads() {
	d.GradW.Data.Zero()
	d.GradB.Zero()
}

// InputDim returns the expected input length.
func (d *Dense) InputDim() int { return d.W.Cols }

// OutputDim returns the output length.
func (d *Dense) OutputDim() int { return d.W.Rows }

// Name returns "dense".
func (d *Dense) Name() string { return "dense" }

// ReLU is the rectified linear activation, applied element-wise.
type ReLU struct {
	dim     int
	lastIn  tensor.Vector
	scratch *parallel.Arena

	// Batch-form state.
	outB    tensor.Matrix
	gradB   tensor.Matrix
	lastInB *tensor.Matrix
}

var _ Layer = (*ReLU)(nil)

// NewReLU returns a ReLU over vectors of length dim.
func NewReLU(dim int) *ReLU { return &ReLU{dim: dim} }

// Forward returns max(0, x) element-wise.
func (r *ReLU) Forward(x tensor.Vector) (tensor.Vector, error) {
	if len(x) != r.dim {
		return nil, fmt.Errorf("relu input %d, want %d: %w", len(x), r.dim, tensor.ErrShapeMismatch)
	}
	out := tensor.Vector(r.scratch.Grab(len(x)))
	for i, v := range x {
		if v > 0 {
			out[i] = v
		}
	}
	r.lastIn = x
	return out, nil
}

// Backward masks the gradient by the activation pattern.
func (r *ReLU) Backward(grad tensor.Vector) (tensor.Vector, error) {
	if r.lastIn == nil {
		return nil, errors.New("nn: relu backward before forward")
	}
	if len(grad) != r.dim {
		return nil, fmt.Errorf("relu grad %d, want %d: %w", len(grad), r.dim, tensor.ErrShapeMismatch)
	}
	out := tensor.Vector(r.scratch.Grab(len(grad)))
	for i, v := range r.lastIn {
		if v > 0 {
			out[i] = grad[i]
		}
	}
	return out, nil
}

// Params returns nil; ReLU has no parameters.
func (r *ReLU) Params() []tensor.Vector { return nil }

// Grads returns nil; ReLU has no parameters.
func (r *ReLU) Grads() []tensor.Vector { return nil }

// ZeroGrads is a no-op.
func (r *ReLU) ZeroGrads() {}

// InputDim returns the vector length.
func (r *ReLU) InputDim() int { return r.dim }

// OutputDim returns the vector length.
func (r *ReLU) OutputDim() int { return r.dim }

// Name returns "relu".
func (r *ReLU) Name() string { return "relu" }

// Residual wraps an inner layer as y = x + inner(x). The inner layer must
// preserve dimensionality. The paper's AMLayer is a frozen residual block
// whose inner map is Lipschitz-bounded with c < 1, making the whole block an
// invertible 1-1 mapping (Sec. V-A).
type Residual struct {
	Inner Layer
}

var _ Layer = (*Residual)(nil)

// NewResidual wraps inner; inner's input and output dims must match.
func NewResidual(inner Layer) (*Residual, error) {
	if inner.InputDim() != inner.OutputDim() {
		return nil, fmt.Errorf("residual inner %d→%d: %w",
			inner.InputDim(), inner.OutputDim(), ErrNotConnected)
	}
	return &Residual{Inner: inner}, nil
}

// Forward computes x + inner(x).
func (r *Residual) Forward(x tensor.Vector) (tensor.Vector, error) {
	y, err := r.Inner.Forward(x)
	if err != nil {
		return nil, fmt.Errorf("residual forward: %w", err)
	}
	out, err := y.Add(x)
	if err != nil {
		return nil, fmt.Errorf("residual add: %w", err)
	}
	return out, nil
}

// Backward propagates grad through both the identity and the inner branch.
func (r *Residual) Backward(grad tensor.Vector) (tensor.Vector, error) {
	inner, err := r.Inner.Backward(grad)
	if err != nil {
		return nil, fmt.Errorf("residual backward: %w", err)
	}
	out, err := inner.Add(grad)
	if err != nil {
		return nil, fmt.Errorf("residual backward add: %w", err)
	}
	return out, nil
}

// Params delegates to the inner layer.
func (r *Residual) Params() []tensor.Vector { return r.Inner.Params() }

// Grads delegates to the inner layer.
func (r *Residual) Grads() []tensor.Vector { return r.Inner.Grads() }

// ZeroGrads delegates to the inner layer.
func (r *Residual) ZeroGrads() { r.Inner.ZeroGrads() }

// InputDim returns the wrapped dimensionality.
func (r *Residual) InputDim() int { return r.Inner.InputDim() }

// OutputDim returns the wrapped dimensionality.
func (r *Residual) OutputDim() int { return r.Inner.OutputDim() }

// Name returns "residual(inner)".
func (r *Residual) Name() string { return "residual(" + r.Inner.Name() + ")" }
