package nn

import (
	"errors"
	"fmt"
	"math"

	"rpol/internal/parallel"
	"rpol/internal/tensor"
)

// LayerNorm normalizes its input to zero mean and unit variance and applies
// a learned affine transform: y = γ·(x − μ)/σ + b. Unlike batch
// normalization it keeps no running statistics, so training remains a pure
// per-example function — the determinism RPoL's re-execution verification
// requires.
type LayerNorm struct {
	Gamma, Beta         tensor.Vector
	GradGamma, GradBeta tensor.Vector
	Eps                 float64
	Frozen              bool

	lastNorm tensor.Vector // (x − μ)/σ cache for backward
	lastStd  float64
	scratch  *parallel.Arena

	// Batch-form state: per-row normalized inputs and σ.
	normB   tensor.Matrix
	stdB    tensor.Vector
	outB    tensor.Matrix
	inGradB tensor.Matrix
}

var _ Layer = (*LayerNorm)(nil)

// newLayerNorm returns a layer norm over vectors of length dim with γ = 1,
// b = 0.
func newLayerNorm(dim int) (*LayerNorm, error) {
	if dim < 2 {
		return nil, errors.New("nn: layernorm needs dim ≥ 2")
	}
	ln := &LayerNorm{
		Gamma:     tensor.NewVector(dim),
		Beta:      tensor.NewVector(dim),
		GradGamma: tensor.NewVector(dim),
		GradBeta:  tensor.NewVector(dim),
		Eps:       1e-5,
	}
	ln.Gamma.Fill(1)
	return ln, nil
}

// Forward normalizes x and applies the affine transform.
func (l *LayerNorm) Forward(x tensor.Vector) (tensor.Vector, error) {
	if len(x) != len(l.Gamma) {
		return nil, fmt.Errorf("layernorm input %d, want %d: %w", len(x), len(l.Gamma), tensor.ErrShapeMismatch)
	}
	norm := tensor.Vector(l.scratch.Grab(len(x)))
	out := tensor.Vector(l.scratch.Grab(len(x)))
	l.lastStd = l.forward(out, norm, x)
	l.lastNorm = norm
	return out, nil
}

// ForwardBatch applies Forward's kernel to each row of x in ascending order,
// caching every row's normalized input and σ.
func (l *LayerNorm) ForwardBatch(_ *parallel.Pool, x *tensor.Matrix) (*tensor.Matrix, error) {
	if x.Cols != len(l.Gamma) {
		return nil, fmt.Errorf("layernorm input %d, want %d: %w", x.Cols, len(l.Gamma), tensor.ErrShapeMismatch)
	}
	l.normB = tensor.Matrix{Rows: x.Rows, Cols: x.Cols, Data: tensor.Vector(l.scratch.Grab(len(x.Data)))}
	l.outB = tensor.Matrix{Rows: x.Rows, Cols: x.Cols, Data: tensor.Vector(l.scratch.Grab(len(x.Data)))}
	l.stdB = tensor.Vector(l.scratch.Grab(x.Rows))
	for r := 0; r < x.Rows; r++ {
		l.stdB[r] = l.forward(l.outB.Row(r), l.normB.Row(r), x.Row(r))
	}
	return &l.outB, nil
}

// forward writes one example's normalized input into norm and its output
// into out, and returns its σ.
func (l *LayerNorm) forward(out, norm, x tensor.Vector) float64 {
	n := float64(len(x))
	var mean float64
	for _, v := range x {
		mean += v
	}
	mean /= n
	var variance float64
	for _, v := range x {
		d := v - mean
		variance += float64(d * d)
	}
	variance /= n
	std := math.Sqrt(variance + l.Eps)
	for i, v := range x {
		norm[i] = (v - mean) / std
		out[i] = float64(l.Gamma[i]*norm[i]) + l.Beta[i]
	}
	return std
}

// Backward computes parameter gradients and the input gradient using the
// standard layer-norm backward pass.
func (l *LayerNorm) Backward(grad tensor.Vector) (tensor.Vector, error) {
	if l.lastNorm == nil {
		return nil, errors.New("nn: layernorm backward before forward")
	}
	if len(grad) != len(l.Gamma) {
		return nil, fmt.Errorf("layernorm grad %d, want %d: %w", len(grad), len(l.Gamma), tensor.ErrShapeMismatch)
	}
	dnorm := tensor.Vector(l.scratch.Grab(len(grad)))
	in := tensor.Vector(l.scratch.Grab(len(grad)))
	l.backward(in, dnorm, grad, l.lastNorm, l.lastStd)
	return in, nil
}

// BackwardBatch applies Backward's kernel to each row in ascending order, so
// the parameter gradients accumulate in the serial example order.
func (l *LayerNorm) BackwardBatch(_ *parallel.Pool, grad *tensor.Matrix) (*tensor.Matrix, error) {
	if l.stdB == nil {
		return nil, errors.New("nn: layernorm batch backward before forward")
	}
	if grad.Cols != len(l.Gamma) || grad.Rows != l.normB.Rows {
		return nil, fmt.Errorf("layernorm grad %dx%d, want %dx%d: %w",
			grad.Rows, grad.Cols, l.normB.Rows, len(l.Gamma), tensor.ErrShapeMismatch)
	}
	dnorm := tensor.Vector(l.scratch.Grab(grad.Cols))
	l.inGradB = tensor.Matrix{Rows: grad.Rows, Cols: grad.Cols, Data: tensor.Vector(l.scratch.Grab(len(grad.Data)))}
	for r := 0; r < grad.Rows; r++ {
		l.backward(l.inGradB.Row(r), dnorm, grad.Row(r), l.normB.Row(r), l.stdB[r])
	}
	return &l.inGradB, nil
}

// backward accumulates one example's γ/b gradients, given its normalized
// input norm and σ, and writes its input gradient into in; dnorm is scratch.
func (l *LayerNorm) backward(in, dnorm, grad, norm tensor.Vector, std float64) {
	n := float64(len(grad))
	// dnorm_i = grad_i · γ_i
	var sumDnorm, sumDnormNorm float64
	for i, g := range grad {
		if !l.Frozen {
			l.GradGamma[i] += float64(g * norm[i])
			l.GradBeta[i] += g
		}
		dnorm[i] = float64(g * l.Gamma[i])
		sumDnorm += dnorm[i]
		sumDnormNorm += float64(dnorm[i] * norm[i])
	}
	for i := range in {
		in[i] = (dnorm[i] - sumDnorm/n - norm[i]*sumDnormNorm/n) / std
	}
}

// Params returns γ and b, or nil when frozen.
func (l *LayerNorm) Params() []tensor.Vector {
	if l.Frozen {
		return nil
	}
	return []tensor.Vector{l.Gamma, l.Beta}
}

// Grads returns the accumulated gradients, or nil when frozen.
func (l *LayerNorm) Grads() []tensor.Vector {
	if l.Frozen {
		return nil
	}
	return []tensor.Vector{l.GradGamma, l.GradBeta}
}

// ZeroGrads clears the accumulated gradients.
func (l *LayerNorm) ZeroGrads() {
	l.GradGamma.Zero()
	l.GradBeta.Zero()
}

// InputDim returns the vector length.
func (l *LayerNorm) InputDim() int { return len(l.Gamma) }

// OutputDim returns the vector length.
func (l *LayerNorm) OutputDim() int { return len(l.Gamma) }

// Name returns "layernorm".
func (l *LayerNorm) Name() string { return "layernorm" }
