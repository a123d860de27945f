package nn

import (
	"errors"
	"fmt"
	"math"

	"rpol/internal/parallel"
	"rpol/internal/tensor"
)

// Conv2D is a stride-1 2-D convolution over a flattened (channels, height,
// width) input layout. It is the building block for the paper's
// convolutional AMLayer (3→64 channels, 3×3 kernel, padding 1, Sec. VII-B)
// and for the small convolutional proxy models in internal/modelzoo.
type Conv2D struct {
	InC, InH, InW int
	OutC          int
	K             int // square kernel size
	Pad           int
	// W is laid out [outC][inC][K][K]; B has one bias per output channel.
	W, B         tensor.Vector
	GradW, GradB tensor.Vector
	Frozen       bool

	lastIn  tensor.Vector
	scratch *parallel.Arena

	// Batch-form state: the cached batch input, one example per row.
	outB    tensor.Matrix
	inGradB tensor.Matrix
	lastInB *tensor.Matrix
}

var _ Layer = (*Conv2D)(nil)

// NewConv2D returns a stride-1 convolution with Xavier-initialized weights.
func NewConv2D(inC, inH, inW, outC, k, pad int, rng *tensor.RNG) (*Conv2D, error) {
	if inC < 1 || inH < 1 || inW < 1 || outC < 1 || k < 1 || pad < 0 {
		return nil, errors.New("nn: invalid conv2d geometry")
	}
	if inH+2*pad < k || inW+2*pad < k {
		return nil, errors.New("nn: conv2d kernel larger than padded input")
	}
	fanIn := inC * k * k
	fanOut := outC * k * k
	limit := math.Sqrt(6 / float64(fanIn+fanOut))
	c := &Conv2D{
		InC: inC, InH: inH, InW: inW,
		OutC: outC, K: k, Pad: pad,
		W:     rng.UniformVector(outC*fanIn, -limit, limit),
		B:     tensor.NewVector(outC),
		GradW: tensor.NewVector(outC * fanIn),
		GradB: tensor.NewVector(outC),
	}
	return c, nil
}

// outH and outW are the spatial output dims for stride-1 convolution.
func (c *Conv2D) outH() int { return c.InH + 2*c.Pad - c.K + 1 }
func (c *Conv2D) outW() int { return c.InW + 2*c.Pad - c.K + 1 }

// InputDim returns inC·inH·inW.
func (c *Conv2D) InputDim() int { return c.InC * c.InH * c.InW }

// OutputDim returns outC·outH·outW.
func (c *Conv2D) OutputDim() int { return c.OutC * c.outH() * c.outW() }

// weight returns w[oc][ic][ki][kj].
func (c *Conv2D) weight(oc, ic, ki, kj int) float64 {
	return c.W[((oc*c.InC+ic)*c.K+ki)*c.K+kj]
}

func (c *Conv2D) gradWAt(oc, ic, ki, kj int) *float64 {
	return &c.GradW[((oc*c.InC+ic)*c.K+ki)*c.K+kj]
}

// Forward computes the stride-1 convolution with zero padding.
func (c *Conv2D) Forward(x tensor.Vector) (tensor.Vector, error) {
	if len(x) != c.InputDim() {
		return nil, fmt.Errorf("conv2d input %d, want %d: %w", len(x), c.InputDim(), tensor.ErrShapeMismatch)
	}
	out := tensor.Vector(c.scratch.Grab(c.OutputDim()))
	c.forward(out, x)
	c.lastIn = x
	return out, nil
}

// ForwardBatch applies Forward's kernel to each row of x in ascending order.
func (c *Conv2D) ForwardBatch(_ *parallel.Pool, x *tensor.Matrix) (*tensor.Matrix, error) {
	if x.Cols != c.InputDim() {
		return nil, fmt.Errorf("conv2d input %d, want %d: %w", x.Cols, c.InputDim(), tensor.ErrShapeMismatch)
	}
	c.outB = tensor.Matrix{Rows: x.Rows, Cols: c.OutputDim(), Data: tensor.Vector(c.scratch.Grab(x.Rows * c.OutputDim()))}
	for r := 0; r < x.Rows; r++ {
		c.forward(c.outB.Row(r), x.Row(r))
	}
	c.lastInB = x
	return &c.outB, nil
}

// forward writes the convolution of one example x into out.
func (c *Conv2D) forward(out, x tensor.Vector) {
	oh, ow := c.outH(), c.outW()
	for oc := 0; oc < c.OutC; oc++ {
		bias := c.B[oc]
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				s := bias
				for ic := 0; ic < c.InC; ic++ {
					for ki := 0; ki < c.K; ki++ {
						iy := oy + ki - c.Pad
						if iy < 0 || iy >= c.InH {
							continue
						}
						for kj := 0; kj < c.K; kj++ {
							ix := ox + kj - c.Pad
							if ix < 0 || ix >= c.InW {
								continue
							}
							s += c.weight(oc, ic, ki, kj) * x[(ic*c.InH+iy)*c.InW+ix]
						}
					}
				}
				out[(oc*oh+oy)*ow+ox] = s
			}
		}
	}
}

// Backward accumulates weight/bias gradients and returns the input gradient.
func (c *Conv2D) Backward(grad tensor.Vector) (tensor.Vector, error) {
	if c.lastIn == nil {
		return nil, errors.New("nn: conv2d backward before forward")
	}
	if len(grad) != c.OutputDim() {
		return nil, fmt.Errorf("conv2d grad %d, want %d: %w", len(grad), c.OutputDim(), tensor.ErrShapeMismatch)
	}
	gin := tensor.Vector(c.scratch.Grab(c.InputDim()))
	c.backward(gin, grad, c.lastIn)
	return gin, nil
}

// BackwardBatch applies Backward's kernel to each row in ascending order, so
// the parameter gradients accumulate in the serial example order.
func (c *Conv2D) BackwardBatch(_ *parallel.Pool, grad *tensor.Matrix) (*tensor.Matrix, error) {
	if c.lastInB == nil {
		return nil, errors.New("nn: conv2d batch backward before forward")
	}
	if grad.Cols != c.OutputDim() || grad.Rows != c.lastInB.Rows {
		return nil, fmt.Errorf("conv2d grad %dx%d, want %dx%d: %w",
			grad.Rows, grad.Cols, c.lastInB.Rows, c.OutputDim(), tensor.ErrShapeMismatch)
	}
	c.inGradB = tensor.Matrix{Rows: grad.Rows, Cols: c.InputDim(), Data: tensor.Vector(c.scratch.Grab(grad.Rows * c.InputDim()))}
	for r := 0; r < grad.Rows; r++ {
		c.backward(c.inGradB.Row(r), grad.Row(r), c.lastInB.Row(r))
	}
	return &c.inGradB, nil
}

// backward accumulates one example's weight/bias gradients, given its input
// x and output gradient grad, and adds its input gradient into the zeroed
// gin.
func (c *Conv2D) backward(gin, grad, x tensor.Vector) {
	oh, ow := c.outH(), c.outW()
	for oc := 0; oc < c.OutC; oc++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				g := grad[(oc*oh+oy)*ow+ox]
				if g == 0 {
					continue
				}
				if !c.Frozen {
					c.GradB[oc] += g
				}
				for ic := 0; ic < c.InC; ic++ {
					for ki := 0; ki < c.K; ki++ {
						iy := oy + ki - c.Pad
						if iy < 0 || iy >= c.InH {
							continue
						}
						for kj := 0; kj < c.K; kj++ {
							ix := ox + kj - c.Pad
							if ix < 0 || ix >= c.InW {
								continue
							}
							in := x[(ic*c.InH+iy)*c.InW+ix]
							if !c.Frozen {
								*c.gradWAt(oc, ic, ki, kj) += g * in
							}
							gin[(ic*c.InH+iy)*c.InW+ix] += g * c.weight(oc, ic, ki, kj)
						}
					}
				}
			}
		}
	}
}

// Params returns the kernel and bias storage, or nil when frozen.
func (c *Conv2D) Params() []tensor.Vector {
	if c.Frozen {
		return nil
	}
	return []tensor.Vector{c.W, c.B}
}

// Grads returns the accumulated gradients, or nil when frozen.
func (c *Conv2D) Grads() []tensor.Vector {
	if c.Frozen {
		return nil
	}
	return []tensor.Vector{c.GradW, c.GradB}
}

// ZeroGrads clears the accumulated gradients.
func (c *Conv2D) ZeroGrads() {
	c.GradW.Zero()
	c.GradB.Zero()
}

// Name returns "conv2d".
func (c *Conv2D) Name() string { return "conv2d" }

// WeightMatrix views the kernel as an outC×(inC·K·K) matrix sharing storage
// with the layer. Spectral normalization for the AMLayer operates on this
// view (Eq. 4).
func (c *Conv2D) WeightMatrix() *tensor.Matrix {
	return &tensor.Matrix{Rows: c.OutC, Cols: c.InC * c.K * c.K, Data: c.W}
}
