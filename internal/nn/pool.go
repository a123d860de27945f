package nn

import (
	"errors"
	"fmt"

	"rpol/internal/parallel"
	"rpol/internal/tensor"
)

// MaxPool2D is a non-overlapping max-pooling layer over a flattened
// (channels, height, width) layout — the downsampling block of the
// convolutional proxy architectures. Window dimensions must divide the
// spatial dimensions.
type MaxPool2D struct {
	C, H, W int
	Window  int

	// argmax caches, per output element, the input index that won the max,
	// for gradient routing. It is reused across Forward calls — every entry
	// is overwritten each pass.
	argmax  []int
	scratch *parallel.Arena

	// Batch-form state: argmaxB holds every row's argmax, one OutputDim
	// stretch per row, reused across ForwardBatch calls like argmax.
	argmaxB []int
	outB    tensor.Matrix
	inGradB tensor.Matrix
}

var _ Layer = (*MaxPool2D)(nil)

// newMaxPool2D returns a window×window max pool over (c, h, w) inputs.
func newMaxPool2D(c, h, w, window int) (*MaxPool2D, error) {
	if c < 1 || h < 1 || w < 1 || window < 1 {
		return nil, errors.New("nn: invalid maxpool geometry")
	}
	if h%window != 0 || w%window != 0 {
		return nil, fmt.Errorf("nn: window %d does not divide %dx%d", window, h, w)
	}
	return &MaxPool2D{C: c, H: h, W: w, Window: window}, nil
}

func (m *MaxPool2D) outH() int { return m.H / m.Window }
func (m *MaxPool2D) outW() int { return m.W / m.Window }

// InputDim returns c·h·w.
func (m *MaxPool2D) InputDim() int { return m.C * m.H * m.W }

// OutputDim returns c·(h/window)·(w/window).
func (m *MaxPool2D) OutputDim() int { return m.C * m.outH() * m.outW() }

// Forward computes the window maxima.
func (m *MaxPool2D) Forward(x tensor.Vector) (tensor.Vector, error) {
	if len(x) != m.InputDim() {
		return nil, fmt.Errorf("maxpool input %d, want %d: %w", len(x), m.InputDim(), tensor.ErrShapeMismatch)
	}
	out := tensor.Vector(m.scratch.Grab(m.OutputDim()))
	if len(m.argmax) != len(out) {
		m.argmax = make([]int, len(out))
	}
	m.forward(out, m.argmax, x)
	return out, nil
}

// ForwardBatch applies Forward's kernel to each row of x in ascending order,
// caching every row's argmax.
func (m *MaxPool2D) ForwardBatch(_ *parallel.Pool, x *tensor.Matrix) (*tensor.Matrix, error) {
	if x.Cols != m.InputDim() {
		return nil, fmt.Errorf("maxpool input %d, want %d: %w", x.Cols, m.InputDim(), tensor.ErrShapeMismatch)
	}
	od := m.OutputDim()
	m.outB = tensor.Matrix{Rows: x.Rows, Cols: od, Data: tensor.Vector(m.scratch.Grab(x.Rows * od))}
	if cap(m.argmaxB) < len(m.outB.Data) {
		m.argmaxB = make([]int, len(m.outB.Data))
	}
	m.argmaxB = m.argmaxB[:len(m.outB.Data)]
	for r := 0; r < x.Rows; r++ {
		m.forward(m.outB.Row(r), m.argmaxB[r*od:(r+1)*od], x.Row(r))
	}
	return &m.outB, nil
}

// forward writes one example's window maxima into out and the input index
// that won each into argmax.
func (m *MaxPool2D) forward(out tensor.Vector, argmax []int, x tensor.Vector) {
	oh, ow := m.outH(), m.outW()
	for c := 0; c < m.C; c++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				bestIdx := (c*m.H+oy*m.Window)*m.W + ox*m.Window
				best := x[bestIdx]
				for ky := 0; ky < m.Window; ky++ {
					for kx := 0; kx < m.Window; kx++ {
						idx := (c*m.H+oy*m.Window+ky)*m.W + ox*m.Window + kx
						if x[idx] > best {
							best = x[idx]
							bestIdx = idx
						}
					}
				}
				o := (c*oh+oy)*ow + ox
				out[o] = best
				argmax[o] = bestIdx
			}
		}
	}
}

// Backward routes each output gradient to the input element that won the
// max.
func (m *MaxPool2D) Backward(grad tensor.Vector) (tensor.Vector, error) {
	if m.argmax == nil {
		return nil, errors.New("nn: maxpool backward before forward")
	}
	if len(grad) != m.OutputDim() {
		return nil, fmt.Errorf("maxpool grad %d, want %d: %w", len(grad), m.OutputDim(), tensor.ErrShapeMismatch)
	}
	in := tensor.Vector(m.scratch.Grab(m.InputDim()))
	route(in, grad, m.argmax)
	return in, nil
}

// BackwardBatch applies Backward's routing to each row.
func (m *MaxPool2D) BackwardBatch(_ *parallel.Pool, grad *tensor.Matrix) (*tensor.Matrix, error) {
	if m.argmaxB == nil {
		return nil, errors.New("nn: maxpool batch backward before forward")
	}
	od := m.OutputDim()
	if grad.Cols != od || grad.Rows*od != len(m.argmaxB) {
		return nil, fmt.Errorf("maxpool grad %dx%d, want %dx%d: %w",
			grad.Rows, grad.Cols, len(m.argmaxB)/od, od, tensor.ErrShapeMismatch)
	}
	m.inGradB = tensor.Matrix{Rows: grad.Rows, Cols: m.InputDim(), Data: tensor.Vector(m.scratch.Grab(grad.Rows * m.InputDim()))}
	for r := 0; r < grad.Rows; r++ {
		route(m.inGradB.Row(r), grad.Row(r), m.argmaxB[r*od:(r+1)*od])
	}
	return &m.inGradB, nil
}

// route adds each output gradient into the zeroed in at its argmax index.
func route(in, grad tensor.Vector, argmax []int) {
	for o, g := range grad {
		in[argmax[o]] += g
	}
}

// Params returns nil; pooling has no parameters.
func (m *MaxPool2D) Params() []tensor.Vector { return nil }

// Grads returns nil; pooling has no parameters.
func (m *MaxPool2D) Grads() []tensor.Vector { return nil }

// ZeroGrads is a no-op.
func (m *MaxPool2D) ZeroGrads() {}

// Name returns "maxpool2d".
func (m *MaxPool2D) Name() string { return "maxpool2d" }
