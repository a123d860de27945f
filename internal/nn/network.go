package nn

import (
	"errors"
	"fmt"

	"rpol/internal/parallel"
	"rpol/internal/tensor"
)

// Network is a sequential stack of layers trained with softmax
// cross-entropy. It exposes its trainable parameters as one flattened
// vector — the representation RPoL checkpoints, hashes, and LSH-digests.
//
// A network has one layer graph. Its batch entry points, BatchTrainer and
// Accuracy, run on those layers with the network's arena installed for
// their length; the per-example Forward, Backward, TrainBatch and Predict,
// the oracle the batch forms are held to, run with it detached, so their
// results are fresh allocations the caller may keep.
type Network struct {
	Layers []Layer

	// arena holds the batch entry points' buffers, reset by each batch; xb
	// is the matrix the batch is packed into.
	arena parallel.Arena
	xb    tensor.Matrix
}

// NewNetwork validates that consecutive layers connect and returns the
// stack.
func NewNetwork(layers ...Layer) (*Network, error) {
	if len(layers) == 0 {
		return nil, errors.New("nn: empty network")
	}
	for i := 1; i < len(layers); i++ {
		if layers[i-1].OutputDim() != layers[i].InputDim() {
			return nil, fmt.Errorf("layer %d (%s) out %d vs layer %d (%s) in %d: %w",
				i-1, layers[i-1].Name(), layers[i-1].OutputDim(),
				i, layers[i].Name(), layers[i].InputDim(), ErrNotConnected)
		}
	}
	return &Network{Layers: layers}, nil
}

// Forward runs x through every layer and returns the logits, with the
// arena detached (see Network).
func (n *Network) Forward(x tensor.Vector) (tensor.Vector, error) {
	cur := x
	for i, l := range n.Layers {
		out, err := l.Forward(cur)
		if err != nil {
			return nil, fmt.Errorf("layer %d (%s): %w", i, l.Name(), err)
		}
		cur = out
	}
	return cur, nil
}

// Backward propagates the loss gradient through every layer in reverse,
// accumulating parameter gradients, with the arena detached (see Network).
func (n *Network) Backward(grad tensor.Vector) error {
	cur := grad
	for i := len(n.Layers) - 1; i >= 0; i-- {
		out, err := n.Layers[i].Backward(cur)
		if err != nil {
			return fmt.Errorf("layer %d (%s): %w", i, n.Layers[i].Name(), err)
		}
		cur = out
	}
	return nil
}

// ZeroGrads clears accumulated gradients across all layers.
func (n *Network) ZeroGrads() {
	for _, l := range n.Layers {
		l.ZeroGrads()
	}
}

// Params returns the trainable parameter tensors of all layers, in order.
// The returned slices alias network storage.
func (n *Network) Params() []tensor.Vector {
	var out []tensor.Vector
	for _, l := range n.Layers {
		out = append(out, l.Params()...)
	}
	return out
}

// Grads returns the gradient tensors positionally matching Params.
func (n *Network) Grads() []tensor.Vector {
	var out []tensor.Vector
	for _, l := range n.Layers {
		out = append(out, l.Grads()...)
	}
	return out
}

// NumParams returns the total count of trainable parameters.
func (n *Network) NumParams() int {
	total := 0
	for _, p := range n.Params() {
		total += len(p)
	}
	return total
}

// ParamVector returns a copy of all trainable parameters flattened into one
// vector — the model-weight representation used for checkpoints,
// commitments, and distance measurement throughout the protocol.
func (n *Network) ParamVector() tensor.Vector {
	return n.AppendParams(make(tensor.Vector, 0, n.NumParams()))
}

// AppendParams appends the flattened trainable parameters to dst and returns
// the extended slice — the buffer-reusing form of ParamVector for callers
// that snapshot weights every step (verifier replay, distance checks).
func (n *Network) AppendParams(dst tensor.Vector) tensor.Vector {
	return FlattenParams(dst, n.Params())
}

// FlattenParams is AppendParams over tensors a caller already holds from
// Params, for loops that would otherwise re-collect them per snapshot.
func FlattenParams(dst tensor.Vector, params []tensor.Vector) tensor.Vector {
	for _, p := range params {
		dst = append(dst, p...)
	}
	return dst
}

// SetParamVector loads a flattened parameter vector produced by
// ParamVector back into the network.
func (n *Network) SetParamVector(v tensor.Vector) error {
	return LoadParams(n.Params(), v)
}

// LoadParams is SetParamVector over tensors a caller already holds from
// Params.
func LoadParams(params []tensor.Vector, v tensor.Vector) error {
	total := 0
	for _, p := range params {
		total += len(p)
	}
	if len(v) != total {
		return fmt.Errorf("param vector %d, want %d: %w", len(v), total, tensor.ErrShapeMismatch)
	}
	off := 0
	for _, p := range params {
		copy(p, v[off:off+len(p)])
		off += len(p)
	}
	return nil
}

// TrainBatch runs one optimization step over the batch (xs, labels) and
// returns the mean loss. Gradients are averaged over the batch. The update
// is fully deterministic given the inputs, which is the property RPoL's
// re-execution verification needs. It is the per-example oracle, with the
// arena detached (see Network).
func (n *Network) TrainBatch(xs []tensor.Vector, labels []int, opt Optimizer) (float64, error) {
	if len(xs) == 0 || len(xs) != len(labels) {
		return 0, fmt.Errorf("batch %d inputs vs %d labels: %w", len(xs), len(labels), tensor.ErrShapeMismatch)
	}
	n.ZeroGrads()
	var total float64
	for i, x := range xs {
		logits, err := n.Forward(x)
		if err != nil {
			return 0, err
		}
		loss, grad, err := SoftmaxCrossEntropy(logits, labels[i])
		if err != nil {
			return 0, err
		}
		total += loss
		grad.Scale(1 / float64(len(xs)))
		if err := n.Backward(grad); err != nil {
			return 0, err
		}
	}
	if err := opt.Step(n.Params(), n.Grads()); err != nil {
		return 0, err
	}
	return total / float64(len(xs)), nil
}

// Predict returns the argmax class for input x, with the arena detached
// (see Network).
func (n *Network) Predict(x tensor.Vector) (int, error) {
	logits, err := n.Forward(x)
	if err != nil {
		return 0, err
	}
	return Argmax(logits), nil
}

// evalTile is how many examples Network.Accuracy forwards per batched call.
const evalTile = 64

// Accuracy returns the fraction of (xs, labels) classified correctly. It
// pushes evalTile examples at a time through the batch forms of the
// network's own layers; they are bit-identical to Forward per row, so every
// prediction is Predict's.
func (n *Network) Accuracy(xs []tensor.Vector, labels []int) (float64, error) {
	if len(xs) == 0 || len(xs) != len(labels) {
		return 0, fmt.Errorf("eval %d inputs vs %d labels: %w", len(xs), len(labels), tensor.ErrShapeMismatch)
	}
	n.attach()
	defer n.setScratch(nil)
	correct := 0
	for lo := 0; lo < len(xs); lo += evalTile {
		hi := min(lo+evalTile, len(xs))
		out, err := n.forwardBatch(nil, xs[lo:hi])
		if err != nil {
			return 0, err
		}
		for i, label := range labels[lo:hi] {
			if Argmax(out.Row(i)) == label {
				correct++
			}
		}
	}
	return float64(correct) / float64(len(xs)), nil
}
