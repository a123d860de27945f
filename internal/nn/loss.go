package nn

import (
	"errors"
	"fmt"
	"math"

	"rpol/internal/tensor"
)

// ErrBadLabel is returned when a class label is outside the logits range.
var ErrBadLabel = errors.New("nn: label out of range")

// SoftmaxCrossEntropy computes the cross-entropy loss of logits against the
// true class label, and the gradient ∂L/∂logits. It uses the max-shift trick
// for numerical stability.
func SoftmaxCrossEntropy(logits tensor.Vector, label int) (loss float64, grad tensor.Vector, err error) {
	grad = make(tensor.Vector, len(logits))
	loss, err = SoftmaxCrossEntropyInto(grad, logits, label)
	if err != nil {
		return 0, nil, err
	}
	return loss, grad, nil
}

// SoftmaxCrossEntropyInto is SoftmaxCrossEntropy writing the gradient into
// grad instead of allocating. grad may alias logits (the batched trainer
// computes the loss gradient in place over the logits buffer); each element
// is read before it is overwritten. The arithmetic — max shift, ascending-
// index exp sum, normalize, label subtraction — is term-for-term identical
// to the allocating form, so the two produce the same float bits.
func SoftmaxCrossEntropyInto(grad, logits tensor.Vector, label int) (float64, error) {
	if label < 0 || label >= len(logits) {
		return 0, fmt.Errorf("label %d of %d logits: %w", label, len(logits), ErrBadLabel)
	}
	if len(grad) != len(logits) {
		return 0, fmt.Errorf("grad %d for %d logits: %w", len(grad), len(logits), tensor.ErrShapeMismatch)
	}
	maxv := logits[0]
	for _, v := range logits[1:] {
		if v > maxv {
			maxv = v
		}
	}
	var sum float64
	for i, v := range logits {
		e := math.Exp(v - maxv)
		grad[i] = e
		sum += e
	}
	for i, e := range grad {
		grad[i] = e / sum
	}
	loss := -math.Log(grad[label] + 1e-300)
	grad[label] -= 1
	return loss, nil
}

// softmax returns the softmax probabilities of logits.
func softmax(logits tensor.Vector) tensor.Vector {
	if len(logits) == 0 {
		return nil
	}
	maxv := logits[0]
	for _, v := range logits[1:] {
		if v > maxv {
			maxv = v
		}
	}
	out := make(tensor.Vector, len(logits))
	var sum float64
	for i, v := range logits {
		e := math.Exp(v - maxv)
		out[i] = e
		sum += e
	}
	out.Scale(1 / sum)
	return out
}

// Argmax returns the index of the largest element, or -1 for an empty
// vector.
func Argmax(v tensor.Vector) int {
	if len(v) == 0 {
		return -1
	}
	best := 0
	for i, x := range v[1:] {
		if x > v[best] {
			best = i + 1
		}
	}
	return best
}
