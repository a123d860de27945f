// Package amlayer implements the paper's address-encoded mapping layer
// (AMLayer, Sec. V-A): a non-trainable residual layer whose weights are a
// deterministic pseudo-random function of the pool manager's blockchain
// address, prepended to the model before training.
//
// Properties delivered:
//
//   - Ownership binding. Any consensus node can regenerate the layer from
//     the block proposer's address and check bit-for-bit that the submitted
//     model embeds it; mining rewards go to the encoded address.
//   - No information loss. The residual inner map is spectral-normalized to
//     Lipschitz constant c < 1 (Eq. 3/4), which makes x ↦ x + f(x) an
//     invertible 1-1 mapping — the upper layers see a lossless re-encoding
//     of the input (Behrmann et al., invertible residual networks).
//   - Tamper evidence. Replacing the AMLayer with one encoding a different
//     address re-encodes every input through a different random map, which
//     collapses the accuracy of the stolen model (the address-replacing
//     attack of Sec. VII-B).
package amlayer

import (
	"errors"
	"fmt"

	"rpol/internal/nn"
	"rpol/internal/prf"
	"rpol/internal/tensor"
)

// Config tunes AMLayer generation.
type Config struct {
	// ScalingC is the Lipschitz bound c < 1 of Eq. (3). The paper's
	// evaluation uses 0.5 (Sec. VII-B).
	ScalingC float64
	// PowerIters is the number of power-iteration rounds used to estimate
	// the maximum singular value for spectral normalization (Eq. 4).
	PowerIters int
}

// DefaultConfig mirrors the paper's evaluation settings.
func DefaultConfig() Config { return Config{ScalingC: 0.5, PowerIters: 200} }

// DefaultStackDepth is the AMLayer depth the pool simulation and the
// experiment harness use for the dense proxy variant (see NewDenseStack).
const DefaultStackDepth = 5

// StackConfig returns the configuration for the dense proxy AMLayer stack.
// The paper's conv AMLayer at c = 0.5 collapses a stolen model because an
// 18+-layer network amplifies the re-encoding mismatch; the shallow proxy
// MLPs need a stronger per-block map (c = 0.9, still < 1, so every block
// stays invertible) to reproduce that collapse. See DESIGN.md.
func StackConfig() Config { return Config{ScalingC: 0.9, PowerIters: 200} }

// Errors returned by AMLayer operations.
var (
	ErrBadConfig = errors.New("amlayer: scaling coefficient must be in (0, 1)")
	ErrNotFound  = errors.New("amlayer: network does not start with an AMLayer")
	ErrMismatch  = errors.New("amlayer: weights do not encode the claimed address")
)

func (c Config) validate() error {
	if c.ScalingC <= 0 || c.ScalingC >= 1 {
		return fmt.Errorf("c = %v: %w", c.ScalingC, ErrBadConfig)
	}
	return nil
}

func (c Config) iters() int {
	if c.PowerIters <= 0 {
		return 200
	}
	return c.PowerIters
}

// NewDense generates the dense-variant AMLayer for flat inputs of length
// dim: a frozen residual block whose inner dense map is PRF-seeded from the
// address and spectral-normalized to ScalingC.
func NewDense(address string, dim int, cfg Config) (*nn.Residual, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if dim < 1 {
		return nil, fmt.Errorf("amlayer: dimension %d", dim)
	}
	inner := denseInner(address, dim, cfg)
	res, err := nn.NewResidual(inner)
	if err != nil {
		return nil, fmt.Errorf("amlayer: %w", err)
	}
	return res, nil
}

func denseInner(address string, dim int, cfg Config) *nn.Dense {
	rng := tensor.NewRNG(prf.SeedFromString("amlayer/" + address))
	inner := nn.NewDense(dim, dim, rng)
	inner.B = rng.NormalVector(dim, 0, 0.01)
	nn.SpectralNormalize(inner.W, cfg.ScalingC, cfg.iters())
	inner.Frozen = true
	return inner
}

// newConv generates the convolutional-variant AMLayer for (channels, h, w)
// inputs: a frozen residual block around a channel-preserving 3×3 same-
// padding convolution, matching the shape of the paper's conv AMLayer.
func newConv(address string, channels, h, w int, cfg Config) (*nn.Residual, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rng := tensor.NewRNG(prf.SeedFromString("amlayer-conv/" + address))
	conv, err := nn.NewConv2D(channels, h, w, channels, 3, 1, rng)
	if err != nil {
		return nil, fmt.Errorf("amlayer: %w", err)
	}
	// Spectral-normalize the kernel viewed as an outC×(inC·K·K) matrix. This
	// bounds the per-patch operator norm; combined with the small c it keeps
	// the residual map contractive in practice.
	nn.SpectralNormalize(conv.WeightMatrix(), cfg.ScalingC, cfg.iters())
	conv.Frozen = true
	res, err := nn.NewResidual(conv)
	if err != nil {
		return nil, fmt.Errorf("amlayer: %w", err)
	}
	return res, nil
}

// Prepend returns a new network with the AMLayer in front of net's layers,
// as the manager does when initializing the training task.
func Prepend(layer *nn.Residual, net *nn.Network) (*nn.Network, error) {
	layers := make([]nn.Layer, 0, len(net.Layers)+1)
	layers = append(layers, layer)
	layers = append(layers, net.Layers...)
	out, err := nn.NewNetwork(layers...)
	if err != nil {
		return nil, fmt.Errorf("amlayer prepend: %w", err)
	}
	return out, nil
}

// VerifyDense recomputes the dense AMLayer from the claimed address and
// checks bit-for-bit that the network's first layer embeds it. This is the
// consensus-node check that decides who owns a proposed model.
func VerifyDense(net *nn.Network, address string, cfg Config) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	if len(net.Layers) == 0 {
		return ErrNotFound
	}
	res, ok := net.Layers[0].(*nn.Residual)
	if !ok {
		return ErrNotFound
	}
	got, ok := res.Inner.(*nn.Dense)
	if !ok {
		return ErrNotFound
	}
	want := denseInner(address, got.InputDim(), cfg)
	if !got.W.Data.Equal(want.W.Data, 0) || !got.B.Equal(want.B, 0) {
		return fmt.Errorf("address %q: %w", address, ErrMismatch)
	}
	return nil
}

// replaceDense swaps the network's leading dense AMLayer for one encoding
// attackerAddress — the address-replacing attack evaluated in Sec. VII-B.
// It mutates net in place and returns an error if net has no dense AMLayer.
func replaceDense(net *nn.Network, attackerAddress string, cfg Config) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	if len(net.Layers) == 0 {
		return ErrNotFound
	}
	res, ok := net.Layers[0].(*nn.Residual)
	if !ok {
		return ErrNotFound
	}
	inner, ok := res.Inner.(*nn.Dense)
	if !ok {
		return ErrNotFound
	}
	res.Inner = denseInner(attackerAddress, inner.InputDim(), cfg)
	return nil
}

// NewDenseStack generates a depth-`blocks` AMLayer: a chain of frozen
// residual blocks, each PRF-seeded from (address, block index). A single
// residual block with Lipschitz-bounded inner map stays close to the
// identity, which limits how much damage an address-replacing attack does to
// a shallow downstream model; composing several blocks amplifies the
// divergence between two addresses' encodings while every block remains
// individually invertible, so the stack is still a lossless 1-1 mapping.
func NewDenseStack(address string, dim, blocks int, cfg Config) ([]*nn.Residual, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if dim < 1 || blocks < 1 {
		return nil, fmt.Errorf("amlayer: dim %d, blocks %d", dim, blocks)
	}
	out := make([]*nn.Residual, blocks)
	for i := range out {
		inner := denseInner(fmt.Sprintf("%s#%d", address, i), dim, cfg)
		res, err := nn.NewResidual(inner)
		if err != nil {
			return nil, fmt.Errorf("amlayer block %d: %w", i, err)
		}
		out[i] = res
	}
	return out, nil
}

// PrependStack returns a new network with the whole AMLayer stack in front
// of net's layers.
func PrependStack(stack []*nn.Residual, net *nn.Network) (*nn.Network, error) {
	layers := make([]nn.Layer, 0, len(net.Layers)+len(stack))
	for _, l := range stack {
		layers = append(layers, l)
	}
	layers = append(layers, net.Layers...)
	out, err := nn.NewNetwork(layers...)
	if err != nil {
		return nil, fmt.Errorf("amlayer prepend stack: %w", err)
	}
	return out, nil
}

// leadingStack returns the network's leading frozen residual-dense blocks.
func leadingStack(net *nn.Network) []*nn.Residual {
	var out []*nn.Residual
	for _, l := range net.Layers {
		res, ok := l.(*nn.Residual)
		if !ok {
			break
		}
		if _, ok := res.Inner.(*nn.Dense); !ok {
			break
		}
		out = append(out, res)
	}
	return out
}

// VerifyDenseStack recomputes a depth-`blocks` AMLayer stack from the
// claimed address and checks bit-for-bit that the network's leading layers
// embed it.
func VerifyDenseStack(net *nn.Network, address string, blocks int, cfg Config) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	stack := leadingStack(net)
	if len(stack) < blocks {
		return ErrNotFound
	}
	for i := 0; i < blocks; i++ {
		got, ok := stack[i].Inner.(*nn.Dense)
		if !ok {
			return ErrNotFound
		}
		want := denseInner(fmt.Sprintf("%s#%d", address, i), got.InputDim(), cfg)
		if !got.W.Data.Equal(want.W.Data, 0) || !got.B.Equal(want.B, 0) {
			return fmt.Errorf("block %d, address %q: %w", i, address, ErrMismatch)
		}
	}
	return nil
}

// ReplaceDenseStack swaps every leading AMLayer block for ones encoding
// attackerAddress — the stacked variant of the address-replacing attack.
func ReplaceDenseStack(net *nn.Network, attackerAddress string, cfg Config) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	stack := leadingStack(net)
	if len(stack) == 0 {
		return ErrNotFound
	}
	for i, res := range stack {
		inner := res.Inner.(*nn.Dense)
		res.Inner = denseInner(fmt.Sprintf("%s#%d", attackerAddress, i), inner.InputDim(), cfg)
	}
	return nil
}

// invert recovers the input x from y = AMLayer(x) by fixed-point iteration
// x ← y − f(x), which converges because the inner map is a contraction
// (Lipschitz constant c < 1). It demonstrates the layer's losslessness.
func invert(layer *nn.Residual, y tensor.Vector, iters int) (tensor.Vector, error) {
	if iters <= 0 {
		iters = 100
	}
	x := y.Clone()
	for i := 0; i < iters; i++ {
		fx, err := layer.Inner.Forward(x)
		if err != nil {
			return nil, fmt.Errorf("amlayer invert: %w", err)
		}
		next, err := y.Sub(fx)
		if err != nil {
			return nil, fmt.Errorf("amlayer invert: %w", err)
		}
		x = next
	}
	return x, nil
}
