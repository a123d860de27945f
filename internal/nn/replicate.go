package nn

import (
	"rpol/internal/parallel"
	"rpol/internal/tensor"
)

// Replicate returns a Dense sharing W and B with private gradient buffers.
func (d *Dense) Replicate() Layer {
	return &Dense{
		W: d.W, B: d.B,
		GradW:  tensor.NewMatrix(d.W.Rows, d.W.Cols),
		GradB:  tensor.NewVector(len(d.B)),
		Frozen: d.Frozen,
	}
}

func (d *Dense) setScratch(a *parallel.Arena) { d.scratch = a }

// Replicate returns a fresh ReLU of the same width.
func (r *ReLU) Replicate() Layer { return &ReLU{dim: r.dim} }

func (r *ReLU) setScratch(a *parallel.Arena) { r.scratch = a }

// Replicate wraps a replica of the inner layer.
func (r *Residual) Replicate() Layer { return &Residual{Inner: r.Inner.Replicate()} }

func (r *Residual) setScratch(a *parallel.Arena) { r.Inner.setScratch(a) }

// Replicate returns a Conv2D sharing the kernel and bias with private
// gradient buffers.
func (c *Conv2D) Replicate() Layer {
	return &Conv2D{
		InC: c.InC, InH: c.InH, InW: c.InW,
		OutC: c.OutC, K: c.K, Pad: c.Pad,
		W: c.W, B: c.B,
		GradW:  tensor.NewVector(len(c.GradW)),
		GradB:  tensor.NewVector(len(c.GradB)),
		Frozen: c.Frozen,
	}
}

func (c *Conv2D) setScratch(a *parallel.Arena) { c.scratch = a }

// Replicate returns a LayerNorm sharing γ and b with private gradient
// buffers.
func (l *LayerNorm) Replicate() Layer {
	return &LayerNorm{
		Gamma: l.Gamma, Beta: l.Beta,
		GradGamma: tensor.NewVector(len(l.GradGamma)),
		GradBeta:  tensor.NewVector(len(l.GradBeta)),
		Eps:       l.Eps,
		Frozen:    l.Frozen,
	}
}

func (l *LayerNorm) setScratch(a *parallel.Arena) { l.scratch = a }

// Replicate returns a fresh MaxPool2D of the same geometry.
func (m *MaxPool2D) Replicate() Layer {
	return &MaxPool2D{C: m.C, H: m.H, W: m.W, Window: m.Window}
}

func (m *MaxPool2D) setScratch(a *parallel.Arena) { m.scratch = a }

// Replicate returns a replica of the network: parameter storage is aliased
// (writes to the source's weights are visible, e.g. an optimizer step
// between batches) while gradients and forward caches are private.
//
// The replica snapshots the layer graph at call time: architecture mutations
// on the source afterwards (e.g. amlayer.ReplaceDense swapping a residual's
// inner layer) are NOT reflected — replicate after the architecture is
// final.
func (n *Network) Replicate() *Network {
	layers := make([]Layer, len(n.Layers))
	for i, l := range n.Layers {
		layers[i] = l.Replicate()
	}
	return &Network{Layers: layers}
}

// setScratch installs an arena on every layer. Only replica networks get
// arenas: their buffers are recycled after each batch, an ownership
// discipline the package controls internally.
func (n *Network) setScratch(a *parallel.Arena) {
	for _, l := range n.Layers {
		l.setScratch(a)
	}
}
