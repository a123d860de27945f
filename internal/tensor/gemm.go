package tensor

import (
	"fmt"

	"rpol/internal/parallel"
)

// Batched, register-tiled GEMM kernels. Each kernel processes a whole batch
// of examples (one example per matrix row) in a single call, replacing the
// per-example MulVecInto/MulVecTInto/AddOuter inner loops on the training
// hot path.
//
// Determinism contract, shared by all three kernels: every output element is
// computed as exactly one left-to-right float64 accumulation chain over the
// SAME index order as the per-example serial loop it replaces. The register
// tiles below widen the number of chains advanced per pass over memory — they
// never split, reorder, or re-associate an individual chain — so the batched
// results are bit-identical to looping MulVecInto/MulVecTInto/AddOuter over
// the batch rows one example at a time.
//
// Blocking scheme: kernels are row-blocked via the *Range forms, so they
// compose with internal/parallel chunking exactly like the matvec kernels in
// matrix_pool.go — chunk boundaries depend only on shapes and the flop
// target, never on the worker count. Inside a row block, a tile of gemmTile
// output rows shares each streamed operand row (cache blocking), and the
// per-tile accumulators live in registers (register tiling). The reduction
// dimension is NEVER blocked: k (or the batch index, for AddOuterBatch) is
// always the innermost ascending loop of each chain.

// gemmTile is the register-tile height: how many independent accumulation
// chains advance per pass over a shared operand row. Four chains keep the
// working set within the architectural register budget on amd64/arm64 while
// quartering the memory traffic of the dominant streamed operand.
const gemmTile = 4

// MulMatInto computes dst = x · mᵀ without allocating: row b of dst is
// m·x.Row(b), the batched form of MulVecInto. Shapes: x is batch×m.Cols,
// dst is batch×m.Rows. Bit-identical to calling MulVecInto per row.
func (m *Matrix) MulMatInto(dst, x *Matrix) error {
	return m.MulMatScratch(dst, x, nil)
}

// MulMatPackSize returns the pack-scratch length (in float64s) that lets
// MulMatScratch/MulMatPoolScratch take the SIMD kernel for a batch×cols
// input. Zero when the host has no SIMD path — callers Grab(0) and the
// dispatch falls through to the portable kernels.
func MulMatPackSize(batch, cols int) int {
	if !useAVX {
		return 0
	}
	return (batch &^ (gemmTile - 1)) * cols
}

// MulMatScratch is MulMatInto with optional pack scratch. When the host
// supports the SIMD kernel and pack has MulMatPackSize capacity, full
// gemmTile batch tiles run vectorized: x is repacked lane-interleaved and
// each vector lane advances one output element's ascending-k chain — the
// lanes are the independent per-element chains of the portable kernel, so
// the result is bit-identical either way (SIMD here is wall-clock only,
// never semantics).
func (m *Matrix) MulMatScratch(dst, x *Matrix, pack Vector) error {
	if err := m.checkMulMat(dst, x); err != nil {
		return err
	}
	if avxMulMatOK(m, x, pack) {
		packLanes(pack, x)
		m.mulMatRangeAVX(dst, x, pack, 0, dst.Rows)
		return nil
	}
	m.mulMatRange(dst, x, 0, dst.Rows)
	return nil
}

func (m *Matrix) checkMulMat(dst, x *Matrix) error {
	if x.Cols != m.Cols || dst.Cols != m.Rows || dst.Rows != x.Rows {
		return fmt.Errorf("mulmat %dx%d by %dx%d into %dx%d: %w",
			m.Rows, m.Cols, x.Rows, x.Cols, dst.Rows, dst.Cols, ErrShapeMismatch)
	}
	return nil
}

// mulMatRange fills dst rows [lo, hi) of dst = x·mᵀ. Each dst element is a
// single ascending-k dot product — the exact chain mulVec produces —
// so row-chunking across a pool cannot change any bit of the result.
func (m *Matrix) mulMatRange(dst, x *Matrix, lo, hi int) {
	b := lo
	for ; b+gemmTile <= hi; b += gemmTile {
		x0, x1, x2, x3 := x.Row(b), x.Row(b+1), x.Row(b+2), x.Row(b+3)
		d0, d1, d2, d3 := dst.Row(b), dst.Row(b+1), dst.Row(b+2), dst.Row(b+3)
		i := 0
		for ; i+gemmTile <= m.Rows; i += gemmTile {
			w0 := m.Row(i)
			// Equal-length reslices let the compiler drop the bounds checks
			// inside the accumulation loop.
			w1, w2, w3 := m.Row(i + 1)[:len(w0)], m.Row(i + 2)[:len(w0)], m.Row(i + 3)[:len(w0)]
			y0, y1, y2, y3 := x0[:len(w0)], x1[:len(w0)], x2[:len(w0)], x3[:len(w0)]
			var a00, a01, a02, a03 float64
			var a10, a11, a12, a13 float64
			var a20, a21, a22, a23 float64
			var a30, a31, a32, a33 float64
			for k, wv0 := range w0 {
				wv1, wv2, wv3 := w1[k], w2[k], w3[k]
				xv0, xv1, xv2, xv3 := y0[k], y1[k], y2[k], y3[k]
				a00 += wv0 * xv0
				a01 += wv1 * xv0
				a02 += wv2 * xv0
				a03 += wv3 * xv0
				a10 += wv0 * xv1
				a11 += wv1 * xv1
				a12 += wv2 * xv1
				a13 += wv3 * xv1
				a20 += wv0 * xv2
				a21 += wv1 * xv2
				a22 += wv2 * xv2
				a23 += wv3 * xv2
				a30 += wv0 * xv3
				a31 += wv1 * xv3
				a32 += wv2 * xv3
				a33 += wv3 * xv3
			}
			d0[i], d0[i+1], d0[i+2], d0[i+3] = a00, a01, a02, a03
			d1[i], d1[i+1], d1[i+2], d1[i+3] = a10, a11, a12, a13
			d2[i], d2[i+1], d2[i+2], d2[i+3] = a20, a21, a22, a23
			d3[i], d3[i+1], d3[i+2], d3[i+3] = a30, a31, a32, a33
		}
		for ; i < m.Rows; i++ {
			row := m.Row(i)
			var a0, a1, a2, a3 float64
			for k, wv := range row {
				a0 += wv * x0[k]
				a1 += wv * x1[k]
				a2 += wv * x2[k]
				a3 += wv * x3[k]
			}
			d0[i], d1[i], d2[i], d3[i] = a0, a1, a2, a3
		}
	}
	for ; b < hi; b++ {
		m.mulVec(dst.Row(b), x.Row(b))
	}
}

// MulMatPool is MulMatInto with dst rows chunked across the pool.
// Bit-identical to the serial form for any worker count; a nil pool runs
// serially with no closure overhead.
func (m *Matrix) MulMatPool(p *parallel.Pool, dst, x *Matrix) error {
	return m.MulMatPoolScratch(p, dst, x, nil)
}

// MulMatPoolScratch is MulMatScratch with dst rows chunked across the pool.
// The pack buffer is filled once up front and then only read by the chunks,
// so sharing it is race-free; chunk grain is a whole number of batch tiles,
// so every chunk keeps the vector path.
func (m *Matrix) MulMatPoolScratch(p *parallel.Pool, dst, x *Matrix, pack Vector) error {
	if err := m.checkMulMat(dst, x); err != nil {
		return err
	}
	avx := avxMulMatOK(m, x, pack)
	if avx {
		packLanes(pack, x)
	}
	if p.Workers() <= 1 {
		if avx {
			m.mulMatRangeAVX(dst, x, pack, 0, dst.Rows)
		} else {
			m.mulMatRange(dst, x, 0, dst.Rows)
		}
		return nil
	}
	// Grain in whole register tiles so concurrent chunks never split a tile.
	grain := tileGrain(dst.Rows, m.Rows*m.Cols)
	if avx {
		p.For(dst.Rows, grain, func(lo, hi int) { m.mulMatRangeAVX(dst, x, pack, lo, hi) })
	} else {
		p.For(dst.Rows, grain, func(lo, hi int) { m.mulMatRange(dst, x, lo, hi) })
	}
	return nil
}

// avxMulMatOK gates the SIMD forward kernel: host support, a full-size pack
// buffer, at least one whole batch tile, and a non-empty reduction.
func avxMulMatOK(m, x *Matrix, pack Vector) bool {
	return useAVX && m.Cols > 0 && x.Rows >= gemmTile &&
		len(pack) >= (x.Rows&^(gemmTile-1))*x.Cols
}

// MulMatTInto computes dst = x · m without allocating: row b of dst is
// mᵀ·x.Row(b), the batched form of MulVecTInto (backprop through a dense
// layer for a whole batch). Shapes: x is batch×m.Rows, dst is batch×m.Cols.
// Bit-identical to calling MulVecTInto per row.
func (m *Matrix) MulMatTInto(dst, x *Matrix) error {
	if err := m.checkMulMatT(dst, x); err != nil {
		return err
	}
	m.mulMatTRows(dst, x, 0, dst.Rows)
	return nil
}

// mulMatTRows fills dst rows [lo, hi) of dst = x·m on the SIMD row kernel
// where the host and shape allow — at least one whole vector of columns, as
// for AddOuterBatch — and on the portable kernel otherwise.
func (m *Matrix) mulMatTRows(dst, x *Matrix, lo, hi int) {
	if useAVX && m.Cols >= gemmTile && m.Rows > 0 {
		m.mulMatTRangeAVX(dst, x, lo, hi)
	} else {
		m.mulMatTRange(dst, x, lo, hi)
	}
}

func (m *Matrix) checkMulMatT(dst, x *Matrix) error {
	if x.Cols != m.Rows || dst.Cols != m.Cols || dst.Rows != x.Rows {
		return fmt.Errorf("mulmatT %dx%d by %dx%d into %dx%d: %w",
			m.Rows, m.Cols, x.Rows, x.Cols, dst.Rows, dst.Cols, ErrShapeMismatch)
	}
	return nil
}

// mulMatTRange fills dst rows [lo, hi) of dst = x·m. Each dst element starts
// at zero and accumulates over m's rows in ascending order — the exact chain
// mulVecT produces. A tile of gemmTile batch rows shares each streamed
// row of m, cutting the dominant memory traffic by the tile factor.
func (m *Matrix) mulMatTRange(dst, x *Matrix, lo, hi int) {
	b := lo
	for ; b+gemmTile <= hi; b += gemmTile {
		x0, x1, x2, x3 := x.Row(b), x.Row(b+1), x.Row(b+2), x.Row(b+3)
		d0, d1, d2, d3 := dst.Row(b), dst.Row(b+1), dst.Row(b+2), dst.Row(b+3)
		for j := range d0 {
			d0[j], d1[j], d2[j], d3[j] = 0, 0, 0, 0
		}
		for i := 0; i < m.Rows; i++ {
			row := m.Row(i)
			g0, g1, g2, g3 := x0[i], x1[i], x2[i], x3[i]
			for j, wv := range row {
				d0[j] += wv * g0
				d1[j] += wv * g1
				d2[j] += wv * g2
				d3[j] += wv * g3
			}
		}
	}
	for ; b < hi; b++ {
		m.mulVecT(dst.Row(b), x.Row(b))
	}
}

// MulMatTPool is MulMatTInto with dst rows chunked across the pool.
// Bit-identical to the serial form for any worker count.
func (m *Matrix) MulMatTPool(p *parallel.Pool, dst, x *Matrix) error {
	if err := m.checkMulMatT(dst, x); err != nil {
		return err
	}
	if p.Workers() <= 1 {
		m.mulMatTRows(dst, x, 0, dst.Rows)
		return nil
	}
	grain := tileGrain(dst.Rows, m.Rows*m.Cols)
	p.For(dst.Rows, grain, func(lo, hi int) { m.mulMatTRows(dst, x, lo, hi) })
	return nil
}

// AddOuterBatch performs m += alpha · Σ_b x.Row(b)·y.Row(b)ᵀ in place — the
// batched form of calling AddOuter(alpha, x.Row(b), y.Row(b)) for b
// ascending, and bit-identical to that loop: each m element accumulates its
// per-example terms in ascending batch order on top of its existing value.
// Shapes: x is batch×m.Rows, y is batch×m.Cols. This is the whole-batch
// gradient accumulation for dense layers.
func (m *Matrix) AddOuterBatch(alpha float64, x, y *Matrix) error {
	if err := m.checkAddOuterBatch(x, y); err != nil {
		return err
	}
	if avxAddOuterOK(m, x) {
		m.addOuterBatchRangeAVX(alpha, x, y, 0, m.Rows)
	} else {
		m.addOuterBatchRange(alpha, x, y, 0, m.Rows)
	}
	return nil
}

// avxAddOuterOK gates the SIMD accumulation kernel: host support plus at
// least one whole vector of columns (narrower matrices stay portable).
func avxAddOuterOK(m, x *Matrix) bool {
	return useAVX && m.Cols >= gemmTile && x.Rows > 0
}

func (m *Matrix) checkAddOuterBatch(x, y *Matrix) error {
	if x.Cols != m.Rows || y.Cols != m.Cols || x.Rows != y.Rows {
		return fmt.Errorf("addouterbatch %dx%d by %dx%d and %dx%d: %w",
			m.Rows, m.Cols, x.Rows, x.Cols, y.Rows, y.Cols, ErrShapeMismatch)
	}
	return nil
}

// addOuterBatchRange accumulates rows [lo, hi) of m. Each chunk owns its m
// rows outright and walks the batch in ascending order, so row-chunking
// across a pool is bit-identical to the serial accumulation. A tile of
// gemmTile m-rows shares each streamed y row.
func (m *Matrix) addOuterBatchRange(alpha float64, x, y *Matrix, lo, hi int) {
	batch := x.Rows
	i := lo
	for ; i+gemmTile <= hi; i += gemmTile {
		r0, r1, r2, r3 := m.Row(i), m.Row(i+1), m.Row(i+2), m.Row(i+3)
		for b := 0; b < batch; b++ {
			xb := x.Row(b)
			yb := y.Row(b)
			a0 := alpha * xb[i]
			a1 := alpha * xb[i+1]
			a2 := alpha * xb[i+2]
			a3 := alpha * xb[i+3]
			for j, yv := range yb {
				r0[j] += a0 * yv
				r1[j] += a1 * yv
				r2[j] += a2 * yv
				r3[j] += a3 * yv
			}
		}
	}
	for ; i < hi; i++ {
		row := m.Row(i)
		for b := 0; b < batch; b++ {
			ax := alpha * x.Row(b)[i]
			yb := y.Row(b)
			for j, yv := range yb {
				row[j] += ax * yv
			}
		}
	}
}

// AddOuterBatchPool is AddOuterBatch with m's rows chunked across the pool.
// Each m row is updated only by its owning chunk, walking the batch in
// ascending order, so the result is bit-identical to the serial form for any
// worker count.
func (m *Matrix) AddOuterBatchPool(p *parallel.Pool, alpha float64, x, y *Matrix) error {
	if err := m.checkAddOuterBatch(x, y); err != nil {
		return err
	}
	avx := avxAddOuterOK(m, x)
	if p.Workers() <= 1 {
		if avx {
			m.addOuterBatchRangeAVX(alpha, x, y, 0, m.Rows)
		} else {
			m.addOuterBatchRange(alpha, x, y, 0, m.Rows)
		}
		return nil
	}
	grain := tileGrain(m.Rows, x.Rows*m.Cols)
	if avx {
		p.For(m.Rows, grain, func(lo, hi int) { m.addOuterBatchRangeAVX(alpha, x, y, lo, hi) })
	} else {
		p.For(m.Rows, grain, func(lo, hi int) { m.addOuterBatchRange(alpha, x, y, lo, hi) })
	}
	return nil
}

// kernelFlopTarget sizes row/column chunks so each parallel chunk carries
// roughly this many multiply-adds; below that goroutine handoff costs more
// than the arithmetic. Chunk boundaries derive only from the matrix shape
// and this constant — never from worker count — preserving bit-determinism.
const kernelFlopTarget = 4096

// chunkGrain returns the per-chunk span for a loop of extent n whose body
// costs `width` multiply-adds per index.
func chunkGrain(n, width int) int {
	if width <= 0 {
		width = 1
	}
	g := kernelFlopTarget / width
	if g < 1 {
		g = 1
	}
	if g > n {
		g = n
	}
	return g
}

// tileGrain is chunkGrain rounded up to whole register tiles, so pool chunks
// never split a gemmTile-row tile (a split tile would still be bit-identical
// — remainder loops run the same chains — but whole tiles keep every chunk
// on the fast path).
func tileGrain(n, width int) int {
	g := chunkGrain(n, width)
	if rem := g % gemmTile; rem != 0 {
		g += gemmTile - rem
	}
	if g > n {
		g = n
	}
	return g
}
