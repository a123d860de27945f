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
// Determinism contract, shared by every kernel and tier: each output element
// is computed as exactly one left-to-right float64 accumulation chain over the
// SAME index order as the per-example serial loop it replaces. The register
// tiles below widen the number of chains advanced per pass over memory — they
// never split, reorder, or re-associate an individual chain — so the batched
// results are bit-identical to looping MulVecInto/MulVecTInto/AddOuter over
// the batch rows one example at a time.
//
// Blocking scheme: kernels are row-blocked via the *Range forms, so they
// compose with internal/parallel chunking — chunk boundaries depend only on
// shapes and the flop target, never on the worker count. Inside a row block, a tile of gemmTile
// output rows shares each streamed operand row (cache blocking), and the
// per-tile accumulators live in registers (register tiling). The reduction
// dimension is NEVER blocked: k (or the batch index, for AddOuterBatchPool) is
// always the innermost ascending loop of each chain.

// gemmTile is the register-tile height: how many independent accumulation
// chains advance per pass over a shared operand row. Four chains keep the
// working set within the architectural register budget on amd64/arm64 while
// quartering the memory traffic of the dominant streamed operand. It is also
// the AVX2 forward kernel's batch tile, one 256-bit lane per batch row.
const gemmTile = 4

// laneTile is the AVX-512 forward kernel's batch tile: one 512-bit lane per
// batch row. Pool chunks are whole laneTiles (tileGrain), so every chunk of
// either vector tier starts on a packed tile.
const laneTile = 8

// MulMatPackSize returns the pack-scratch length (in float64s) that lets
// MulMatPoolScratch take the host's vector kernel for a
// batch×cols input: whole 8-row tiles on AVX-512 hosts, whole 4-row tiles on
// AVX2 ones. Zero when the host has no vector path — callers Grab(0) and the
// dispatch falls through to the portable kernel.
func MulMatPackSize(batch, cols int) int {
	switch {
	case useAVX512:
		return (batch &^ (laneTile - 1)) * cols
	case useAVX:
		return (batch &^ (gemmTile - 1)) * cols
	}
	return 0
}

func (m *Matrix) checkMulMat(dst, x *Matrix, bias Vector) error {
	if x.Cols != m.Cols || dst.Cols != m.Rows || dst.Rows != x.Rows || (bias != nil && len(bias) != m.Rows) {
		return fmt.Errorf("mulmat %dx%d by %dx%d into %dx%d, bias %d: %w",
			m.Rows, m.Cols, x.Rows, x.Cols, dst.Rows, dst.Cols, len(bias), ErrShapeMismatch)
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
				a00 += float64(wv0 * xv0)
				a01 += float64(wv1 * xv0)
				a02 += float64(wv2 * xv0)
				a03 += float64(wv3 * xv0)
				a10 += float64(wv0 * xv1)
				a11 += float64(wv1 * xv1)
				a12 += float64(wv2 * xv1)
				a13 += float64(wv3 * xv1)
				a20 += float64(wv0 * xv2)
				a21 += float64(wv1 * xv2)
				a22 += float64(wv2 * xv2)
				a23 += float64(wv3 * xv2)
				a30 += float64(wv0 * xv3)
				a31 += float64(wv1 * xv3)
				a32 += float64(wv2 * xv3)
				a33 += float64(wv3 * xv3)
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
				a0 += float64(wv * x0[k])
				a1 += float64(wv * x1[k])
				a2 += float64(wv * x2[k])
				a3 += float64(wv * x3[k])
			}
			d0[i], d1[i], d2[i], d3[i] = a0, a1, a2, a3
		}
	}
	for ; b < hi; b++ {
		m.mulVec(dst.Row(b), x.Row(b))
	}
}

// addBias adds bias to dst rows [lo, hi) after their chains, each element
// as AXPY(1, bias) would (1·b is b), so the per-example Dense.Forward and the
// fused AVX-512 kernel get the same bits. A nil bias adds nothing.
func addBias(dst *Matrix, bias Vector, lo, hi int) {
	if bias == nil {
		return
	}
	for b := lo; b < hi; b++ {
		row := dst.Row(b)[:len(bias)]
		for i, v := range bias {
			row[i] += v
		}
	}
}

// MulMatPoolScratch computes dst = x·mᵀ + bias without allocating: row b of
// dst is m·x.Row(b), the batched form of MulVecInto and bit-identical to
// calling it per row, and bias, when non-nil, is added to every row after
// its chains, the bits of a per-row AXPY(1, bias). Shapes: x is
// batch×m.Cols, dst is batch×m.Rows.
//
// pack is optional scratch: when the host supports a vector kernel and pack
// has MulMatPackSize capacity, whole batch tiles run vectorized. x is
// repacked lane-interleaved and each vector lane advances one output
// element's ascending-k chain — the lanes are the independent per-element
// chains of the portable kernel, so the result is bit-identical either way
// (SIMD here is wall-clock only, never semantics).
//
// dst rows are chunked across the pool; a nil pool runs serially. The pack
// buffer is filled once up front and then only read by the chunks, so
// sharing it is race-free; chunk grain is a whole number of batch tiles, so
// every chunk keeps the vector path.
func (m *Matrix) MulMatPoolScratch(p *parallel.Pool, dst, x *Matrix, bias, pack Vector) error {
	if err := m.checkMulMat(dst, x, bias); err != nil {
		return err
	}
	tier := m.mulMatTier(x, pack)
	if tier != tierPortable {
		packLanes(pack, x, tier.tile())
	}
	if p.Workers() <= 1 {
		m.mulMatRows(tier, dst, x, bias, pack, 0, dst.Rows)
		return nil
	}
	// Grain in whole lane tiles so concurrent chunks never split a tile.
	grain := tileGrain(dst.Rows, m.Rows*m.Cols)
	p.For(dst.Rows, grain, func(lo, hi int) { m.mulMatRows(tier, dst, x, bias, pack, lo, hi) })
	return nil
}

// kernelTier names the code path a kernel call takes. Every tier yields the
// portable loop's bits (DESIGN §14); the tier chooses speed only.
type kernelTier uint8

const (
	tierPortable kernelTier = iota
	tierAVX                 // 256-bit AVX, no FMA
	tierAVX512              // 512-bit AVX-512F, no FMA
)

// tile is the forward kernel's packed batch tile on tier t.
func (t kernelTier) tile() int {
	if t == tierAVX512 {
		return laneTile
	}
	return gemmTile
}

// mulMatTier picks the forward kernel: the host's vector tier when w and dst
// are non-empty, x holds at least one whole tile and pack has room for every
// whole tile, the portable kernel otherwise.
func (m *Matrix) mulMatTier(x *Matrix, pack Vector) kernelTier {
	if m.Rows == 0 || m.Cols == 0 {
		return tierPortable
	}
	fits := func(tile int) bool { return x.Rows >= tile && len(pack) >= (x.Rows&^(tile-1))*x.Cols }
	switch {
	case useAVX512 && fits(laneTile):
		return tierAVX512
	case useAVX && fits(gemmTile):
		return tierAVX
	}
	return tierPortable
}

// mulMatRows fills dst rows [lo, hi) of x·mᵀ + bias on tier t. The AVX-512
// kernel adds the bias itself; the others add it after the rows' chains.
func (m *Matrix) mulMatRows(t kernelTier, dst, x *Matrix, bias, pack Vector, lo, hi int) {
	switch t {
	case tierAVX512:
		m.mulMatRange512(dst, x, bias, pack, lo, hi)
		return
	case tierAVX:
		m.mulMatRangeAVX(dst, x, pack, lo, hi)
	default:
		m.mulMatRange(dst, x, lo, hi)
	}
	addBias(dst, bias, lo, hi)
}

// outerTier picks the accumulation kernel for a dst row of cols columns
// summed over n terms: AVX-512 for any non-empty shape (its column tail runs
// under a mask), AVX2 from one whole 4-column vector up (its tail is
// scalar), the portable kernel otherwise.
func outerTier(n, cols int) kernelTier {
	switch {
	case n == 0 || cols == 0:
		return tierPortable
	case useAVX512:
		return tierAVX512
	case useAVX && cols >= gemmTile:
		return tierAVX
	}
	return tierPortable
}

// mulMatTRows fills dst rows [lo, hi) of dst = x·m on the tier's row kernel.
func (m *Matrix) mulMatTRows(dst, x *Matrix, lo, hi int) {
	switch outerTier(m.Rows, m.Cols) {
	case tierAVX512:
		m.mulMatTRange512(dst, x, lo, hi)
	case tierAVX:
		m.mulMatTRangeAVX(dst, x, lo, hi)
	default:
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
				d0[j] += float64(wv * g0)
				d1[j] += float64(wv * g1)
				d2[j] += float64(wv * g2)
				d3[j] += float64(wv * g3)
			}
		}
	}
	for ; b < hi; b++ {
		m.mulVecT(dst.Row(b), x.Row(b))
	}
}

// MulMatTPool computes dst = x · m without allocating: row b of dst is
// mᵀ·x.Row(b), the batched form of MulVecTInto (backprop through a dense
// layer for a whole batch) and bit-identical to calling it per row. Shapes:
// x is batch×m.Rows, dst is batch×m.Cols. dst rows are chunked across the
// pool, bit-identically for any worker count; a nil pool runs serially.
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
				r0[j] += float64(a0 * yv)
				r1[j] += float64(a1 * yv)
				r2[j] += float64(a2 * yv)
				r3[j] += float64(a3 * yv)
			}
		}
	}
	for ; i < hi; i++ {
		row := m.Row(i)
		for b := 0; b < batch; b++ {
			ax := alpha * x.Row(b)[i]
			yb := y.Row(b)
			for j, yv := range yb {
				row[j] += float64(ax * yv)
			}
		}
	}
}

// addOuterBatchRows accumulates rows [lo, hi) of m on the tier's row kernel.
func (m *Matrix) addOuterBatchRows(alpha float64, x, y *Matrix, lo, hi int) {
	switch outerTier(x.Rows, m.Cols) {
	case tierAVX512:
		m.addOuterBatchRange512(alpha, x, y, lo, hi)
	case tierAVX:
		m.addOuterBatchRangeAVX(alpha, x, y, lo, hi)
	default:
		m.addOuterBatchRange(alpha, x, y, lo, hi)
	}
}

// AddOuterBatchPool performs m += alpha · Σ_b x.Row(b)·y.Row(b)ᵀ in place —
// the batched form of calling AddOuter(alpha, x.Row(b), y.Row(b)) for b
// ascending, and bit-identical to that loop: each m element accumulates its
// per-example terms in ascending batch order on top of its existing value.
// Shapes: x is batch×m.Rows, y is batch×m.Cols. This is the whole-batch
// gradient accumulation for dense layers. m's rows are chunked across the
// pool; each is updated only by its owning chunk, walking the batch in
// ascending order, so the result is bit-identical for any worker count and a
// nil pool runs serially.
func (m *Matrix) AddOuterBatchPool(p *parallel.Pool, alpha float64, x, y *Matrix) error {
	if err := m.checkAddOuterBatch(x, y); err != nil {
		return err
	}
	if p.Workers() <= 1 {
		m.addOuterBatchRows(alpha, x, y, 0, m.Rows)
		return nil
	}
	grain := tileGrain(m.Rows, x.Rows*m.Cols)
	p.For(m.Rows, grain, func(lo, hi int) { m.addOuterBatchRows(alpha, x, y, lo, hi) })
	return nil
}

// AddRows performs v += Σ_r m.Row(r) in place, r ascending, each element as
// AXPY(1, m.Row(r)) would add it — the bias gradient of a dense layer over a
// whole batch. On vector hosts it is the accumulation kernel with a constant
// 1 as x at stride 0 and alpha 1: (1·1)·g is g, so the bits are AXPY's.
func (v Vector) AddRows(m *Matrix) error {
	if len(v) != m.Cols {
		return fmt.Errorf("addrows %d by %dx%d: %w", len(v), m.Rows, m.Cols, ErrShapeMismatch)
	}
	switch outerTier(m.Rows, m.Cols) {
	case tierAVX512:
		addRows512(v, m)
	case tierAVX:
		addRowsAVX(v, m)
	default:
		for r := 0; r < m.Rows; r++ {
			row := m.Row(r)[:len(v)]
			for j, g := range row {
				v[j] += g
			}
		}
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

// tileGrain is chunkGrain rounded up to whole lane tiles, so pool chunks
// never split a laneTile-row tile (a split tile would still be bit-identical
// — remainder loops run the same chains — but whole tiles keep every chunk
// on the fast path and starting on a packed tile).
func tileGrain(n, width int) int {
	g := chunkGrain(n, width)
	if rem := g % laneTile; rem != 0 {
		g += laneTile - rem
	}
	if g > n {
		g = n
	}
	return g
}
