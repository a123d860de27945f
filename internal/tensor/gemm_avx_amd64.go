//go:build amd64

package tensor

// Vector dispatch for the batched GEMM kernels (gemm_amd64.s for AVX2,
// gemm512_amd64.s for AVX-512). The vector kernels change wall-clock only,
// never bits: each lane carries one output element's accumulation chain, in
// the same ascending reduction order as the portable kernels, using
// VMULPD/VADDPD (identical IEEE-754 rounding to scalar multiply and add —
// deliberately no FMA, whose single rounding would change low-order bits).

// mulMatPackAVX computes, for one lane-packed batch tile of gemmTile rows,
// dst[l*dstStride+i] = Σ_k w[i*k̂+k]·xpack[k*gemmTile+l] for i in [0, rows),
// l in [0, gemmTile). Each (l, i) output is a single ascending-k chain held
// in one vector lane. Implemented in gemm_amd64.s.
//
//go:noescape
func mulMatPackAVX(w, xpack, dst *float64, k, rows, dstStride int)

// mulMatPack512 is mulMatPackAVX for a laneTile-row tile, eight w rows per
// pass, with bias[i] (when bias is non-nil) added to each chain before its
// store. k and rows must be at least 1. Implemented in gemm512_amd64.s.
//
//go:noescape
func mulMatPack512(w, xpack, dst, bias *float64, k, rows, dstStride int)

// addOuterRowAVX accumulates one m row: dst[j] += (alpha·x[b·xStride]) ·
// y[b·yStride+j] for b ascending, j in [0, cols&^3). Accumulators stay in
// vector registers across the whole batch loop; each lane is one column's
// ascending-b chain. Implemented in gemm_amd64.s.
//
//go:noescape
func addOuterRowAVX(dst, x, y *float64, batch, cols, xStride, yStride int, alpha float64)

// addOuterRow512 is addOuterRowAVX over all cols columns, up to 32 per pass,
// the column tail under a mask. batch and cols must be at least 1.
// Implemented in gemm512_amd64.s.
//
//go:noescape
func addOuterRow512(dst, x, y *float64, batch, cols, xStride, yStride int, alpha float64)

// packLanes interleaves whole tile-row tiles of x lane-major:
// pack[t·K + k·tile + l] = x.Row(t+l)[k] for t a multiple of tile. Trailing
// rows (batch % tile) are left unpacked; the range kernels fall back to the
// scalar path for them.
func packLanes(pack Vector, x *Matrix, tile int) {
	k := x.Cols
	for t := 0; t+tile <= x.Rows; t += tile {
		p := pack[t*k : (t+tile)*k]
		for l := 0; l < tile; l++ {
			for j, v := range x.Row(t + l) {
				p[j*tile+l] = v
			}
		}
	}
}

// mulMatRangeAVX is mulMatRange over lane-packed x: full batch tiles run the
// vector kernel, trailing rows take the portable scalar path (independent
// chains either way, so mixing cannot change a bit).
func (m *Matrix) mulMatRangeAVX(dst, x *Matrix, pack Vector, lo, hi int) {
	k := m.Cols
	b := lo
	for ; b+gemmTile <= hi; b += gemmTile {
		mulMatPackAVX(&m.Data[0], &pack[b*k], &dst.Data[b*dst.Cols], k, m.Rows, dst.Cols)
	}
	for ; b < hi; b++ {
		m.mulVec(dst.Row(b), x.Row(b))
	}
}

// mulMatRange512 is mulMatRangeAVX on laneTile-row tiles with the bias
// folded into the kernel; trailing rows take the portable chain plus bias.
func (m *Matrix) mulMatRange512(dst, x *Matrix, bias, pack Vector, lo, hi int) {
	k := m.Cols
	var bp *float64
	if bias != nil {
		bp = &bias[0]
	}
	b := lo
	for ; b+laneTile <= hi; b += laneTile {
		mulMatPack512(&m.Data[0], &pack[b*k], &dst.Data[b*dst.Cols], bp, k, m.Rows, dst.Cols)
	}
	for r := b; r < hi; r++ {
		m.mulVec(dst.Row(r), x.Row(r))
	}
	addBias(dst, bias, b, hi)
}

// mulMatTRangeAVX is mulMatTRange on the accumulation kernel: row b of x·m is
// the zero-started, ascending-i sum of m's rows scaled by x_b[i] — exactly
// addOuterRowAVX's chain over a "batch" of m's rows with alpha = 1 (1·x is x
// for every float64, and the products commute), so every element keeps the
// one chain the portable kernel gives it. The column tail (cols % 4) runs
// that chain in scalar code.
func (m *Matrix) mulMatTRangeAVX(dst, x *Matrix, lo, hi int) {
	cols4 := m.Cols &^ (gemmTile - 1)
	for b := lo; b < hi; b++ {
		d, xb := dst.Row(b), x.Row(b)
		clear(d)
		addOuterRowAVX(&d[0], &xb[0], &m.Data[0], m.Rows, m.Cols, 1, m.Cols, 1)
		if cols4 == m.Cols {
			continue
		}
		tail := d[cols4:]
		for i, g := range xb {
			for j, wv := range m.Row(i)[cols4:] {
				tail[j] += float64(wv * g)
			}
		}
	}
}

// mulMatTRange512 is mulMatTRangeAVX on the AVX-512 row kernel, whose masked
// column tail leaves no scalar remainder.
func (m *Matrix) mulMatTRange512(dst, x *Matrix, lo, hi int) {
	for b := lo; b < hi; b++ {
		d, xb := dst.Row(b), x.Row(b)
		clear(d)
		addOuterRow512(&d[0], &xb[0], &m.Data[0], m.Rows, m.Cols, 1, m.Cols, 1)
	}
}

// addOuterBatchRangeAVX is addOuterBatchRange with each m row's column
// vectors accumulated in registers across the ascending batch loop. The
// column tail (cols % 4) runs the scalar chain per row.
func (m *Matrix) addOuterBatchRangeAVX(alpha float64, x, y *Matrix, lo, hi int) {
	batch := x.Rows
	cols4 := m.Cols &^ (gemmTile - 1)
	for i := lo; i < hi; i++ {
		row := m.Row(i)
		addOuterRowAVX(&row[0], &x.Data[i], &y.Data[0], batch, m.Cols, x.Cols, y.Cols, alpha)
		if cols4 == m.Cols {
			continue
		}
		tail := row[cols4:]
		for b := 0; b < batch; b++ {
			ax := alpha * x.Row(b)[i]
			yb := y.Row(b)[cols4:]
			for j, yv := range yb {
				tail[j] += float64(ax * yv)
			}
		}
	}
}

// addOuterBatchRange512 is addOuterBatchRangeAVX on the AVX-512 row kernel.
func (m *Matrix) addOuterBatchRange512(alpha float64, x, y *Matrix, lo, hi int) {
	for i := lo; i < hi; i++ {
		addOuterRow512(&m.Row(i)[0], &x.Data[i], &y.Data[0], x.Rows, m.Cols, x.Cols, y.Cols, alpha)
	}
}

// one is the constant x the row kernels read at stride 0 to sum rows.
var one = 1.0

// addRowsAVX is Vector.AddRows on the AVX2 row kernel, the column tail
// (cols % 4) in scalar code.
func addRowsAVX(v Vector, m *Matrix) {
	addOuterRowAVX(&v[0], &one, &m.Data[0], m.Rows, m.Cols, 0, m.Cols, 1)
	cols4 := m.Cols &^ (gemmTile - 1)
	tail := v[cols4:]
	for r := 0; r < m.Rows; r++ {
		for j, g := range m.Row(r)[cols4:] {
			tail[j] += g
		}
	}
}

// addRows512 is Vector.AddRows on the AVX-512 row kernel.
func addRows512(v Vector, m *Matrix) {
	addOuterRow512(&v[0], &one, &m.Data[0], m.Rows, m.Cols, 0, m.Cols, 1)
}
