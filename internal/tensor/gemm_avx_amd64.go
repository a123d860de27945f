//go:build amd64

package tensor

// AVX dispatch for the batched GEMM kernels (gemm_amd64.s). The vector
// kernels change wall-clock only, never bits: each 256-bit lane carries one
// output element's accumulation chain, in the same ascending reduction order
// as the portable kernels, using VMULPD/VADDPD (identical IEEE-754 rounding
// to scalar multiply and add — deliberately no FMA, whose single rounding
// would change low-order bits).

// mulMatPackAVX computes, for one lane-packed batch tile of gemmTile rows,
// dst[l*dstStride+i] = Σ_k w[i*k̂+k]·xpack[k*gemmTile+l] for i in [0, rows),
// l in [0, gemmTile). Each (l, i) output is a single ascending-k chain held
// in one vector lane. Implemented in gemm_amd64.s.
//
//go:noescape
func mulMatPackAVX(w, xpack, dst *float64, k, rows, dstStride int)

// addOuterRowAVX accumulates one m row: dst[j] += (alpha·x[b·xStride]) ·
// y[b·yStride+j] for b ascending, j in [0, cols&^3). Accumulators stay in
// vector registers across the whole batch loop; each lane is one column's
// ascending-b chain. Implemented in gemm_amd64.s.
//
//go:noescape
func addOuterRowAVX(dst, x, y *float64, batch, cols, xStride, yStride int, alpha float64)

// packLanes interleaves full gemmTile-row tiles of x lane-major:
// pack[t·gemmTile·K + k·gemmTile + l] = x.Row(t·gemmTile+l)[k]. Trailing
// rows (batch % gemmTile) are left unpacked; the range kernels fall back to
// the scalar path for them.
func packLanes(pack Vector, x *Matrix) {
	k := x.Cols
	for t := 0; t+gemmTile <= x.Rows; t += gemmTile {
		p := pack[t*k : (t+gemmTile)*k]
		r0 := x.Row(t)
		r1, r2, r3 := x.Row(t + 1)[:len(r0)], x.Row(t + 2)[:len(r0)], x.Row(t + 3)[:len(r0)]
		for j, v := range r0 {
			q := p[4*j : 4*j+4 : 4*j+4]
			q[0] = v
			q[1] = r1[j]
			q[2] = r2[j]
			q[3] = r3[j]
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
				tail[j] += wv * g
			}
		}
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
				tail[j] += ax * yv
			}
		}
	}
}
