package tensor

// Lane-packed dot products: many vectors against one x in a single pass. A
// pack holds its vectors four to a block, interleaved element by element —
// vector p's element i at pack[(p/4)·4·n + 4i + p%4] for vectors of length n
// — so that one 256-bit load reads element i of four vectors. A last block
// with fewer than four vectors leaves its spare lanes zero.

// LaneBlock is how many vectors one block of a pack interleaves.
const LaneBlock = 4

// PackLen returns the length of a pack of vectors vectors of length n.
func PackLen(vectors, n int) int {
	return (vectors + LaneBlock - 1) / LaneBlock * LaneBlock * n
}

// DotLanes sets dst[p] to the dot product of x with vector p of pack, for p
// in [0, len(dst)). Each is one ascending-index accumulation, the bits
// Vector.Dot gives; on AVX hosts sixteen of them advance per pass over x.
// pack must hold PackLen(len(dst), len(x)) elements.
func DotLanes(dst []float64, pack, x Vector) {
	n := len(x)
	blocks := (len(dst) + LaneBlock - 1) / LaneBlock
	pack = pack[:blocks*LaneBlock*n]
	block := func(b int) Vector { return pack[b*LaneBlock*n : (b+1)*LaneBlock*n] }
	var out [16]float64
	for b := 0; b < blocks; b += 4 {
		take := min(4, blocks-b)
		if useAVX && n > 0 {
			// Fewer than four blocks left: the kernel repeats the last
			// one and its extra sums are dropped.
			a := func(g int) *float64 { return &block(b + min(g, take-1))[0] }
			dotLanesAVX(a(0), a(1), a(2), a(3), &x[0], n, &out)
		} else {
			for g := 0; g < take; g++ {
				dotBlock(out[4*g:4*g+4], block(b+g), x)
			}
		}
		copy(dst[LaneBlock*b:], out[:LaneBlock*take])
	}
}

// dotBlock is the portable kernel: out[l] = Σ_i blk[4i+l]·x[i], four
// ascending chains advanced together. The float64 conversions round each
// product before its sum, so no target may fuse them.
func dotBlock(out []float64, blk, x Vector) {
	blk = blk[:LaneBlock*len(x)]
	var s0, s1, s2, s3 float64
	for i, xi := range x {
		q := blk[4*i : 4*i+4 : 4*i+4]
		s0 += float64(q[0] * xi)
		s1 += float64(q[1] * xi)
		s2 += float64(q[2] * xi)
		s3 += float64(q[3] * xi)
	}
	out[0], out[1], out[2], out[3] = s0, s1, s2, s3
}
