//go:build amd64

package tensor

import "math/bits"

// addNormalKeyedAVX512 runs AddNormalKeyed's whole 16-element groups through
// the vector kernel, keyedChunk elements per call, and returns how many
// elements it handled. The kernel stores only the lanes the ziggurat accepts
// outright (97.24 %) and reports the others; those finish here through
// normalTail, with the portable loop's arithmetic.
func addNormalKeyedAVX512(dst Vector, key uint64, std float64, offset Vector) int {
	var rej [keyedChunk / 16]uint16
	var ctr [16]uint64
	n := len(dst) &^ 15
	for lo := 0; lo < n; lo += keyedChunk {
		m := min(keyedChunk, n-lo)
		for l := range ctr {
			ctr[l] = key + uint64(lo+l+1)*golden
		}
		var off *float64
		if offset != nil {
			off = &offset[lo]
		}
		normalKeyedAVX512(&dst[lo], off, m, &ctr, std, &rej)
		for g, r := range rej[:m/16] {
			for ; r != 0; r &= r - 1 {
				i := lo + 16*g + bits.TrailingZeros16(r)
				x := float64(std * normalTail(mix64(key+uint64(i+1)*golden)))
				if offset != nil {
					x += offset[i]
				}
				dst[i] += x
			}
		}
	}
	return n
}
