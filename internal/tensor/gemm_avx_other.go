//go:build !amd64

package tensor

// Non-amd64 hosts have no SIMD kernels: useAVX and useAVX512 are
// constant-false (simd_other.go), the dispatch sites compile the portable
// kernels only, and the stubs below are unreachable (the gates above them
// never pass).

func packLanes(Vector, *Matrix, int) {
	panic("tensor: packLanes without SIMD support")
}

func (m *Matrix) mulMatRangeAVX(dst, x *Matrix, pack Vector, lo, hi int) {
	panic("tensor: mulMatRangeAVX without SIMD support")
}

func (m *Matrix) mulMatRange512(dst, x *Matrix, bias, pack Vector, lo, hi int) {
	panic("tensor: mulMatRange512 without SIMD support")
}

func (m *Matrix) mulMatTRangeAVX(dst, x *Matrix, lo, hi int) {
	panic("tensor: mulMatTRangeAVX without SIMD support")
}

func (m *Matrix) mulMatTRange512(dst, x *Matrix, lo, hi int) {
	panic("tensor: mulMatTRange512 without SIMD support")
}

func (m *Matrix) addOuterBatchRangeAVX(alpha float64, x, y *Matrix, lo, hi int) {
	panic("tensor: addOuterBatchRangeAVX without SIMD support")
}

func (m *Matrix) addOuterBatchRange512(alpha float64, x, y *Matrix, lo, hi int) {
	panic("tensor: addOuterBatchRange512 without SIMD support")
}

func addRowsAVX(Vector, *Matrix) {
	panic("tensor: addRowsAVX without SIMD support")
}

func addRows512(Vector, *Matrix) {
	panic("tensor: addRows512 without SIMD support")
}
