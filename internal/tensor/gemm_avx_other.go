//go:build !amd64

package tensor

// Non-amd64 hosts have no SIMD kernels: useAVX is constant-false
// (simd_other.go), the dispatch sites compile the portable kernels only, and
// the stubs below are unreachable (the gates above them never pass).

func packLanes(Vector, *Matrix) {
	panic("tensor: packLanes without SIMD support")
}

func (m *Matrix) mulMatRangeAVX(dst, x *Matrix, pack Vector, lo, hi int) {
	panic("tensor: mulMatRangeAVX without SIMD support")
}

func (m *Matrix) mulMatTRangeAVX(dst, x *Matrix, lo, hi int) {
	panic("tensor: mulMatTRangeAVX without SIMD support")
}

func (m *Matrix) addOuterBatchRangeAVX(alpha float64, x, y *Matrix, lo, hi int) {
	panic("tensor: addOuterBatchRangeAVX without SIMD support")
}
