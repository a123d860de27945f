//go:build !amd64

package tensor

// Non-amd64 hosts run the portable kernels only: the gates are constant
// false and the stubs below unreachable.

const (
	hasAVX, hasAVX512 = false, false
	useAVX, useAVX512 = false, false
)

// SetPortable is a no-op on hosts without vector kernels: every kernel is
// portable already. It reports true.
func SetPortable(bool) (prev bool) { return true }

func addNormalKeyedAVX512(Vector, uint64, float64, Vector) int {
	panic("tensor: addNormalKeyedAVX512 without SIMD support")
}

func dotLanesAVX(a0, a1, a2, a3, x *float64, n int, out *[16]float64) {
	panic("tensor: dotLanesAVX without SIMD support")
}
