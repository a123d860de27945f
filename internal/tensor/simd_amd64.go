//go:build amd64

package tensor

// Which vector kernels this host runs. Every kernel yields the bits of its
// portable counterpart (DESIGN §14), so these choose speed only.
var (
	hasAVX    = cpuHasAVX()
	hasAVX512 = cpuHasAVX512()

	// useAVX gates the AVX kernels: the batched GEMM and the lane-packed
	// dot products.
	useAVX = hasAVX
	// useAVX512 gates the AVX-512 keyed-noise kernel.
	useAVX512 = hasAVX512
)

// SetPortable makes every kernel in the package take its portable path when
// on is true, and gives the host's vector kernels back when it is false. It
// returns the previous setting. Results are bit-identical either way: tests
// and benchmarks use it to hold the two paths against each other. It must
// not be called while a kernel runs.
func SetPortable(on bool) (prev bool) {
	prev = useAVX != hasAVX || useAVX512 != hasAVX512
	useAVX, useAVX512 = hasAVX && !on, hasAVX512 && !on
	return prev
}

// cpuHasAVX is implemented in gemm_amd64.s: CPUID feature bits plus XGETBV
// confirmation that the OS saves YMM state.
func cpuHasAVX() bool

// cpuHasAVX512 is implemented in keyed_amd64.s: CPUID AVX512F and AVX512DQ
// plus XGETBV confirmation that the OS saves the opmask and ZMM state.
func cpuHasAVX512() bool

// normalKeyedAVX512 is AddNormalKeyed's vector kernel over n elements, n a
// multiple of 16: lane l of a 16-element group draws from counter ctr[l]
// (each advanced by 16·γ per group), and the lanes the ziggurat accepts
// outright get dst[i] += std·x (+ offset[i] when offset is non-nil), by a
// masked store. The other lanes are left alone and reported, one bit each,
// in rej[group]. Implemented in keyed_amd64.s.
//
//go:noescape
func normalKeyedAVX512(dst, offset *float64, n int, ctr *[16]uint64, std float64, rej *[keyedChunk / 16]uint16)

// dotLanesAVX computes sixteen lane-packed dot products in one pass over x:
// out[4g+l] = Σ_i a_g[4i+l]·x[i] for g in [0, 4), each lane one ascending-i
// chain. n must be at least 1. Implemented in lanes_amd64.s.
//
//go:noescape
func dotLanesAVX(a0, a1, a2, a3, x *float64, n int, out *[16]float64)
