package tensor

import "math"

// Keyed, counter-based normal variates. Element i under key k is a pure
// function of (k, i): there is no stream to advance, so any element of any
// key can be drawn in O(1), in any order, and a resumed process has nothing
// to replay. Element i is SplitMix64 of the counter k + (i+1)·γ, γ the 64-bit
// golden ratio; its low 32 bits run the ziggurat of math/rand.NormFloat64.
// The draws the ziggurat does not accept outright (2.76 %: strip 1 has no
// rectangle) continue on a private SplitMix64 stream seeded by that first
// output, using math.Exp and math.Log exactly where NormFloat64 uses them.

// golden is SplitMix64's increment, ⌊2^64/φ⌋.
const golden = 0x9E3779B97F4A7C15

// mix64 is SplitMix64's output function, a bijection on uint64.
func mix64(z uint64) uint64 {
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// KeyOf folds words into one key. Each word passes through mix64 after the
// ones before it, so distinct word lists give unrelated keys, and the counter
// ranges of two n-element fills overlap with probability about n/2^64.
func KeyOf(words ...uint64) uint64 {
	k := uint64(golden)
	for _, w := range words {
		k = mix64(k ^ w)
	}
	return k
}

// ziggurat is NormFloat64's fast path on the 32 bits of z: the variate, and
// whether it lies inside the strip's rectangle (97.24 % of draws). Callers
// inline it into their loops and hand the rest to normalTail.
func ziggurat(z uint64) (float64, bool) {
	j := int32(z)
	s := z & 0x7F
	m := j >> 31
	return float64(j) * float64(wn[s]), uint32((j^m)-m) < kn[s]
}

// normalTail finishes a draw whose first 32 bits z fell outside the strip's
// rectangle: math/rand.NormFloat64's loop from its first rejection on, each
// further bit drawn from SplitMix64 seeded by z.
func normalTail(z uint64) float64 {
	state := z
	next := func() uint64 {
		state += golden
		return mix64(state)
	}
	for j := int32(z); ; j = int32(next()) {
		i := j & 0x7F
		x := float64(j) * float64(wn[i])
		m := j >> 31
		if uint32((j^m)-m) < kn[i] {
			return x
		}
		if i == 0 {
			// The base strip: sample the tail beyond rn exponentially.
			for {
				x = -math.Log(unit(next())) * (1.0 / rn)
				y := -math.Log(unit(next()))
				if y+y >= x*x {
					break
				}
			}
			if j > 0 {
				return rn + x
			}
			return -rn - x
		}
		if fn[i]+float32(unit(next()))*(fn[i-1]-fn[i]) < float32(math.Exp(-.5*x*x)) {
			return x
		}
	}
}

// unit maps 64 random bits to a uniform float64 in [0, 1) from 53 of them,
// as math/rand.Float64 does.
func unit(u uint64) float64 { return float64(u>>11) * 0x1p-53 }

// UniformKeyed returns a uniform variate in [0, 1) that depends only on key:
// counter 0 of the key, which no normal element uses.
func UniformKeyed(key uint64) float64 { return unit(mix64(key)) }

// FillNormalKeyed sets dst[i] to std times the standard normal element i
// under key. The values depend only on (key, i, std): a longer vector
// extends a shorter one, and the same key fills the same values on every
// call.
func FillNormalKeyed(dst Vector, key uint64, std float64) {
	clear(dst)
	AddNormalKeyed(dst, key, std, nil) // 0 + std·x_i is std·x_i: no variate is −0
}

// AddNormalKeyed adds std·x_i + offset[i] to dst[i], where x_i is element i
// of FillNormalKeyed's sequence under key and the two terms are summed before
// they reach dst: one pass for noise that is a fresh draw plus a fixed
// offset. offset must be nil (no offset: dst[i] += std·x_i) or at least as
// long as dst.
func AddNormalKeyed(dst Vector, key uint64, std float64, offset Vector) {
	c := key
	if offset == nil {
		for i := range dst {
			c += golden
			z := mix64(c)
			x, ok := ziggurat(z)
			if !ok {
				x = normalTail(z)
			}
			dst[i] += std * x
		}
		return
	}
	offset = offset[:len(dst)]
	for i := range dst {
		c += golden
		z := mix64(c)
		x, ok := ziggurat(z)
		if !ok {
			x = normalTail(z)
		}
		dst[i] += std*x + offset[i]
	}
}
