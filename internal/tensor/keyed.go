package tensor

import "math"

// Keyed, counter-based normal variates. Element i under key k is a pure
// function of (k, i): there is no stream to advance, so any element of any
// key can be drawn in O(1), in any order, and a resumed process has nothing
// to replay. Element i is SplitMix64 of the counter k + (i+1)·γ, γ the 64-bit
// golden ratio; its low 32 bits run the ziggurat of math/rand.NormFloat64.
// The draws the ziggurat does not accept outright (2.76 %: strip 1 has no
// rectangle) continue on a private SplitMix64 stream seeded by that first
// output, with NormFloat64's outcomes: math.Log where it uses it, and its
// math.Exp comparison, decided from bounds wherever they settle it.

// golden is SplitMix64's increment, ⌊2^64/φ⌋.
const golden = 0x9E3779B97F4A7C15

// keyedChunk is how many elements the vector kernel and the strided fill
// take per pass, a multiple of the kernel's 16 lanes: their per-pass buffers
// stay on the stack.
const keyedChunk = 512

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
// further bit drawn from SplitMix64 seeded by z. The wedge test is decided by
// wedgeSqueeze where it can be, by math.Exp only where it cannot.
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
		q := -.5 * x * x
		y := fn[i] + float32(float32(unit(next()))*(fn[i-1]-fn[i]))
		if accept, ok := wedgeSqueeze(i, q, y); ok {
			if accept {
				return x
			}
			continue
		}
		if y < float32(math.Exp(q)) {
			return x
		}
	}
}

// The squeeze. Strip i ≥ 1's wedge test asks whether y < float32(e^q), q =
// −x²/2 the float64 the test computes. A rejected |j| lies in [kn[i], 2^31],
// and rounding is monotone, so q lies in the strip's [qlo, qhi], computed by
// the same two multiplications at those ends. e^q is convex in q: on that
// interval the chord through its ends lies above it and the tangent at its
// midpoint below. Scaled by 1 ∓ 2^-20, the two bounds decide the test:
//
//   - y below the lowered tangent means e^q − y > 2^-21·y. math.Exp's result
//     is within 1 ulp (2^-52) of e^q, and float32 rounding moves a value by
//     at most half a float32 ulp (2^-24 relative), so float32(math.Exp(q))
//     still lies above y: accept.
//   - y at or above the raised chord puts y − e^q above 2^-21·e^q by the same
//     count, so float32(math.Exp(q)) lies below y: reject.
//
// Evaluating the bounds in float64 adds a few 2^-53 of error, far inside the
// margin. Only a y between the two bounds calls math.Exp.
type wedgeBounds struct {
	qlo, qhi float64
	// Chord: elo + (q − qlo)·slope, raised by the margin.
	elo, slope float64
	// Tangent: em·(1 + q − m) at the midpoint m, lowered by the margin.
	m, em float64
}

const squeezeMargin = 0x1p-20

var wedges = func() (w [128]wedgeBounds) {
	for i := 1; i < len(w); i++ {
		xmax := 0x1p31 * float64(wn[i])
		xmin := float64(kn[i]) * float64(wn[i])
		qlo, qhi := -.5*xmax*xmax, -.5*xmin*xmin
		elo, ehi := math.Exp(qlo), math.Exp(qhi)
		m := (qlo + qhi) / 2
		w[i] = wedgeBounds{
			qlo: qlo, qhi: qhi,
			elo:   elo * (1 + squeezeMargin),
			slope: (ehi - elo) / (qhi - qlo) * (1 + squeezeMargin),
			m:     m,
			em:    math.Exp(m) * (1 - squeezeMargin),
		}
	}
	return w
}()

// wedgeSqueeze decides strip i's wedge test y < float32(e^q) from the strip's
// bounds: accept is the outcome, and ok is false when y falls between the
// bounds and only math.Exp can tell.
func wedgeSqueeze(i int32, q float64, y float32) (accept, ok bool) {
	w := &wedges[i]
	if q < w.qlo || q > w.qhi {
		return false, false // the bounds hold only on [qlo, qhi]
	}
	yy := float64(y)
	if yy < w.em*(1+(q-w.m)) {
		return true, true
	}
	if yy >= w.elo+float64((q-w.qlo)*w.slope) {
		return false, true
	}
	return false, false
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
// long as dst. On AVX-512 hosts whole 16-element groups run the vector
// kernel, which yields the same bits (DESIGN §14).
func AddNormalKeyed(dst Vector, key uint64, std float64, offset Vector) {
	if offset != nil {
		offset = offset[:len(dst)] // also bounds the kernel's reads
	}
	n := 0
	if useAVX512 {
		n = addNormalKeyedAVX512(dst, key, std, offset)
	}
	if offset != nil {
		offset = offset[n:]
	}
	// Element n's counter is key + (n+1)·γ: the portable loop resumes there.
	addNormalKeyedPortable(dst[n:], key+uint64(n)*golden, std, offset)
}

// addNormalKeyedPortable is AddNormalKeyed in scalar code. The explicit
// float64 conversions round each product before its sum, so no target may
// fuse them into one multiply-add.
func addNormalKeyedPortable(dst Vector, key uint64, std float64, offset Vector) {
	c := key
	if offset == nil {
		for i := range dst {
			c += golden
			z := mix64(c)
			x, ok := ziggurat(z)
			if !ok {
				x = normalTail(z)
			}
			dst[i] += float64(std * x)
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
		dst[i] += float64(std*x) + offset[i]
	}
}

// FillNormalKeyedBlock fills lanes of one lane-packed block (see DotLanes):
// lane l, for each l < len(keys), gets FillNormalKeyed's values under
// keys[l], block[LaneBlock·i + l] = std·x_i, and the other lanes are left as
// they are. len(keys) is at most LaneBlock; the block holds len(block) /
// LaneBlock elements of each lane. The lanes are drawn a chunk at a time and
// written together, one pass over the block.
func FillNormalKeyedBlock(block Vector, keys []uint64, std float64) {
	var buf [LaneBlock][keyedChunk / LaneBlock]float64
	n := len(block) / LaneBlock
	for lo := 0; lo < n; lo += len(buf[0]) {
		m := min(len(buf[0]), n-lo)
		for l, key := range keys {
			FillNormalKeyed(buf[l][:m], key+uint64(lo)*golden, std)
		}
		out := block[LaneBlock*lo : LaneBlock*(lo+m)]
		for l := range keys {
			for i, v := range buf[l][:m] {
				out[LaneBlock*i+l] = v
			}
		}
	}
}
