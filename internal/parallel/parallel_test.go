package parallel

import (
	"math"
	"sync/atomic"
	"testing"
)

func TestNumChunks(t *testing.T) {
	cases := []struct {
		n, grain, want int
	}{
		{0, 4, 0}, {-3, 4, 0}, {1, 4, 1}, {4, 4, 1}, {5, 4, 2},
		{8, 4, 2}, {9, 4, 3}, {7, 0, 7}, {7, -2, 7}, {7, 100, 1},
	}
	for _, tc := range cases {
		if got := NumChunks(tc.n, tc.grain); got != tc.want {
			t.Errorf("NumChunks(%d, %d) = %d, want %d", tc.n, tc.grain, got, tc.want)
		}
	}
}

func TestChunkBounds(t *testing.T) {
	n, grain := 10, 4
	covered := make([]int, n)
	for c := 0; c < NumChunks(n, grain); c++ {
		lo, hi := ChunkBounds(c, n, grain)
		if lo >= hi {
			t.Fatalf("chunk %d: empty range [%d,%d)", c, lo, hi)
		}
		for i := lo; i < hi; i++ {
			covered[i]++
		}
	}
	for i, c := range covered {
		if c != 1 {
			t.Errorf("index %d covered %d times", i, c)
		}
	}
}

// TestForCoverage checks every index is visited exactly once for a spread of
// (n, grain, workers) shapes, including workers > chunks and nil pool.
func TestForCoverage(t *testing.T) {
	shapes := []struct{ n, grain, workers int }{
		{0, 1, 4}, {1, 1, 4}, {17, 4, 1}, {17, 4, 2}, {17, 4, 8},
		{100, 7, 3}, {5, 100, 8}, {64, 1, 16},
	}
	for _, s := range shapes {
		visits := make([]int32, s.n)
		New(s.workers).For(s.n, s.grain, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&visits[i], 1)
			}
		})
		for i, v := range visits {
			if v != 1 {
				t.Errorf("n=%d grain=%d workers=%d: index %d visited %d times",
					s.n, s.grain, s.workers, i, v)
			}
		}
	}
	var nilPool *Pool
	visits := make([]int, 9)
	nilPool.For(9, 2, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			visits[i]++
		}
	})
	for i, v := range visits {
		if v != 1 {
			t.Errorf("nil pool: index %d visited %d times", i, v)
		}
	}
	if nilPool.Workers() != 1 {
		t.Errorf("nil pool Workers() = %d, want 1", nilPool.Workers())
	}
}

// orderedSum is the canonical reduction pattern: per-chunk partial sums,
// each in its chunk's slot lo/grain, merged in chunk-index order.
func orderedSum(p *Pool, xs []float64, grain int) float64 {
	partial := make([]float64, NumChunks(len(xs), grain))
	p.For(len(xs), grain, func(lo, hi int) {
		s := 0.0
		for i := lo; i < hi; i++ {
			s += xs[i]
		}
		partial[lo/grain] = s
	})
	total := 0.0
	for _, s := range partial {
		total += s
	}
	return total
}

// TestOrderedReductionBitIdentical is the package's core promise: the same
// (n, grain) yields bit-identical float sums for every worker count, because
// chunk boundaries and merge order are fixed.
func TestOrderedReductionBitIdentical(t *testing.T) {
	xs := make([]float64, 1001)
	for i := range xs {
		// Scale-varied values so float addition is genuinely non-associative
		// across orderings: a scheduling-dependent reduction would diverge.
		xs[i] = math.Sin(float64(i)*0.7) * math.Pow(10, float64(i%13)-6)
	}
	ref := orderedSum(nil, xs, 64)
	for _, workers := range []int{1, 2, 3, 8, 16} {
		got := orderedSum(New(workers), xs, 64)
		if math.Float64bits(got) != math.Float64bits(ref) {
			t.Errorf("workers=%d: sum %x differs from serial %x",
				workers, math.Float64bits(got), math.Float64bits(ref))
		}
	}
}

// TestRun: For at grain 1 runs each index once, each owning its output
// slot, and an empty range returns at once.
func TestRun(t *testing.T) {
	out := make([]int, 5)
	New(3).For(len(out), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = i * i
		}
	})
	for i, v := range out {
		if v != i*i {
			t.Errorf("index %d: got %d", i, v)
		}
	}
	New(2).For(0, 1, func(lo, hi int) { t.Errorf("empty range ran [%d, %d)", lo, hi) })
}

func TestDefaultWorkersKnob(t *testing.T) {
	defer SetDefaultWorkers(0)
	if DefaultWorkers() != 0 {
		t.Fatalf("initial DefaultWorkers = %d", DefaultWorkers())
	}
	if Default() != nil {
		t.Errorf("Default() = %v at the serial default, want nil", Default())
	}
	SetDefaultWorkers(6)
	if DefaultWorkers() != 6 {
		t.Errorf("DefaultWorkers = %d, want 6", DefaultWorkers())
	}
	if got := Default().Workers(); got != 6 {
		t.Errorf("Default().Workers() = %d, want 6", got)
	}
	SetDefaultWorkers(-2)
	if DefaultWorkers() != 0 || Default() != nil {
		t.Errorf("DefaultWorkers = %d, Default() = %v after negative set, want 0 and nil", DefaultWorkers(), Default())
	}
}

func BenchmarkOrderedSumOverhead(b *testing.B) {
	p := New(4)
	xs := make([]float64, 4096)
	for i := range xs {
		xs[i] = float64(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = orderedSum(p, xs, 256)
	}
}
