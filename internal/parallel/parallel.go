// Package parallel is the repository's deterministic data-parallel runtime:
// a sized worker pool whose primitives split index ranges into FIXED chunk
// boundaries and merge per-chunk results in chunk-index order.
//
// The invariant the whole package is built around: for a given input, every
// result is bit-identical for ANY worker count, including 1. Chunk
// boundaries depend only on (n, grain) — never on how many goroutines
// execute them — and reductions walk chunks in ascending index order, so
// floating-point sums associate identically no matter how the chunks were
// scheduled. LSH digests, checkpoint commitments, and re-execution
// verification all hash exact float bit patterns (DESIGN Eq. 2 model); an
// unordered reduction would silently change digests with core count.
//
// A nil *Pool is valid everywhere and means "serial": callers thread an
// optional pool through hot paths without conditionals.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a sized worker set for data-parallel loops. The zero value is not
// useful; use New. A nil *Pool runs everything serially on the caller's
// goroutine.
//
// Pools are stateless between calls (no persistent goroutines), so a Pool is
// safe for concurrent use and costs nothing while idle.
type Pool struct {
	workers int
}

// New returns a pool that runs loop bodies on up to `workers` goroutines.
// workers <= 0 selects GOMAXPROCS. New(1) is a valid deterministic pool that
// executes chunks serially in index order — it exists so "parallel runtime
// at one worker" and "parallel runtime at eight workers" are the same code
// path producing the same bits.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers}
}

// Workers reports the pool's worker budget; a nil pool reports 1.
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.workers
}

// NumChunks returns the number of fixed chunks For splits [0, n) into with
// the given grain: ceil(n/grain). grain <= 0 is treated as 1.
func NumChunks(n, grain int) int {
	if n <= 0 {
		return 0
	}
	if grain <= 0 {
		grain = 1
	}
	return (n + grain - 1) / grain
}

// ChunkBounds returns the half-open index range [lo, hi) of chunk c under
// the fixed chunking of [0, n) with the given grain.
func ChunkBounds(c, n, grain int) (lo, hi int) {
	if grain <= 0 {
		grain = 1
	}
	lo = c * grain
	hi = lo + grain
	if hi > n {
		hi = n
	}
	return lo, hi
}

// For splits [0, n) into fixed chunks of size grain and calls fn(lo, hi) for
// each chunk, possibly concurrently, and blocks until every chunk completed.
// fn must write only state that is disjoint per chunk (e.g. output rows
// lo..hi); under that contract the result is bit-identical for any worker
// count because the chunk boundaries never move. A body that reduces writes
// its chunk's partial result to slot lo/grain (the chunk index, for grain
// ≥ 1) of a buffer the caller then merges in slot order: the
// ordered-reduction pattern. Chunk-to-goroutine assignment is work-stealing
// and therefore scheduling-dependent, but since each chunk owns its slot and
// the merge happens afterwards in index order, scheduling never reaches the
// result.
func (p *Pool) For(n, grain int, fn func(lo, hi int)) {
	chunks := NumChunks(n, grain)
	if chunks == 0 {
		return
	}
	workers := p.Workers()
	if workers > chunks {
		workers = chunks
	}
	if workers <= 1 {
		for c := 0; c < chunks; c++ {
			fn(ChunkBounds(c, n, grain))
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				c := int(next.Add(1) - 1)
				if c >= chunks {
					return
				}
				fn(ChunkBounds(c, n, grain))
			}
		}()
	}
	wg.Wait()
}

// defaultWorkers is the process-wide worker budget commands install from
// their -jobs flag. It is configuration (like GOMAXPROCS), not protocol
// state: because every primitive is bit-deterministic in the worker count,
// the value can never change a protocol result, only wall-clock time.
var defaultWorkers atomic.Int64

// SetDefaultWorkers installs the process-wide default worker budget.
// n <= 0 restores the serial default.
func SetDefaultWorkers(n int) {
	if n < 0 {
		n = 0
	}
	defaultWorkers.Store(int64(n))
}

// DefaultWorkers returns the process-wide worker budget; 0 means "no
// goroutines requested" (the same kernels on the calling goroutine).
func DefaultWorkers() int { return int(defaultWorkers.Load()) }

// Default returns a pool of the process-wide worker budget, or nil (serial)
// when none is set. The training runtime reads it once, when it is built.
func Default() *Pool {
	if n := DefaultWorkers(); n > 0 {
		return New(n)
	}
	return nil
}
