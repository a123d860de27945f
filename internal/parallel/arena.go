package parallel

// Arena is a bump allocator for transient float64 scratch buffers. Grab
// returns a zeroed slice carved out of the arena's chunks; Reset makes every
// chunk reusable without freeing it. Hot loops that would do
// make([]float64, n) per step (conv activations, layer-norm scratch, batch
// matrices) Grab from an arena instead and Reset once per iteration, so
// steady-state allocation drops to zero. The Grabs between two Resets are a
// window; slices from one window stay valid and disjoint until the next
// Reset.
//
// The arena grows by exactly what a window lacks and never throws memory
// away mid-window: a Grab walks the chunks in order from where the last one
// stopped and takes the first with room, and when none has room it appends
// a chunk of exactly its own size. So a window allocates at most what it
// grabs, a window repeated after Reset allocates nothing, and windows of a
// few shapes taking turns (a training batch, evaluation tiles) each
// allocate only the first time. Reset keeps the arena within twice the
// largest window it has served: past that it trades the chunks for one of
// that window's size.
//
// An Arena is single-owner state — one goroutine, no sharing; nn.Network
// owns one for its batch entry points. The zero Arena is ready to use. A nil
// *Arena is valid too: Grab falls back to make, Reset is a no-op. That lets
// layers take an optional arena without conditionals at every call site.
type Arena struct {
	chunks [][]float64
	cur    int // the chunk the next Grab tries first
	off    int // floats of chunks[cur] handed out this window
	used   int // floats handed out this window
	peak   int // the largest window served
	held   int // floats in all chunks
}

// Grab returns a zeroed []float64 of length n backed by the arena. The slice
// is valid until the next Reset; callers must not retain it past that point.
// A nil arena allocates fresh memory instead.
func (a *Arena) Grab(n int) []float64 {
	if n <= 0 {
		return nil
	}
	if a == nil {
		return make([]float64, n)
	}
	for a.cur < len(a.chunks) && a.off+n > len(a.chunks[a.cur]) {
		a.cur, a.off = a.cur+1, 0
	}
	a.used += n
	if a.cur == len(a.chunks) {
		a.chunks = append(a.chunks, make([]float64, n))
		a.held += n
		a.off = n
		return a.chunks[a.cur]
	}
	s := a.chunks[a.cur][a.off : a.off+n : a.off+n]
	a.off += n
	clear(s)
	return s
}

// Reset recycles every buffer handed out since the last Reset. Slices from
// earlier Grabs must not be used afterwards: the next Grab will re-hand the
// same memory. When the chunks hold more than twice the largest window
// served, Reset replaces them with one chunk of that window's size, which
// any window served so far fits.
func (a *Arena) Reset() {
	if a == nil {
		return
	}
	a.peak = max(a.peak, a.used)
	a.cur, a.off, a.used = 0, 0, 0
	if a.held > 2*a.peak {
		clear(a.chunks)
		a.chunks = append(a.chunks[:0], make([]float64, a.peak))
		a.held = a.peak
	}
}

// Size reports the floats the arena holds (diagnostics/tests).
func (a *Arena) Size() int {
	if a == nil {
		return 0
	}
	return a.held
}
