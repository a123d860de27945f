package parallel

// Arena is a bump allocator for transient float64 scratch buffers. Grab
// returns a zeroed slice carved out of a growing slab; Reset makes the whole
// slab reusable without freeing it. Hot loops that previously did
// make([]float64, n) per step (conv activations, layer-norm scratch,
// ParamVector staging) Grab from an arena instead and Reset once per
// iteration, so steady-state allocation drops to zero.
//
// An Arena is single-owner state — one goroutine, no sharing. In the
// parallel runtime each worker chunk owns its own arena, which keeps the
// no-lock bump pointer correct and the buffers chunk-private (For's
// disjointness contract).
//
// A nil *Arena is valid: Grab falls back to make, Reset is a no-op. That
// lets layers take an optional arena without conditionals at every call
// site.
type Arena struct {
	slab []float64
	off  int
}

// NewArena returns an arena pre-sized to hold capacity float64s before its
// first grow. capacity <= 0 starts empty and grows on demand.
func NewArena(capacity int) *Arena {
	if capacity < 0 {
		capacity = 0
	}
	return &Arena{slab: make([]float64, capacity)}
}

// Grab returns a zeroed []float64 of length n backed by the arena's slab.
// The slice is valid until the next Reset; callers must not retain it past
// that point. A nil arena allocates fresh memory instead.
func (a *Arena) Grab(n int) []float64 {
	if n <= 0 {
		return nil
	}
	if a == nil {
		return make([]float64, n)
	}
	if a.off+n > len(a.slab) {
		a.grow(n)
	}
	s := a.slab[a.off : a.off+n : a.off+n]
	a.off += n
	for i := range s {
		s[i] = 0
	}
	return s
}

// grow replaces the slab so a further n floats fit. Outstanding slices keep
// their own references into the old slab, which the garbage collector keeps
// alive — Grab never invalidates previously grabbed buffers within one Reset
// window, so there is nothing to copy. The offset carries over: the new slab
// is laid out as if it had held the whole window, so once a window has
// grown it, the next window of the same Grabs fits without growing.
func (a *Arena) grow(n int) {
	a.slab = make([]float64, max(2*len(a.slab), a.off+n))
}

// Reset recycles every buffer handed out since the last Reset. Slices from
// earlier Grabs must not be used afterwards: the next Grab will re-hand the
// same memory.
func (a *Arena) Reset() {
	if a != nil {
		a.off = 0
	}
}

// Size reports the slab capacity in float64s (diagnostics/tests).
func (a *Arena) Size() int {
	if a == nil {
		return 0
	}
	return len(a.slab)
}
