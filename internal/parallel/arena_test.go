package parallel

import (
	"runtime"
	"testing"
)

func TestArena(t *testing.T) {
	var a Arena
	b1 := a.Grab(4)
	b2 := a.Grab(4)
	if len(b1) != 4 || len(b2) != 4 {
		t.Fatalf("lengths %d, %d", len(b1), len(b2))
	}
	for i := range b1 {
		b1[i] = 1
		b2[i] = 2
	}
	if b1[3] != 1 || b2[0] != 2 {
		t.Fatal("buffers alias each other")
	}
	// Grow while b1/b2 outstanding: they must stay intact and disjoint from
	// the new chunk.
	b3 := a.Grab(100)
	for i := range b3 {
		b3[i] = 3
	}
	if b1[0] != 1 || b2[0] != 2 || b1[3] != 1 || b2[3] != 2 {
		t.Fatal("grow corrupted outstanding buffers")
	}
	a.Reset()
	b4 := a.Grab(100)
	for i, v := range b4 {
		if v != 0 {
			t.Fatalf("Grab after Reset not zeroed at %d: %v", i, v)
		}
	}
	if a.Size() < 100 {
		t.Errorf("arena size %d after grow, want >= 100", a.Size())
	}

	var nilArena *Arena
	nb := nilArena.Grab(3)
	if len(nb) != 3 {
		t.Fatalf("nil arena Grab len %d", len(nb))
	}
	nilArena.Reset() // must not panic
	if nilArena.Size() != 0 {
		t.Errorf("nil arena Size = %d", nilArena.Size())
	}
	if a.Grab(0) != nil || a.Grab(-1) != nil {
		t.Error("Grab(<=0) should return nil")
	}
}

// TestArenaZeroed verifies Grab always zeroes recycled memory, which layer
// code relies on for gradient-style accumulators.
func TestArenaZeroed(t *testing.T) {
	var a Arena
	for round := 0; round < 3; round++ {
		b := a.Grab(16)
		for i := range b {
			if b[i] != 0 {
				t.Fatalf("round %d: dirty at %d", round, i)
			}
			b[i] = float64(round + 1)
		}
		a.Reset()
	}
}

// layerWidths are the per-row grab widths of one batch through a small
// network: input, hidden activations and their caches, logits, and the
// backward pass's input gradients.
var layerWidths = []int{48, 96, 96, 1, 32, 32, 10, 32, 96, 96}

// window grabs one batch of rows through layerWidths after a Reset, writes
// every buffer and checks each came back zeroed. It returns the floats
// grabbed and the largest grab.
func window(t *testing.T, a *Arena, rows int) (peak, largest int) {
	t.Helper()
	a.Reset()
	for _, w := range layerWidths {
		b := a.Grab(rows * w)
		for i := range b {
			if b[i] != 0 {
				t.Fatalf("%d-row window: a %d-float grab came back dirty at %d", rows, len(b), i)
			}
			b[i] = 1
		}
		peak += len(b)
		largest = max(largest, len(b))
	}
	return peak, largest
}

// allocated returns the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestArenaFirstWindowAllocatesItsPeak: a fresh arena's first window
// allocates no more than the window grabs plus one grab — no chunk is
// thrown away for a larger one.
func TestArenaFirstWindowAllocatesItsPeak(t *testing.T) {
	for _, rows := range []int{16, 32, 64} {
		var a Arena
		var peak, largest int
		bytes := allocated(func() { peak, largest = window(t, &a, rows) })
		if limit := uint64(8 * (peak + largest)); bytes > limit {
			t.Errorf("%d rows: the first window allocated %d bytes for %d floats grabbed, want at most %d (its peak plus one grab)", rows, bytes, peak, limit)
		}
	}
}

// TestArenaRepeatedWindowAllocatesNothing: after Reset, the same window
// again fits the chunks the first one made.
func TestArenaRepeatedWindowAllocatesNothing(t *testing.T) {
	var a Arena
	window(t, &a, 32)
	size := a.Size()
	if allocs := testing.AllocsPerRun(20, func() { window(t, &a, 32) }); allocs != 0 {
		t.Errorf("a repeated window allocated %v times", allocs)
	}
	if a.Size() != size {
		t.Errorf("a repeated window changed the arena from %d to %d floats", size, a.Size())
	}
}

// TestArenaAlternatingWindows: a network serves two window shapes, the
// training batch and Accuracy's 64-row tile with its shorter last tile. Each
// allocates only the first time it runs, whatever order they take turns in,
// and the arena holds no more than both first windows grabbed.
func TestArenaAlternatingWindows(t *testing.T) {
	var a Arena
	batch, _ := window(t, &a, 32)
	tile, _ := window(t, &a, 64)
	size := a.Size()
	if size > batch+tile {
		t.Errorf("two window shapes left %d floats, more than the %d they grabbed", size, batch+tile)
	}
	for _, rows := range []int{32, 64, 64, 22, 32, 22, 64, 32, 32, 1} {
		if allocs := testing.AllocsPerRun(3, func() { window(t, &a, rows) }); allocs != 0 {
			t.Errorf("a %d-row window after the 32- and 64-row ones allocated %v times", rows, allocs)
		}
	}
	if a.Size() != size {
		t.Errorf("alternating windows changed the arena from %d to %d floats", size, a.Size())
	}
}

// TestArenaHeldWithinTwiceLargestWindow: under any sequence of windows —
// growing ones, where every window is a new largest, and a scattered one —
// the arena never holds more than twice the largest window it has served,
// and a window no larger than one it served before allocates nothing once
// Reset has consolidated.
func TestArenaHeldWithinTwiceLargestWindow(t *testing.T) {
	sequences := map[string]func(k int) int{
		"growing":   func(k int) int { return k + 1 },
		"scattered": func(k int) int { return (k*37)%97 + 1 },
	}
	for name, rowsAt := range sequences {
		var a Arena
		largest := 0
		for k := 0; k < 200; k++ {
			peak, _ := window(t, &a, rowsAt(k))
			largest = max(largest, peak)
			a.Reset()
			if a.Size() > 2*largest {
				t.Fatalf("%s, window %d: the arena holds %d floats, more than twice the largest window %d", name, k, a.Size(), largest)
			}
		}
		if allocs := testing.AllocsPerRun(3, func() { window(t, &a, rowsAt(0)) }); allocs != 0 {
			t.Errorf("%s: an earlier window allocated %v times after the sequence", name, allocs)
		}
	}
}
