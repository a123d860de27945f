//go:build race

package wire

// raceEnabled reports whether the race detector is on: it changes what
// sync.Pool retains, and so what an epoch allocates.
const raceEnabled = true
