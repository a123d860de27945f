//go:build race

package rpol_test

// raceEnabled reports whether the race detector is on: it changes what
// sync.Pool retains, and so what an epoch allocates.
const raceEnabled = true
