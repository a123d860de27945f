//go:build race

package tensor

// raceEnabled reports whether the race detector is on: the long statistical
// loops shrink under it.
const raceEnabled = true
