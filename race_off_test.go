//go:build !race

package rpol_test

const raceEnabled = false
