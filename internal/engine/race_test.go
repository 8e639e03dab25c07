//go:build race

package engine

// raceEnabled reports whether the test binary runs under the race detector.
const raceEnabled = true
