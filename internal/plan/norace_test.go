//go:build !race

package plan

// raceEnabled reports whether the test binary runs under the race detector.
const raceEnabled = false
