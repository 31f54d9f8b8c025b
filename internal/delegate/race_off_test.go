//go:build !race

package delegate

// raceEnabled reports a -race build, whose instrumentation allocates.
const raceEnabled = false
