//go:build !race

package tcio

// raceEnabled reports a -race build, whose instrumentation allocates.
const raceEnabled = false
