//go:build race

package vm

// raceEnabled reports a -race build, whose instrumentation allocates.
const raceEnabled = true
