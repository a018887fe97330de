//go:build race

package rewrite

// raceEnabled reports a -race build, whose instrumentation allocates.
const raceEnabled = true
