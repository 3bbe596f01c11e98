//go:build race

package verify

// raceEnabled reports a race-detector build, whose instrumentation moves
// values to the heap: allocation ceilings do not hold under it.
const raceEnabled = true
