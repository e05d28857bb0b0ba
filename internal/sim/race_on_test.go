//go:build race

package sim

// raceEnabled reports that the race detector is compiled in.
const raceEnabled = true
