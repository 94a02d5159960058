//go:build !race

package heuristics

// raceEnabled reports whether the test binary was built with -race, under
// which the exhaustive tests skip their largest instances.
const raceEnabled = false
