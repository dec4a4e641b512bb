//go:build race

package kleebench

// raceEnabled reports whether the race detector is on; corpus-wide tests
// sample the corpus under it.
const raceEnabled = true
