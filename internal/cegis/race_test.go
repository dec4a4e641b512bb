//go:build race

package cegis

// raceEnabled reports whether the race detector is on; its
// instrumentation allocates, so allocation counts are not pinned under it.
const raceEnabled = true
