//go:build race

package qcache

// raceEnabled reports whether the race detector is on; its
// instrumentation allocates, so allocation counts are not pinned under it.
const raceEnabled = true
