package qcache

import "stringloops/internal/bv"

// RaceEnabled reports whether the race detector is on.
const RaceEnabled = raceEnabled

// TraceDecide makes every Decide call report its formulas to fn until the
// returned function restores the previous hook.
func TraceDecide(fn func(formulas []*bv.Bool)) (restore func()) {
	prev := decideHook
	decideHook = fn
	return func() { decideHook = prev }
}

// ModelCount returns the length of the cache's model-reuse list.
func ModelCount(c *Cache) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.models)
}

// Generation returns the exact map's generation counter.
func Generation(c *Cache) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gen
}
