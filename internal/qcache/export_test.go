package qcache

import "stringloops/internal/bv"

// RaceEnabled reports whether the race detector is on.
const RaceEnabled = raceEnabled

// TraceExtend makes every Extend call report its parent, formula and
// returned path to fn until the returned function restores the previous
// hook.
func TraceExtend(fn func(parent *Path, f *bv.Bool, p *Path)) (restore func()) {
	prev := extendHook
	extendHook = fn
	return func() { extendHook = prev }
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
