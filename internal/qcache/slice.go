package qcache

import (
	"slices"

	"stringloops/internal/bv"
)

// group is one independent slice of a query: conjuncts that transitively
// share variables, in query order, with their sorted ID set (the cache key
// material). Both slices alias the cache's slicing scratch and are valid
// only until the next query; anything stored past the query is copied.
type group struct {
	conj []*bv.Bool
	ids  []int
}

// conjInfo is the per-conjunct memo slicing reads: the content-based
// conjunct ID and the conjunct's sorted, deduped dense variable ids.
type conjInfo struct {
	id   int
	vars []int32
}

// sliceScratch holds the buffers slicing reuses across queries. Dense
// variable ids index owner and stamp; a stamp equal to the current epoch
// marks an owner written by this query, so nothing is cleared per query.
type sliceScratch struct {
	epoch  uint32
	owner  []int32  // variable id -> first conjunct index seen this epoch
	stamp  []uint32 // variable id -> epoch that wrote owner
	info   []conjInfo
	parent []int32
	member []int32 // conjunct index -> group index (root index before that)
	size   []int   // group index -> conjunct count
	conj   []*bv.Bool
	ids    []int
	groups []group
}

// slice partitions conj into variable-disjoint groups with a union-find over
// shared variables: two conjuncts land in one group iff they are connected
// through a chain of common variables. Groups come out in order of their
// first conjunct, each group's conjuncts in query order. Variable-free
// conjuncts (possible only if they escaped constant folding) become
// singletons. The result aliases c.scr. Caller holds c.mu.
func (c *Cache) slice(conj []*bv.Bool) []group {
	s := &c.scr
	n := len(conj)
	// Conjunct IDs are assigned here, in query order.
	s.info = s.info[:0]
	for _, cj := range conj {
		s.info = append(s.info, c.info(cj))
	}

	s.epoch++
	if s.epoch == 0 {
		clear(s.stamp)
		s.epoch = 1
	}
	if nv := len(c.varNames); len(s.stamp) < nv {
		s.stamp = append(s.stamp, make([]uint32, nv-len(s.stamp))...)
		s.owner = append(s.owner, make([]int32, nv-len(s.owner))...)
	}
	parent := resize(s.parent, n)
	s.parent = parent
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for i := range conj {
		for _, v := range s.info[i].vars {
			if s.stamp[v] != s.epoch {
				s.stamp[v] = s.epoch
				s.owner[v] = int32(i)
				continue
			}
			if ra, rb := find(int32(i)), find(s.owner[v]); ra != rb {
				parent[ra] = rb
			}
		}
	}

	// Number the groups by first conjunct, then lay every group out
	// contiguously. Each group's slices are capped at its size, so the
	// appends below fill its own region and never spill into the next.
	member := resize(s.member, n)
	s.member = member
	for i := range member {
		member[i] = -1
	}
	size := s.size[:0]
	for i := range conj {
		r := find(int32(i))
		if member[r] < 0 {
			member[r] = int32(len(size))
			size = append(size, 0)
		}
		member[i] = member[r]
		size[member[i]]++
	}
	s.size = size
	s.conj, s.ids = resize(s.conj, n), resize(s.ids, n)
	groups := resize(s.groups, len(size))
	s.groups = groups
	off := 0
	for g, k := range size {
		groups[g] = group{conj: s.conj[off : off : off+k], ids: s.ids[off : off : off+k]}
		off += k
	}
	for i, cj := range conj {
		g := &groups[member[i]]
		g.conj = append(g.conj, cj)
		g.ids = append(g.ids, s.info[i].id)
	}
	for _, g := range groups {
		slices.Sort(g.ids)
	}
	return groups
}

// resize returns buf with length n, reusing its storage when it fits.
func resize[T any](buf []T, n int) []T {
	return slices.Grow(buf[:0], n)[:n]
}

// info memoizes a conjunct's ID and dense variable ids. A conjunct's ID is
// content-based: two conjuncts with the same canonical serialization get
// the same ID regardless of how (or in what order) they were interned.
// Within one interner hash-consing makes structural and pointer identity
// coincide, so the pointer map is a fast path over the canonical map.
// Caller holds c.mu.
func (c *Cache) info(cj *bv.Bool) conjInfo {
	if ci, ok := c.conjs[cj]; ok {
		return ci
	}
	key := c.conjKey(cj)
	id, ok := c.canonIDs[key]
	if !ok {
		id = c.nextID
		c.nextID++
		c.canonIDs[key] = id
	}
	var vars []int32
	for _, name := range bv.VarNames(nil, cj) {
		v, ok := c.varIDs[name]
		if !ok {
			v = int32(len(c.varNames))
			c.varIDs[name] = v
			c.varNames = append(c.varNames, name)
		}
		vars = append(vars, v)
	}
	slices.Sort(vars)
	ci := conjInfo{id: id, vars: slices.Clip(slices.Compact(vars))}
	c.conjs[cj] = ci
	return ci
}
