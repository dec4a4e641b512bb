package qcache

import (
	"cmp"
	"slices"

	"stringloops/internal/bv"
)

// Path is a prepared path condition: the conjunction one query decided,
// kept in the form the cache decides it in, so that a query which only adds
// conjuncts to it — the next branch of a symbolic path — re-derives only
// what the new conjuncts touch. Extend returns one; symex keeps it on the
// state whose condition it decided and shares it, copy-on-write, with the
// state's forks.
//
// The path's conjuncts (deduplicated, before guard pruning) fall into
// regions, their variable-connected components. Pruning and slicing never
// cross a region: the pruner decides a node only from a conjunct equal to
// it or to its negation, which has the node's variables, and pruning only
// ever drops variables. So a region's pruned groups depend on its own
// conjuncts alone, and a region no new conjunct touches keeps its groups
// (DESIGN §8).
//
// A Path is immutable except that each group's key is set on its first
// check; keys, and the exact entries they cache, are written under the
// cache mutex. A Path belongs to the cache that built it.
type Path struct {
	c *Cache
	// root is the simplified formula the path was prepared from. A query
	// whose simplified formula is root, or root ∧ more, extends the path.
	root *bv.Bool
	// n counts the deduplicated conjuncts before pruning. A conjunct's index
	// in that list is its position.
	n int
	// local is false when a variable-free conjunct could carry pruning or
	// deduplication across regions; such a path is never extended.
	local   bool
	regions []*region
	// groups are the independent slices in the order the cache checks
	// them: by the position of their first conjunct.
	groups []*pathGroup
}

// region is one variable-connected component of a path's conjuncts before
// pruning.
type region struct {
	vars []int32    // sorted dense variable ids
	conj []*bv.Bool // the conjuncts, in query order
	pos  []int32    // their positions
}

// regionOf returns the region holding variable v, or nil.
func (p *Path) regionOf(v int32) *region {
	for _, r := range p.regions {
		if _, ok := slices.BinarySearch(r.vars, v); ok {
			return r
		}
	}
	return nil
}

// pathGroup is one independent slice of a prepared path: its conjuncts in
// query order and their sorted ID set.
type pathGroup struct {
	conj []*bv.Bool
	ids  []int
	// pos orders the groups: the position of the conjunct the first one was
	// pruned from, shifted left 32, plus its index in that conjunct's
	// flattening.
	pos int64
	reg *region
	// gk is the memoized canonical key, set on the group's first check; it
	// caches the key's exact entry.
	gk *groupKey
}

// prepScratch holds the buffers preparing a query reuses. A path that is
// not kept lives here until the next query.
type prepScratch struct {
	flat        []*bv.Bool
	origin, sub []int32
	path        Path
	pg          []pathGroup
	order       []*pathGroup
	at          []*region
	unit        []unitEntry
	conj        []*bv.Bool
	newIdx      []int32
	touched     []*region
	treg        []int32
	count       []int
}

// unitEntry is one conjunct of the regions an extension re-prepares: its
// position and the index of the new region it joins.
type unitEntry struct {
	cj  *bv.Bool
	pos int32
	reg int32
}

// prepare turns the simplified formulas of one query into its prepared
// path. With keep set (by Extend, which passes one formula) the path is
// returned to the caller and extends parent where it can; otherwise it lives
// in scratch until the next query. unsat reports a conjunction that is
// trivially false: a False conjunct before or after pruning. Caller holds
// c.mu.
func (c *Cache) prepare(parent *Path, gs []*bv.Bool, keep bool) (p *Path, unsat bool) {
	if parent != nil && parent.c == c {
		g := gs[0]
		if g == parent.root {
			return parent, false
		}
		if parent.local && g.Kind == bv.BAnd && g.A == parent.root {
			if p, unsat, ok := c.extend(parent, g); ok {
				return p, unsat
			}
		}
	}
	return c.build(gs, keep)
}

// build prepares gs from scratch: flatten, deduplicate, prune, slice. A
// kept path also records its regions. Caller holds c.mu.
func (c *Cache) build(gs []*bv.Bool, keep bool) (*Path, bool) {
	raw := c.conjBuf[:0]
	for _, g := range gs {
		raw = bv.Conjuncts(raw, g)
	}
	c.conjBuf = raw
	raw, unsat := dedupe(raw)
	if unsat {
		return nil, true
	}
	p := &c.pre.path
	*p = Path{c: c, n: len(raw)}
	if keep {
		// Regions are taken before pruning rewrites raw in place.
		p = &Path{c: c, root: gs[0], n: len(raw)}
		p.regions, p.local = c.regionsOf(raw)
	}
	post, origin, sub, unsat := c.pruneFlat(raw, len(raw) <= maxPruneConjuncts)
	if unsat {
		return nil, true
	}
	groups := c.slice(post)
	if !keep {
		pg, order := resize(c.pre.pg, len(groups)), resize(c.pre.order, len(groups))
		for i, g := range groups {
			pg[i] = pathGroup{conj: g.conj, ids: g.ids}
			order[i] = &pg[i]
		}
		c.pre.pg, c.pre.order = pg, order
		p.groups = order
		return p, false
	}
	if p.local && c.varFree(len(post)) {
		p.local = false
	}
	at := c.pre.at
	pg := c.keepGroups(groups, len(post), func(first int) (int64, *region) {
		o := origin[first]
		return int64(o)<<32 | int64(sub[first]), at[o]
	})
	p.groups = make([]*pathGroup, len(pg))
	for i := range pg {
		p.groups[i] = &pg[i]
	}
	return p, false
}

// extend prepares g = parent.root ∧ g.B, pruning, slicing and keying again
// only the regions g.B's conjuncts touch; the other regions keep their
// groups, cached entries included. ok is false when that would not
// reproduce build: a variable-free conjunct (which the region argument does
// not cover), or a conjunction that crosses the pruning threshold. The
// caller then builds from scratch; a variable-free conjunct found only after
// pruning means that rebuild prunes once more, which can charge the same
// ite fusions twice. Caller holds c.mu.
func (c *Cache) extend(parent *Path, g *bv.Bool) (p *Path, unsat, ok bool) {
	s := &c.pre
	added := bv.Conjuncts(c.conjBuf[:0], g.B)
	c.conjBuf = added
	// Drop what build's dedupe would: True, and repeats. A repeat of a
	// parent conjunct has its variables, so it sits in the region holding
	// its first variable.
	kept := added[:0]
	for _, cj := range added {
		switch {
		case cj == bv.False:
			return nil, true, true
		case cj == bv.True || slices.Contains(kept, cj):
			continue
		}
		vs := c.vars(cj)
		if len(vs) == 0 {
			return nil, false, false
		}
		if r := parent.regionOf(vs[0]); r != nil && slices.Contains(r.conj, cj) {
			continue
		}
		kept = append(kept, cj)
	}
	if len(kept) == 0 {
		return &Path{c: c, root: g, n: parent.n, local: true, regions: parent.regions, groups: parent.groups}, false, true
	}
	n := parent.n + len(kept)
	prune := n <= maxPruneConjuncts
	if prune != (parent.n <= maxPruneConjuncts) {
		return nil, false, false
	}

	// Connect the parent's regions and the new conjuncts: a region sharing
	// a component with a new conjunct is touched, and each such component
	// becomes one new region.
	nr := len(parent.regions)
	member, size := c.components(nr+len(kept), func(i int) []int32 {
		if i < nr {
			return parent.regions[i].vars
		}
		return c.vars(kept[i-nr])
	})
	newIdx := resize(s.newIdx, len(size))
	s.newIdx = newIdx
	for i := range newIdx {
		newIdx[i] = -1
	}
	regs := 0
	for k := range kept {
		if m := member[nr+k]; newIdx[m] < 0 {
			newIdx[m] = int32(regs)
			regs++
		}
	}
	unit, touched, treg := s.unit[:0], s.touched[:0], s.treg[:0]
	for i, r := range parent.regions {
		if ni := newIdx[member[i]]; ni >= 0 {
			touched, treg = append(touched, r), append(treg, ni)
			for j, cj := range r.conj {
				unit = append(unit, unitEntry{cj: cj, pos: r.pos[j], reg: ni})
			}
		}
	}
	if len(touched) > 1 {
		slices.SortFunc(unit, func(a, b unitEntry) int { return cmp.Compare(a.pos, b.pos) })
	}
	for k, cj := range kept {
		unit = append(unit, unitEntry{cj: cj, pos: int32(parent.n + k), reg: newIdx[member[nr+k]]})
	}
	s.unit, s.touched, s.treg = unit, touched, treg

	conj := resize(s.conj, len(unit))
	s.conj = conj
	for i, e := range unit {
		conj[i] = e.cj
	}
	post, origin, sub, unsat := c.pruneFlat(conj, prune)
	if unsat {
		return nil, true, true
	}
	groups := c.slice(post)
	if c.varFree(len(post)) {
		return nil, false, false
	}

	// A new region's variables are the union of its parts'; when it grew
	// from one region without new variables it shares that region's set.
	newRegs := c.layoutRegions(unit, regs)
	for i, r := range touched {
		newRegs[treg[i]].vars = unionVars(newRegs[treg[i]].vars, r.vars)
	}
	for _, e := range unit[len(unit)-len(kept):] {
		r := &newRegs[e.reg]
		r.vars = unionVars(r.vars, c.vars(e.cj))
	}
	ng := c.keepGroups(groups, len(post), func(first int) (int64, *region) {
		e := unit[origin[first]]
		return int64(e.pos)<<32 | int64(sub[first]), &newRegs[e.reg]
	})

	p = &Path{c: c, root: g, n: n, local: true}
	p.regions = make([]*region, 0, len(parent.regions)-len(touched)+regs)
	for _, r := range parent.regions {
		if !slices.Contains(touched, r) {
			p.regions = append(p.regions, r)
		}
	}
	for i := range newRegs {
		p.regions = append(p.regions, &newRegs[i])
	}
	// The untouched groups keep their order; the new ones merge in by
	// position.
	p.groups = make([]*pathGroup, 0, len(parent.groups)+len(ng))
	j := 0
	for _, pg := range parent.groups {
		if slices.Contains(touched, pg.reg) {
			continue
		}
		for ; j < len(ng) && ng[j].pos < pg.pos; j++ {
			p.groups = append(p.groups, &ng[j])
		}
		p.groups = append(p.groups, pg)
	}
	for ; j < len(ng); j++ {
		p.groups = append(p.groups, &ng[j])
	}
	return p, false, true
}

// unionVars returns the union of two sorted variable sets. It returns a
// itself when b adds nothing, and allocates otherwise; the sets it is given
// are never written.
func unionVars(a, b []int32) []int32 {
	if len(a) == 0 {
		return b
	}
	out := make([]int32, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j == len(b) || i < len(a) && a[i] < b[j]:
			out = append(out, a[i])
			i++
		case i == len(a) || b[j] < a[i]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	if len(out) == len(a) {
		return a
	}
	return slices.Clip(out)
}

// layoutRegions builds regs regions from entries in position order, each
// taking the entries whose reg is its index; the regions share one array
// for their conjuncts and one for their positions. Variables are left to
// the caller. Caller holds c.mu.
func (c *Cache) layoutRegions(unit []unitEntry, regs int) []region {
	count := resize(c.pre.count, regs)
	c.pre.count = count
	clear(count)
	for _, e := range unit {
		count[e.reg]++
	}
	out := make([]region, regs)
	conjs, poss := make([]*bv.Bool, len(unit)), make([]int32, len(unit))
	off := 0
	for i, k := range count {
		out[i].conj, out[i].pos = conjs[off:off:off+k], poss[off:off:off+k]
		off += k
	}
	for _, e := range unit {
		r := &out[e.reg]
		r.conj = append(r.conj, e.cj)
		r.pos = append(r.pos, e.pos)
	}
	return out
}

// regionsOf splits a kept path's conjuncts, before pruning, into regions,
// recording each conjunct's region in c.pre.at. local is false when a
// conjunct is variable-free. Caller holds c.mu.
func (c *Cache) regionsOf(conj []*bv.Bool) (regions []*region, local bool) {
	member, size := c.components(len(conj), func(i int) []int32 { return c.vars(conj[i]) })
	unit := c.pre.unit[:0]
	for i, cj := range conj {
		unit = append(unit, unitEntry{cj: cj, pos: int32(i), reg: member[i]})
	}
	c.pre.unit = unit
	regs := c.layoutRegions(unit, len(size))
	local = true
	for _, e := range unit {
		vs := c.vars(e.cj)
		if len(vs) == 0 {
			local = false
		}
		r := &regs[e.reg]
		r.vars = unionVars(r.vars, vs)
	}
	regions = make([]*region, len(regs))
	for i := range regs {
		regions[i] = &regs[i]
	}
	at := resize(c.pre.at, len(conj))
	for i := range conj {
		at[i] = regions[member[i]]
	}
	c.pre.at = at
	return regions, local
}

// varFree reports whether any of the n conjuncts the last slice numbered
// is variable-free. Caller holds c.mu.
func (c *Cache) varFree(n int) bool {
	for _, ci := range c.scr.info[:n] {
		if len(ci.vars) == 0 {
			return true
		}
	}
	return false
}

// keepGroups copies the groups the last slice returned out of its scratch
// for a kept path. n is the number of sliced conjuncts, and place gives a
// group's position and region from the index of its first conjunct. Caller
// holds c.mu.
func (c *Cache) keepGroups(groups []group, n int, place func(first int) (int64, *region)) []pathGroup {
	conj := slices.Clone(c.scr.conj[:n])
	ids := slices.Clone(c.scr.ids[:n])
	pg := make([]pathGroup, len(groups))
	off := 0
	for i, g := range groups {
		k := len(g.conj)
		pos, reg := place(g.first)
		pg[i] = pathGroup{conj: conj[off : off+k : off+k], ids: ids[off : off+k : off+k], pos: pos, reg: reg}
		off += k
	}
	return pg
}

// pruneFlat applies guard pruning to conj in place when prune is set: each
// conjunct is rewritten under the assumption that the current versions of
// the others hold, so ite guards decided by the enclosing path condition
// collapse. The passes are sequential — each is equivalence-preserving for
// the whole conjunction, so the composition is too. Pruning can mint
// constants and fresh conjunctions, so a changed conjunction is re-flattened
// and re-deduplicated; unsat reports a False among the results. post[i]
// came from conj[origin[i]], as the sub[i]-th conjunct of its flattening.
// The results alias c.pre. Caller holds c.mu.
func (c *Cache) pruneFlat(conj []*bv.Bool, prune bool) (post []*bv.Bool, origin, sub []int32, unsat bool) {
	s := &c.pre
	if !prune || !c.in.PruneConjuncts(conj) {
		origin, sub = resize(s.origin, len(conj)), resize(s.sub, len(conj))
		for i := range conj {
			origin[i], sub[i] = int32(i), 0
		}
		s.origin, s.sub = origin, sub
		return conj, origin, sub, false
	}
	post, origin, sub = s.flat[:0], s.origin[:0], s.sub[:0]
	for i, cj := range conj {
		n := len(post)
		post = bv.Conjuncts(post, cj)
		for k := n; k < len(post); k++ {
			origin = append(origin, int32(i))
			sub = append(sub, int32(k-n))
		}
	}
	s.flat, s.origin, s.sub = post, origin, sub
	// dedupe, keeping origin and sub in step.
	kept := 0
	for i, cj := range post {
		if cj == bv.False {
			return nil, nil, nil, true
		}
		if cj == bv.True || slices.Contains(post[:kept], cj) {
			continue
		}
		post[kept], origin[kept], sub[kept] = cj, origin[i], sub[i]
		kept++
	}
	return post[:kept], origin[:kept], sub[:kept], false
}
