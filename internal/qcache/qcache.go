// Package qcache is the query-optimization layer between the bit-vector
// solver (internal/bv) and its callers, modeled on KLEE's solver chain. It
// answers satisfiability queries over conjunctions of *bv.Bool constraints
// through three stacked optimizations:
//
//  1. Constraint-independence slicing: the conjunction is partitioned into
//     groups that share no symbolic variables, and each group is decided
//     separately — the models of independent groups merge trivially, and an
//     unsat verdict for any group settles the whole query.
//  2. Counterexample/query caching: each group is normalized to a sorted set
//     of conjunct IDs. An exact-match entry answers immediately; otherwise a
//     cached model that evaluates every conjunct true proves Sat without
//     solving (missing variables default to zero, so the model extends to a
//     genuine witness), and a cached unsat core that is a subset of the
//     group proves Unsat (adding conjuncts cannot revive an unsat core).
//  3. Incremental solving: misses go to one long-lived bv.Solver whose
//     Tseitin encoding is memoized, with the group's conjuncts passed as
//     assumption literals. Symex forks that share a path prefix therefore
//     blast the prefix once and pay only for their new branch condition.
//
// CheckSat returns a model with a Sat verdict; Decide, for callers that need
// only the status, such as a symbolic executor's per-fork feasibility check,
// does the same cache work without building one.
//
// A Cache is scoped to one bv.Interner — its per-conjunct memos, like the
// interner's simplifier memo and the solver's encoding, are indexed by node
// number, and numbers are per interner, so every formula passed to CheckSat
// or Decide must come from that interner.
// This mirrors the per-pipeline interner discipline: one pipeline, one
// interner, one cache. All methods are safe for concurrent use.
package qcache

import (
	"slices"
	"sync"
	"time"

	"stringloops/internal/bv"
	"stringloops/internal/diskcache"
	"stringloops/internal/engine"
	"stringloops/internal/faultpoint"
	"stringloops/internal/obs"
	"stringloops/internal/sat"
)

// Tuning caps. Scans are linear, so the model and core lists stay small;
// the exact map is cheap per entry and gets a larger allowance.
const (
	maxModels         = 64      // cached satisfying assignments scanned per miss
	maxUnsatCores     = 256     // cached unsat ID-sets scanned per miss
	maxExact          = 1 << 14 // exact-entry map size before wholesale reset
	maxSolverVars     = 1 << 18 // SAT vars before the incremental solver rebuilds
	maxPruneConjuncts = 64      // conjunct count past which guard pruning is skipped
)

// Stats is a snapshot of the cache's per-rule reuse: which rule answered
// each hit, and the largest slice seen. The work counts (queries, groups,
// hits, misses, rebuilds, conflicts) are charged to the query's budget
// instead; a Cache keeps no copy of them.
type Stats struct {
	// ExactHits, ModelHits and SubsetHits partition the hits by reuse rule.
	ExactHits  int64
	ModelHits  int64
	SubsetHits int64
	// MaxGroup is the largest slice (in conjuncts) seen.
	MaxGroup int
}

// exactEntry is a cached group verdict in canonical form: vals holds the
// model's values in the group key's canonical variable order (nil on unsat).
// Storing canonically — rather than under the original variable names —
// means the entry answers every group with the same structure, whatever
// names its interner happened to mint, and is exactly the payload the disk
// tier persists.
type exactEntry struct {
	status sat.Status
	vals   []uint64
	// spread marks that the entry's model has been fed into the model-reuse
	// list. Canonical keys let structurally repeated groups hit the exact map
	// where they used to miss and solve — and those solves used to seed the
	// reuse list. Releasing the model on the first hit (once, so hot entries
	// don't flood the bounded list with duplicates) keeps the reuse list as
	// diverse as it was under ordinal keys.
	spread bool
}

// Cache is a per-pipeline solver chain: slicer, reuse cache and incremental
// solver in front of the bit-vector layer.
type Cache struct {
	in *bv.Interner

	mu sync.Mutex
	// conjs memoizes, by node number, each conjunct's canonical
	// serialization (original variable names kept — see canon.go), ID and
	// dense variable ids (see info). canonIDs keys the IDs by canonical
	// serialization, so a conjunct's ID is a function of its structure, not
	// of interning order. Sorted ID sets normalize groups for the
	// subset-unsat rule.
	conjs    bv.Pages[conjInfo]
	canonIDs map[string]int
	nextID   int
	// varIDs numbers each sort-tagged variable name ("t:x" / "b:p") densely
	// per cache, and varNames maps the numbers back, so slicing indexes
	// slices instead of hashing names.
	varIDs   map[string]int32
	varNames []string
	// groupKeys memoizes the canonical group key per sorted ID set, keyed
	// by the set's hash (see groupKeyOf).
	groupKeys map[uint64]*groupKey
	// exact maps canonical group keys to verdicts. The canonical key is
	// interner-independent, so with a disk store attached the map doubles as
	// the write-through front of the persistent tier. gen moves whenever the
	// map is reset or a key in it is overwritten, so a memoized groupKey's
	// cached entry pointer is current while the generation it was cached
	// under is.
	exact map[string]*exactEntry
	gen   uint64
	disk  *diskcache.Store
	// unsatCores holds sorted conjunct-ID sets proven unsat; any superset
	// is unsat too.
	unsatCores [][]int
	// models holds restricted satisfying assignments; any group they
	// evaluate true is sat. probe evaluates a group under one of them at a
	// time: Reset moves its generation stamp, so switching models clears
	// nothing and the memo never outgrows the interner's node numbers.
	models []*bv.Assignment
	probe  bv.Evaluator

	solver *bv.Solver
	faults *faultpoint.Registry
	stats  Stats
	// hits tallies the current query's cache hits; the query charges the
	// tally to its budget once, as it returns (see unlock).
	hits int64

	// Per-query scratch, reused under c.mu. Nothing that outlives a query
	// may alias it.
	conjBuf, simpBuf, flatBuf []*bv.Bool
	scr                       sliceScratch
	canon                     canonWriter
	scan                      bv.VarScanner
	names                     []string

	// Shape instruments, lazily bound from the budget's registry on the
	// first query that carries one: they are a gauge and a histogram, not
	// counters, so the ledger does not hold them. Nil (no-op) while
	// observability is off.
	boundMetrics *obs.Metrics
	gMaxGroup    *obs.Gauge
	hSolveNs     *obs.Histogram
}

// New returns an empty cache scoped to the given interner. Every formula
// later passed to CheckSat/Decide/IsValid must be built by that interner.
func New(in *bv.Interner) *Cache {
	return &Cache{
		in:        in,
		canonIDs:  map[string]int{},
		varIDs:    map[string]int32{},
		groupKeys: map[uint64]*groupKey{},
		exact:     map[string]*exactEntry{},
		solver:    bv.NewSolver(),
	}
}

// SetDisk attaches the persistent query store: verdicts are written through
// on every remember and consulted (after the in-memory exact map, before the
// scan rules) on every miss, so a warm -cache-dir answers structurally
// repeated queries without solving — across pipelines and across processes.
// Returns the cache for chaining; a nil store leaves the tier disabled.
func (c *Cache) SetDisk(d *diskcache.Store) *Cache {
	c.mu.Lock()
	c.disk = d
	c.mu.Unlock()
	return c
}

// SetFaults arms the QCacheMiss injection site: a firing makes one group
// skip the reuse rules and go straight to the SAT solver — a cache-miss
// storm. Verdicts stay correct (the solver is the ground truth the cache
// only short-circuits), so this site degrades throughput, never answers.
// The registry is also handed to the incremental solver so the sat.* sites
// fire under the same schedule. Returns the cache for chaining.
func (c *Cache) SetFaults(f *faultpoint.Registry) *Cache {
	c.mu.Lock()
	c.faults = f
	c.solver.Faults = f
	c.mu.Unlock()
	return c
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// bindMetrics resolves the shape instruments from the budget's registry,
// re-resolving only when the registry changes (per-pipeline caches see one
// registry for their lifetime). Caller holds c.mu.
func (c *Cache) bindMetrics(b *engine.Budget) {
	m := b.Metrics()
	if m == c.boundMetrics {
		return
	}
	c.boundMetrics = m
	c.gMaxGroup = m.Gauge(obs.MQCacheMaxGroup)
	c.hSolveNs = m.Histogram(obs.MQCacheSolveNs)
}

// CheckSat decides the conjunction of the given formulas, returning a model
// on Sat. It has the same contract as bv.CheckSat — the optional budget b
// carries cancellation, conflict and cache-hit accounting — but routes the
// query through slicing, the reuse cache and the incremental solver.
// Unknown results are never cached.
func (c *Cache) CheckSat(b *engine.Budget, formulas ...*bv.Bool) (sat.Status, *bv.Assignment) {
	return c.query(b, formulas, true)
}

// Decide is CheckSat for callers that need only the status, such as a
// symbolic executor's per-fork check or a test generator's per-path check.
// It does the same cache work in the same order, so Stats, the budget
// counters and the solver's conflicts come out as under CheckSat. What it skips is building a model for the caller: an exact hit
// translates its stored model only while that model still has to be
// released into the model-reuse list, and the groups' models are never
// merged.
//
// A nil cache is the direct solver: one bv.CheckSat of the formulas as
// given, with no simplification, no qcache ledger rows and no reuse.
func (c *Cache) Decide(b *engine.Budget, formulas ...*bv.Bool) sat.Status {
	if decideHook != nil {
		decideHook(formulas)
	}
	if c == nil {
		st, _ := bv.CheckSat(b, formulas...)
		return st
	}
	st, _ := c.query(b, formulas, false)
	return st
}

// decideHook, when non-nil, sees the formulas of every Decide call. Tests
// set it to record symex query streams.
var decideHook func(formulas []*bv.Bool)

// unlock charges the query's hit tally to b and releases c.mu.
func (c *Cache) unlock(b *engine.Budget) {
	b.Add(engine.CacheHits, c.hits)
	c.hits = 0
	c.mu.Unlock()
}

// query is the one body behind CheckSat and Decide. wantModel says whether
// the caller reads the model.
func (c *Cache) query(b *engine.Budget, formulas []*bv.Bool, wantModel bool) (sat.Status, *bv.Assignment) {
	c.mu.Lock()
	defer c.unlock(b)
	c.bindMetrics(b)
	b.Add(engine.CacheQueries, 1)
	if b.Exceeded() {
		return sat.Unknown, nil
	}

	// Simplify each formula through the value-numbering layer (memoized on
	// the interner, so the shared prefix of a symbolic path's query stream
	// pays once). Simplification is equivalence-preserving over the whole
	// conjunction, so the cache keys and models below — which are built from
	// the simplified conjuncts — answer the original query: a variable
	// simplified away is a don't-care, and the evaluator's zero-fill
	// convention extends any returned model to it.
	gs := c.simpBuf[:0]
	for _, f := range formulas {
		gs = append(gs, c.in.SimplifyBool(f))
	}
	c.simpBuf = gs
	groups, unsat := c.prepare(gs)
	if unsat {
		return sat.Unsat, nil
	}
	var merged *bv.Assignment
	if wantModel {
		merged = &bv.Assignment{Terms: map[string]uint64{}, Bools: map[string]bool{}}
	}
	if len(groups) == 0 {
		return sat.Sat, merged
	}

	b.Add(engine.CacheGroups, int64(len(groups)))
	for _, g := range groups {
		if len(g.conj) > c.stats.MaxGroup {
			c.stats.MaxGroup = len(g.conj)
			c.gMaxGroup.SetMax(int64(len(g.conj)))
		}
		st, model := c.checkGroup(b, g, wantModel)
		switch st {
		case sat.Unsat:
			return sat.Unsat, nil
		case sat.Unknown:
			return sat.Unknown, nil
		}
		if !wantModel {
			continue
		}
		// Groups are variable-disjoint by construction, so models merge
		// without collisions.
		for k, v := range model.Terms {
			merged.Terms[k] = v
		}
		for k, v := range model.Bools {
			merged.Bools[k] = v
		}
	}
	return sat.Sat, merged
}

// prepare turns the simplified formulas of one query into its independent
// groups: flatten, deduplicate, prune, slice. Guard pruning rewrites each
// conjunct under the assumption that the current versions of the others
// hold, so ite guards decided by the enclosing path condition collapse. Each
// rewrite preserves the whole conjunction's meaning, so the sequence does
// too. Pruning is skipped past maxPruneConjuncts. It can mint constants and
// fresh conjunctions, so a pruned conjunction is flattened and deduplicated
// again. unsat reports a conjunction that is trivially false: a False
// conjunct before or after pruning. The groups alias the cache's scratch
// until the next query. Caller holds c.mu.
func (c *Cache) prepare(gs []*bv.Bool) (groups []group, unsat bool) {
	raw := c.conjBuf[:0]
	for _, g := range gs {
		raw = bv.Conjuncts(raw, g)
	}
	c.conjBuf = raw
	if raw, unsat = dedupe(raw); unsat {
		return nil, true
	}
	if len(raw) <= maxPruneConjuncts && c.in.PruneConjuncts(raw) {
		post := c.flatBuf[:0]
		for _, cj := range raw {
			post = bv.Conjuncts(post, cj)
		}
		c.flatBuf = post
		if raw, unsat = dedupe(post); unsat {
			return nil, true
		}
	}
	return c.slice(raw), false
}

// dedupe drops True and pointer-duplicate conjuncts in place, reporting
// unsat=true when a False conjunct makes the whole query trivially unsat.
// Duplicates are found by scanning what was kept, with no map: in one pass
// of each of the four benchmark workloads the longest conjunction seen here
// has 50 conjuncts and the per-workload medians are 6 to 13, so the
// quadratic scan stays a few hundred pointer compares and allocates nothing.
func dedupe(conj []*bv.Bool) (out []*bv.Bool, unsat bool) {
	kept := conj[:0]
	for _, cj := range conj {
		if cj == bv.False {
			return nil, true
		}
		if cj == bv.True || slices.Contains(kept, cj) {
			continue
		}
		kept = append(kept, cj)
	}
	return kept, false
}

// IsValid reports whether f holds under all assignments, by refuting its
// negation through the cache. The second result is a counterexample when f
// is not valid, and the status is Unknown if the budget ran out.
func (c *Cache) IsValid(b *engine.Budget, f *bv.Bool) (valid bool, counterexample *bv.Assignment, st sat.Status) {
	status, model := c.CheckSat(b, c.in.BNot1(f))
	switch status {
	case sat.Unsat:
		return true, nil, status
	case sat.Sat:
		return false, model, status
	default:
		return false, nil, status
	}
}

// checkGroup decides one independent slice, consulting the reuse rules
// before the solver. The model comes back on Sat when wantModel is set (and
// may come back anyway). Caller holds c.mu.
func (c *Cache) checkGroup(b *engine.Budget, g group, wantModel bool) (sat.Status, *bv.Assignment) {
	gk := c.groupKeyOf(g.conj, g.ids)

	if c.faults.Fire(faultpoint.QCacheMiss) {
		// Injected miss storm: bypass every reuse rule and pay the solver.
		b.Add(engine.CacheMisses, 1)
		return c.solveGroup(b, g, gk)
	}

	if e := c.lookup(gk); e != nil {
		return c.exactHit(gk, e, wantModel)
	}

	// Persistent tier: a verdict stored by another pipeline — or another
	// process — under the same canonical key. Decoded entries are promoted
	// into the exact map; an undecodable entry is ignored (cold miss).
	if c.disk != nil {
		if raw, ok := c.disk.Get(b, gk.key); ok {
			if st, vals, ok := decodeEntry(raw, len(gk.vars)); ok {
				e := c.storeExact(gk, exactEntry{status: st, vals: vals})
				return c.exactHit(gk, e, wantModel)
			}
		}
	}

	if m := c.reuseModel(g.conj); m != nil {
		c.stats.ModelHits++
		c.hits++
		restricted := c.restrictModel(m, g.conj)
		c.remember(b, gk, sat.Sat, restricted)
		return sat.Sat, restricted
	}

	// Subset rule: a cached unsat core contained in this group proves the
	// group unsat — strengthening an unsatisfiable conjunction cannot make
	// it satisfiable.
	for _, core := range c.unsatCores {
		if subsetOf(core, g.ids) {
			c.stats.SubsetHits++
			c.hits++
			c.remember(b, gk, sat.Unsat, nil)
			return sat.Unsat, nil
		}
	}

	b.Add(engine.CacheMisses, 1)
	return c.solveGroup(b, g, gk)
}

// reuseModel is counterexample reuse: it returns the first cached model
// under which every conjunct evaluates true, or nil. Such a model is a
// witness — unbound variables evaluate to zero, so (model ∪ zeros)
// genuinely satisfies the group. One evaluator probes every model, Reset
// between them. Caller holds c.mu.
func (c *Cache) reuseModel(conj []*bv.Bool) *bv.Assignment {
	for _, m := range c.models {
		c.probe.Reset(m)
		ok := true
		for _, cj := range conj {
			if !c.probe.Bool(cj) {
				ok = false
				break
			}
		}
		if ok {
			return m
		}
	}
	return nil
}

// lookup returns the group's exact entry, nil when there is none. A key
// that found its entry before answers from the cached pointer while the
// exact map's generation is unchanged, without hashing the key. Caller
// holds c.mu.
func (c *Cache) lookup(gk *groupKey) *exactEntry {
	if gk.entry != nil && gk.gen == c.gen {
		return gk.entry
	}
	e := c.exact[gk.key]
	if e != nil {
		gk.entry, gk.gen = e, c.gen
	}
	return e
}

// exactHit answers a group from its key's exact entry, translating the
// canonical values into the group's own variable names. The first hit of a
// Sat entry also releases the model into the model-reuse list: under ordinal
// keys this group would have missed and its solve would have seeded the
// list, so the release keeps the reuse rule's coverage intact. That release
// happens whether or not the caller wants the model; a later hit translates
// it only for a caller that does. Caller holds c.mu.
func (c *Cache) exactHit(gk *groupKey, e *exactEntry, wantModel bool) (sat.Status, *bv.Assignment) {
	c.stats.ExactHits++
	c.hits++
	if e.status != sat.Sat {
		return e.status, nil
	}
	if e.spread && !wantModel {
		return sat.Sat, nil
	}
	m := gk.modelFor(e.vals)
	if !e.spread {
		e.spread = true
		c.addModel(m)
	}
	return sat.Sat, m
}

// addModel appends to the bounded model-reuse list. Caller holds c.mu.
func (c *Cache) addModel(m *bv.Assignment) {
	if len(c.models) >= maxModels {
		c.models = c.models[1:]
	}
	c.models = append(c.models, m)
}

// solveGroup sends one slice to the incremental solver under assumption
// literals and caches the verdict. Caller holds c.mu.
func (c *Cache) solveGroup(b *engine.Budget, g group, gk *groupKey) (sat.Status, *bv.Assignment) {
	if c.solver.NumSATVars() > maxSolverVars {
		c.solver = bv.NewSolver()
		c.solver.Faults = c.faults
		b.Add(engine.CacheRebuilds, 1)
	}
	c.solver.Budget = b

	blast0 := c.solver.BlastHits()
	lits := make([]sat.Lit, len(g.conj))
	for i, cj := range g.conj {
		// Rewrite-before-blast: the simplifier folds the ite-heavy shapes
		// state merging produces (and is memoized on the interner, so the
		// shared prefix of a symbolic path's query stream simplifies once;
		// CheckSat already simplified the conjuncts, so this is a pure memo
		// hit). Every cache key and stat above stays on
		// the conjunct pointers that reached this group — simplification
		// only shrinks what reaches the Tseitin encoder, it never changes
		// verdicts or cache identity.
		lits[i] = c.solver.Lit(c.in.SimplifyBool(cj))
	}
	b.Add(engine.BlastHits, c.solver.BlastHits()-blast0)

	searchStart := time.Now()
	st := c.solver.CheckAssumingLits(lits...)
	c.hSolveNs.Observe(int64(time.Since(searchStart)))

	switch st {
	case sat.Sat:
		// The solver's model covers every variable ever blasted on it, so
		// restrict to this group's variables before caching or merging —
		// stale assignments to other queries' variables must not leak.
		restricted := c.restrictModel(c.solver.ModelAssignment(), g.conj)
		c.remember(b, gk, sat.Sat, restricted)
		c.addModel(restricted)
		return sat.Sat, restricted
	case sat.Unsat:
		c.remember(b, gk, sat.Unsat, nil)
		if len(c.unsatCores) >= maxUnsatCores {
			c.unsatCores = c.unsatCores[1:]
		}
		c.unsatCores = append(c.unsatCores, slices.Clone(g.ids))
		return sat.Unsat, nil
	default:
		// Unknown (budget/conflict cap): not a verdict, never cached.
		return sat.Unknown, nil
	}
}

// remember stores a verdict under a group's canonical key — in the exact
// map and, write-through, in the persistent store when one is attached. The
// model (a restricted, original-named assignment; nil on unsat) is projected
// into canonical variable order first.
func (c *Cache) remember(b *engine.Budget, gk *groupKey, st sat.Status, model *bv.Assignment) {
	var vals []uint64
	if st == sat.Sat {
		vals = gk.canonVals(model)
	}
	c.storeExact(gk, exactEntry{status: st, vals: vals})
	if c.disk != nil {
		c.disk.Put(b, gk.key, encodeEntry(st, vals))
	}
}

// storeExact inserts the key's entry into the exact map, resetting the map
// wholesale at the cap (simple and O(1) amortized; precision rebuilds
// quickly), and caches the stored entry on the key. A reset or an
// overwritten key moves the generation, which retires every other key's
// cached pointer.
func (c *Cache) storeExact(gk *groupKey, e exactEntry) *exactEntry {
	if len(c.exact) >= maxExact {
		c.exact = map[string]*exactEntry{}
		c.gen++
	} else if _, ok := c.exact[gk.key]; ok {
		c.gen++
	}
	p := &e
	c.exact[gk.key] = p
	gk.entry, gk.gen = p, c.gen
	return p
}

// restrictModel projects a full assignment onto the group's variables,
// zero-filling variables the model leaves unbound. Only the model-reuse and
// solve paths restrict a model, so the group's variables are looked up
// there, not for every group; a variable shared by several conjuncts is
// simply written again. Caller holds c.mu.
func (c *Cache) restrictModel(m *bv.Assignment, conj []*bv.Bool) *bv.Assignment {
	out := &bv.Assignment{Terms: map[string]uint64{}, Bools: map[string]bool{}}
	for _, cj := range conj {
		for _, v := range c.info(cj).vars {
			tagged := c.varNames[v]
			name := tagged[2:]
			if tagged[0] == 't' {
				out.Terms[name] = m.Terms[name] // zero value when unbound
			} else {
				out.Bools[name] = m.Bools[name]
			}
		}
	}
	return out
}

// subsetOf reports whether sorted ID set a is contained in sorted ID set b.
func subsetOf(a, b []int) bool {
	if len(a) > len(b) {
		return false
	}
	i := 0
	for _, x := range a {
		for i < len(b) && b[i] < x {
			i++
		}
		if i >= len(b) || b[i] != x {
			return false
		}
		i++
	}
	return true
}
