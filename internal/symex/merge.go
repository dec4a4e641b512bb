package symex

import (
	"cmp"
	"slices"

	"stringloops/internal/bv"
	"stringloops/internal/cir"
	"stringloops/internal/engine"
)

// This file is the state-merging scheduler (§4.3's answer to path
// explosion). The enumerating executor completes 2^n path suffixes for a
// loop over n independent symbolic bytes; the merging executor instead parks
// states where control flow reconverges (cir.Program.Joins: branch
// post-dominators, loop headers, loop exits) and folds compatible states
// into one, turning value differences into ite terms and path conditions
// into disjunctions. A loop over n symbolic bytes then costs O(n) scheduled
// states.
//
// Soundness rests on one invariant the forking executor already maintains:
// any two live states descend from a common ancestor through complementary
// branch conditions, so their path conditions are pairwise disjoint. Under
// the merged condition condA ∨ condB, every model satisfies exactly one
// side, so Ite(condA, a, b) denotes the right value on both.

// scheduler is the work-list policy of a run. The enumerating executor uses
// a plain LIFO (stackSched); -merge swaps in mergeSched.
type scheduler interface {
	push(*state)
	pop() (*state, bool)
}

// stackSched is the classic depth-first work list — byte-identical
// behaviour to the pre-scheduler executor.
type stackSched struct{ work []*state }

func (q *stackSched) push(s *state) { q.work = append(q.work, s) }

func (q *stackSched) pop() (*state, bool) {
	n := len(q.work)
	if n == 0 {
		return nil, false
	}
	s := q.work[n-1]
	q.work = q.work[:n-1]
	return s, true
}

// mergeSched parks block-entry states arriving at join points and releases
// each join's bucket only when it is "ripe" — no other parked state can
// still reach it — so every state that will ever arrive at the join is in
// the bucket when it merges. Runnable (non-parked) states drain first, LIFO.
// Blocks are the decoded program's block numbers.
type mergeSched struct {
	e     *Engine
	run   []*state
	joins *cir.Joins
	parks [][]*state // per block
	order []int32    // non-empty buckets, first-arrival order
}

func newMergeSched(e *Engine, p *cir.Program) *mergeSched {
	j := p.Joins()
	return &mergeSched{e: e, joins: j, parks: make([][]*state, len(j.Kind))}
}

// push parks a state about to enter a join point. It crosses the edge
// first, while the state still names it (after a merge the edge is
// ambiguous), and prunes the state to its live locations (so per-iteration
// temporaries can't block folding — see liveness.go); everything else is
// runnable.
func (m *mergeSched) push(s *state) {
	if s.pending == nil || m.joins.Kind[s.pending.Block] == 0 {
		m.run = append(m.run, s)
		return
	}
	b := s.pending.Block
	if !m.e.cross(s) {
		return
	}
	pruneDead(s, m.joins.Live[b])
	if len(m.parks[b]) == 0 {
		m.order = append(m.order, b)
	}
	m.parks[b] = append(m.parks[b], s)
}

func (m *mergeSched) pop() (*state, bool) {
	for {
		if n := len(m.run); n > 0 {
			s := m.run[n-1]
			m.run = m.run[:n-1]
			return s, true
		}
		i := m.pickBucket()
		if i < 0 {
			return nil, false
		}
		b := m.order[i]
		m.order = slices.Delete(m.order, i, i+1)
		parked := m.parks[b]
		m.parks[b] = nil
		// Merged groups go straight to the run list (not through push):
		// they are leaving this join, not arriving at it.
		m.run = append(m.run, m.e.mergeStates(parked)...)
	}
}

// pickBucket chooses the bucket to flush, by its position in order, or -1
// when none is parked: one no other parked bucket can still feed (so it
// merges everything that will ever arrive), smallest reverse-postorder
// position on ties. Mutually-reaching buckets (nested loops) fall back to
// plain RPO order, which flushes the outermost header first.
func (m *mergeSched) pickBucket() int {
	rpo := m.joins.RPO
	best := -1
	for i, b := range m.order {
		ripe := true
		for _, o := range m.order {
			if o != b && m.joins.Reaches(o, b) {
				ripe = false
				break
			}
		}
		if ripe && (best < 0 || rpo[b] < rpo[m.order[best]]) {
			best = i
		}
	}
	if best < 0 {
		for i, b := range m.order {
			if best < 0 || rpo[b] < rpo[m.order[best]] {
				best = i
			}
		}
	}
	return best
}

// mergeStates greedily folds parked states in arrival order: each state
// merges into the first compatible group, or opens a new one. A subsumption
// fixpoint then re-folds the surviving groups pairwise: merging can create
// new compatibility (an unassigned zero-value slot adopts the other side's
// kind), so one greedy pass over arrival order is not maximal. Arrival
// order and the index-ordered fixpoint are both deterministic (the executor
// is single-threaded), so the grouping — and every ite term it builds — is
// too.
func (e *Engine) mergeStates(parked []*state) []*state {
	var groups []*state
outer:
	for _, s := range parked {
		for i, g := range groups {
			if ns, ok := e.mergeTwo(g, s); ok {
				groups[i] = ns
				continue outer
			}
		}
		groups = append(groups, s)
	}
	for changed := true; changed && len(groups) > 1; {
		changed = false
	pairs:
		for i := 0; i < len(groups); i++ {
			for j := i + 1; j < len(groups); j++ {
				if ns, ok := e.mergeTwo(groups[i], groups[j]); ok {
					groups[i] = ns
					groups = append(groups[:j], groups[j+1:]...)
					changed = true
					break pairs
				}
			}
		}
	}
	return groups
}

// mergeTwo folds b into a when every live location is mergeable, building
// per-location ite terms guarded by a's path condition and disjoining the
// conditions. It reports false — and builds nothing — on any structural
// mismatch (pointer vs integer, different objects, different cells),
// leaving the states to execute separately.
func (e *Engine) mergeTwo(a, b *state) (*state, bool) {
	if a.pc != b.pc {
		return nil, false
	}
	if len(a.cells) != len(b.cells) {
		return nil, false
	}
	for _, c := range a.cells {
		if bc := b.cell(c.id); bc == nil || !mergeable(c.val, bc.val) {
			return nil, false
		}
	}
	for i := range a.regs {
		if !mergeable(a.regs[i], b.regs[i]) {
			return nil, false
		}
	}

	steps := a.steps
	if b.steps > steps {
		steps = b.steps
	}
	// Merged conditions are where the value-numbering layer earns its keep:
	// the two sides of a join are usually complementary refinements of one
	// prefix, so the disjunction folds — often all the way to the prefix, or
	// to True — and every later conjunct, feasibility check and blast sees
	// the small form.
	cond := e.In.SimplifyBool(e.In.BOr2(a.cond, b.cond))
	ns := &state{
		regs:  make([]Value, len(a.regs)),
		cells: slices.Clone(a.cells),
		cond:  cond,
		pc:    a.pc,
		steps: steps,
	}
	ites := 0
	for i := range a.regs {
		ns.regs[i] = e.mergeValue(a.cond, a.regs[i], b.regs[i], &ites)
	}
	// Cells in object-id order, whatever order the two states allocated
	// them in, so the ite terms are built in one fixed order.
	slices.SortFunc(ns.cells, func(x, y cell) int { return cmp.Compare(x.id, y.id) })
	for i := range ns.cells {
		c := &ns.cells[i]
		c.val = e.mergeValue(a.cond, c.val, b.cell(c.id).val, &ites)
	}
	e.Budget.Add(engine.Merges, 1)
	e.Budget.Add(engine.MergeItes, int64(ites))
	return ns, true
}

// isZeroValue reports an unassigned register/cell slot; it merges with
// anything by taking the other side (the slot is dead on the path that
// never wrote it — well-formed IR reads it only through a phi, which was
// resolved before parking).
func isZeroValue(v Value) bool { return !v.IsPtr && v.Term == nil }

// mergeable is the compatibility half of mergeTwo: can these two values
// share one slot?
func mergeable(a, b Value) bool {
	if isZeroValue(a) || isZeroValue(b) {
		return true
	}
	if a.IsPtr != b.IsPtr {
		return false
	}
	if !a.IsPtr {
		return true
	}
	if a.IsNull() || b.IsNull() {
		return a.IsNull() && b.IsNull()
	}
	return a.Obj == b.Obj
}

// mergeValue is the construction half: equal values stay shared, differing
// integers (or offsets of the same object) become Ite(condA, a, b).
func (e *Engine) mergeValue(condA *bv.Bool, a, b Value, ites *int) Value {
	switch {
	case isZeroValue(a):
		return b
	case isZeroValue(b):
		return a
	case !a.IsPtr:
		if a.Term == b.Term {
			return a
		}
		*ites++
		return IntValue(e.mintIte(condA, a.Term, b.Term))
	case a.IsNull():
		return a
	case a.Off == b.Off:
		return a
	default:
		*ites++
		return PtrValue(a.Obj, e.mintIte(condA, a.Off, b.Off))
	}
}

// mintIte builds a merge ite, value-numbered through the memoized
// simplifier: the constructor's same-guard collapse and negated-guard
// normalization fire at build time, and the simplifier's fusion rules shrink
// arms that are themselves merged ites, so repeated joins of the same loop
// accrete shallow, shared terms instead of towers.
func (e *Engine) mintIte(cond *bv.Bool, a, b *bv.Term) *bv.Term {
	return e.In.SimplifyTerm(e.In.Ite(cond, a, b))
}
