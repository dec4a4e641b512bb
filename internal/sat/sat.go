// Package sat implements a CDCL (conflict-driven clause learning) SAT solver:
// two-watched-literal unit propagation, first-UIP conflict analysis with
// clause learning, VSIDS-style branching activity, phase saving and Luby
// restarts. It is the decision procedure underneath the bit-vector layer
// (package bv), playing the role STP/Z3 play for KLEE in the paper's
// artifact.
//
// The API follows the MiniSat convention: variables are created with NewVar,
// literals are built with Lit/NegLit, clauses are added with AddClause, and
// Solve returns a model or UNSAT. A Solver is multi-shot: after any Solve,
// more clauses may be added (the solver backtracks to the root level first)
// and SolveAssuming answers queries under temporary assumption literals
// without making them permanent — learnt clauses and variable activity carry
// over between calls, which is what makes the incremental bit-blasting of
// the query-cache layer (internal/qcache) pay off across symex forks.
//
// Search is budgeted by an optional engine.Budget, charged per conflict and
// polled inside the CDCL loop (every budgetPollMask+1 conflicts), so an
// external cancellation or a run-wide conflict cap stops the search promptly
// with Unknown instead of running unbounded.
package sat

import (
	"sort"

	"stringloops/internal/engine"
	"stringloops/internal/faultpoint"
)

// Lit is a literal: variable index shifted left once, low bit 1 for negated.
type Lit int32

// Lit returns the positive literal of variable v.
func PosLit(v int) Lit { return Lit(v << 1) }

// NegLit returns the negative literal of variable v.
func NegLit(v int) Lit { return Lit(v<<1 | 1) }

// Var returns the variable index of l.
func (l Lit) Var() int { return int(l >> 1) }

// Neg returns the complement literal.
func (l Lit) Neg() Lit { return l ^ 1 }

// Sign reports whether l is the negated literal of its variable.
func (l Lit) Sign() bool { return l&1 == 1 }

type lbool int8

const (
	lUndef lbool = iota
	lTrue
	lFalse
)

type clause struct {
	lits   []Lit
	learnt bool
	act    float64
	// lbd is the literal block distance (Glucose): the number of distinct
	// decision levels among the clause's literals at learning time, lowered
	// whenever conflict analysis re-touches the clause. Low LBD ("glue")
	// clauses connect few decision levels and are kept forever by reduceDB.
	lbd int32
}

type watcher struct {
	c       *clause
	blocker Lit // a literal whose truth satisfies the clause, for fast skip
}

// Status is the result of Solve.
type Status int8

const (
	// Unknown means the solver gave up (budget exceeded).
	Unknown Status = iota
	// Sat means a satisfying assignment was found.
	Sat
	// Unsat means the instance is unsatisfiable.
	Unsat
)

func (s Status) String() string {
	switch s {
	case Sat:
		return "sat"
	case Unsat:
		return "unsat"
	default:
		return "unknown"
	}
}

// Solver is a single-use CDCL SAT solver instance.
type Solver struct {
	numVars  int
	clauses  []*clause
	learnts  []*clause
	watches  [][]watcher // indexed by literal
	assign   []lbool     // indexed by variable
	level    []int32     // decision level per variable
	reason   []*clause   // antecedent clause per variable
	trail    []Lit
	trailLim []int // trail index at each decision level
	qhead    int

	activity []float64
	varInc   float64
	order    *varHeap
	phase    []bool // saved phase per variable

	// Clause-DB reduction state. claInc is the clause activity increment
	// (decayed geometrically per conflict, like varInc); lbdStamp/lbdGen are
	// the scratch generation-stamp array used by computeLBD so no allocation
	// happens per conflict; reduces counts reduceDB invocations.
	claInc   float64
	lbdStamp []int32
	lbdGen   int32
	reduces  int64

	// Per-variable scratch, all false or zero between calls: seen marks the
	// variables conflict analysis has visited, clauseLit holds (plus one) the
	// literal of each variable the clause AddClause is simplifying already
	// kept. Each user clears only the entries it set.
	seen      []bool
	clauseLit []Lit
	// addBuf is AddClause's scratch for the simplified clause, and
	// clauseSlab/litSlab the unused rest of the chunks original clauses
	// and their literals are carved from (newClause).
	addBuf     []Lit
	clauseSlab []clause
	litSlab    []Lit

	ok        bool // false once a top-level conflict is found
	conflicts int64
	decisions int64
	// propagations counts trail literals processed by unit propagation. It
	// is a plain local counter — the hot loop stays free of atomics — and
	// its per-query delta is flushed to the shared budget (and thence the
	// metrics registry) once per SolveAssuming call.
	propagations int64
	// assumptions holds the temporary decision literals of the current
	// SolveAssuming call; assumption i is decided at level i+1.
	assumptions []Lit
	// Budget, when non-nil, is charged one conflict per conflict and polled
	// periodically inside the search loop; an exhausted or cancelled budget
	// makes Solve return Unknown promptly.
	Budget *engine.Budget
	// Faults, when non-nil, is consulted once per SolveAssuming call: the
	// SatUnknown site forces an Unknown give-up, the SatConflictStorm site
	// charges a burst of conflicts to the shared budget before searching.
	// Both are query-granular, so the CDCL inner loop stays fault-free and
	// full speed. Nil means no injection.
	Faults *faultpoint.Registry
	// reduceBase is the learnt-clause count that triggers the first
	// clause-DB reduction; each reduction raises the trigger by reduceInc,
	// so the DB grows slowly instead of unboundedly. Zero values take the
	// defaults (DefaultReduceBase/DefaultReduceInc); a negative reduceBase
	// disables reduction entirely. Package tests set them to reach the
	// reduction sooner and to build a reduction-free reference solver.
	reduceBase int
	reduceInc  int
}

// Default clause-DB reduction schedule: first reduce at 2000 learnt clauses,
// then every reduction lets the DB grow by 300 more before the next one
// (MiniSat's geometric schedule flattened to the arithmetic one Glucose
// uses, which behaves better under the incremental SolveAssuming workload
// the qcache layer generates).
const (
	DefaultReduceBase = 2000
	DefaultReduceInc  = 300
)

// Injected-fault magnitudes: a forced give-up still burned real work in a
// production solver, and a conflict storm models a pathological query, so
// both charge the shared budget in realistic lumps.
const (
	// faultGiveUpConflicts is charged when SatUnknown forces an Unknown,
	// so repeated forced give-ups exhaust a conflict-limited budget the
	// way organic hard queries would.
	faultGiveUpConflicts = 64
	// faultStormConflicts is charged by one SatConflictStorm firing.
	faultStormConflicts = 256
)

// budgetPollMask controls how often the search loop polls the shared budget:
// every (budgetPollMask+1)-th conflict. Polling is cheap (an atomic load on
// the fast path) but not free; 64 keeps cancellation latency in the
// microsecond range on these instances.
const budgetPollMask = 63

// New returns an empty solver.
func New() *Solver {
	s := &Solver{ok: true, varInc: 1, claInc: 1}
	s.order = &varHeap{act: &s.activity}
	return s
}

// NewVar allocates a fresh variable and returns its index.
func (s *Solver) NewVar() int {
	v := s.numVars
	s.numVars++
	s.watches = append(s.watches, nil, nil)
	s.assign = append(s.assign, lUndef)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, nil)
	s.activity = append(s.activity, 0)
	s.phase = append(s.phase, false)
	s.seen = append(s.seen, false)
	s.clauseLit = append(s.clauseLit, 0)
	s.order.push(v)
	return v
}

// NumVars returns the number of allocated variables.
func (s *Solver) NumVars() int { return s.numVars }

func (s *Solver) valueLit(l Lit) lbool {
	a := s.assign[l.Var()]
	if a == lUndef {
		return lUndef
	}
	if l.Sign() == (a == lFalse) {
		return lTrue
	}
	return lFalse
}

// AddClause adds a clause over the given literals. It returns false if the
// instance became trivially unsatisfiable. The literal slice is copied.
// Adding a clause after a Solve backtracks to the root level first, which
// discards the model of a preceding Sat result — read models before growing
// the instance.
func (s *Solver) AddClause(lits ...Lit) bool {
	if !s.ok {
		return false
	}
	s.cancelUntil(0)
	// Simplify: drop duplicate and false literals, detect tautology.
	out := s.addBuf[:0]
	satisfied := false
scan:
	for _, l := range lits {
		if int(l.Var()) >= s.numVars {
			s.clearClauseLits(out)
			panic("sat: literal references unallocated variable")
		}
		switch kept := s.clauseLit[l.Var()]; {
		case kept != 0 && kept != l+1: // the complement: a tautology
			satisfied = true
			break scan
		case kept == l+1:
			continue
		case s.valueLit(l) == lTrue && s.level[l.Var()] == 0:
			satisfied = true
			break scan
		case s.valueLit(l) == lFalse && s.level[l.Var()] == 0:
			continue
		}
		s.clauseLit[l.Var()] = l + 1
		out = append(out, l)
	}
	s.clearClauseLits(out)
	s.addBuf = out[:0]
	if satisfied {
		return true
	}
	switch len(out) {
	case 0:
		s.ok = false
		return false
	case 1:
		s.uncheckedEnqueue(out[0], nil)
		if s.propagate() != nil {
			s.ok = false
			return false
		}
		return true
	}
	c := s.newClause(out)
	s.clauses = append(s.clauses, c)
	s.attach(c)
	return true
}

// Original clauses are carved from slabs: one chunk of clause structs and
// one of literals serve many AddClause calls. A new chunk is sized by the
// clauses the solver already has, between the bounds below, so a small
// instance allocates little and a large one allocates rarely. Learnt
// clauses are allocated one by one, because reduceDB frees them.
const (
	minClauseSlab = 16
	maxClauseSlab = 1024
	litsPerClause = 4 // literal chunk size per clause-chunk slot
)

// newClause returns an original clause over a slab copy of lits.
func (s *Solver) newClause(lits []Lit) *clause {
	size := min(max(len(s.clauses), minClauseSlab), maxClauseSlab)
	if len(s.clauseSlab) == 0 {
		s.clauseSlab = make([]clause, size)
	}
	c := &s.clauseSlab[0]
	s.clauseSlab = s.clauseSlab[1:]
	if len(lits) > cap(s.litSlab)-len(s.litSlab) {
		s.litSlab = make([]Lit, 0, max(litsPerClause*size, len(lits)))
	}
	n := len(s.litSlab)
	s.litSlab = append(s.litSlab, lits...)
	c.lits = s.litSlab[n:len(s.litSlab):len(s.litSlab)]
	return c
}

// clearClauseLits resets the clauseLit entries AddClause set for lits.
func (s *Solver) clearClauseLits(lits []Lit) {
	for _, l := range lits {
		s.clauseLit[l.Var()] = 0
	}
}

func (s *Solver) attach(c *clause) {
	l0, l1 := c.lits[0], c.lits[1]
	s.watches[l0.Neg()] = append(s.watches[l0.Neg()], watcher{c, l1})
	s.watches[l1.Neg()] = append(s.watches[l1.Neg()], watcher{c, l0})
}

func (s *Solver) uncheckedEnqueue(l Lit, from *clause) {
	v := l.Var()
	if l.Sign() {
		s.assign[v] = lFalse
	} else {
		s.assign[v] = lTrue
	}
	s.level[v] = int32(s.decisionLevel())
	s.reason[v] = from
	s.trail = append(s.trail, l)
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

// propagate performs unit propagation; it returns the conflicting clause or
// nil.
func (s *Solver) propagate() *clause {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.propagations++
		ws := s.watches[p]
		kept := ws[:0]
		var confl *clause
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			if confl != nil {
				kept = append(kept, ws[i:]...)
				break
			}
			if s.valueLit(w.blocker) == lTrue {
				kept = append(kept, w)
				continue
			}
			c := w.c
			// Normalise so the false literal p.Neg() is lits[1].
			if c.lits[0] == p.Neg() {
				c.lits[0], c.lits[1] = c.lits[1], c.lits[0]
			}
			first := c.lits[0]
			if first != w.blocker && s.valueLit(first) == lTrue {
				kept = append(kept, watcher{c, first})
				continue
			}
			// Look for a new literal to watch.
			found := false
			for k := 2; k < len(c.lits); k++ {
				if s.valueLit(c.lits[k]) != lFalse {
					c.lits[1], c.lits[k] = c.lits[k], c.lits[1]
					s.watches[c.lits[1].Neg()] = append(s.watches[c.lits[1].Neg()], watcher{c, first})
					found = true
					break
				}
			}
			if found {
				continue
			}
			// Clause is unit or conflicting.
			kept = append(kept, watcher{c, first})
			if s.valueLit(first) == lFalse {
				confl = c
				s.qhead = len(s.trail)
			} else {
				s.uncheckedEnqueue(first, c)
			}
		}
		s.watches[p] = kept
		if confl != nil {
			return confl
		}
	}
	return nil
}

// analyze performs first-UIP conflict analysis, returning the learnt clause
// (asserting literal first) and the backtrack level.
func (s *Solver) analyze(confl *clause) ([]Lit, int) {
	learnt := []Lit{0} // slot 0 reserved for the asserting literal
	seen := s.seen
	counter := 0
	var p Lit = -1
	idx := len(s.trail) - 1

	for {
		if confl.learnt {
			// Clauses that participate in conflict analysis are the useful
			// ones: bump their activity so reduceDB keeps them, and tighten
			// their LBD if the current assignment shows a lower one
			// (Glucose's dynamic LBD update).
			s.bumpClause(confl)
			if l := s.computeLBD(confl.lits); l < confl.lbd {
				confl.lbd = l
			}
		}
		for _, q := range confl.lits {
			if p != -1 && q == p {
				continue
			}
			v := q.Var()
			if !seen[v] && s.level[v] > 0 {
				seen[v] = true
				s.bumpVar(v)
				if int(s.level[v]) >= s.decisionLevel() {
					counter++
				} else {
					learnt = append(learnt, q)
				}
			}
		}
		// Select next literal on the trail to resolve on.
		for !seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		seen[p.Var()] = false
		counter--
		if counter == 0 {
			break
		}
		confl = s.reason[p.Var()]
	}
	learnt[0] = p.Neg()
	// Every current-level variable was resolved away and unmarked above, so
	// the marks left are exactly the learnt clause's other variables.
	for _, q := range learnt[1:] {
		seen[q.Var()] = false
	}

	// Backtrack level: second-highest level in the learnt clause.
	btLevel := 0
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].Var()] > s.level[learnt[maxI].Var()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		btLevel = int(s.level[learnt[1].Var()])
	}
	return learnt, btLevel
}

// computeLBD returns the literal block distance of lits under the current
// assignment: the number of distinct decision levels among the literals.
// Unassigned literals are rare here (analyze only sees assigned ones) and
// count as one extra block conservatively via level 0 aliasing being excluded
// — they are simply skipped.
func (s *Solver) computeLBD(lits []Lit) int32 {
	for len(s.lbdStamp) < len(s.trailLim)+1 {
		s.lbdStamp = append(s.lbdStamp, 0)
	}
	s.lbdGen++
	var n int32
	for _, l := range lits {
		v := l.Var()
		if s.assign[v] == lUndef {
			continue
		}
		lv := s.level[v]
		if int(lv) < len(s.lbdStamp) && s.lbdStamp[lv] != s.lbdGen {
			s.lbdStamp[lv] = s.lbdGen
			n++
		}
	}
	if n == 0 {
		n = 1
	}
	return n
}

func (s *Solver) bumpClause(c *clause) {
	c.act += s.claInc
	if c.act > 1e20 {
		for _, lc := range s.learnts {
			lc.act *= 1e-20
		}
		s.claInc *= 1e-20
	}
}

func (s *Solver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.order.update(v)
}

func (s *Solver) cancelUntil(level int) {
	if s.decisionLevel() <= level {
		return
	}
	for i := len(s.trail) - 1; i >= s.trailLim[level]; i-- {
		v := s.trail[i].Var()
		s.phase[v] = s.assign[v] == lTrue
		s.assign[v] = lUndef
		s.reason[v] = nil
		s.order.pushIfAbsent(v)
	}
	s.trail = s.trail[:s.trailLim[level]]
	s.trailLim = s.trailLim[:level]
	s.qhead = len(s.trail)
}

func (s *Solver) pickBranchVar() int {
	for {
		v, ok := s.order.pop()
		if !ok {
			return -1
		}
		if s.assign[v] == lUndef {
			return v
		}
	}
}

// Solve runs the CDCL search and returns the status. On Sat, Model reports
// variable values.
func (s *Solver) Solve() Status { return s.SolveAssuming() }

// SolveAssuming runs the CDCL search with the given literals as temporary
// assumptions: they are decided (in order) before any free decision, and a
// conflicting assumption yields Unsat without making the instance
// permanently unsatisfiable. Learnt clauses derive from the permanent clause
// set only, so they remain valid for later calls under different
// assumptions. On Sat, Model reports variable values.
func (s *Solver) SolveAssuming(assumptions ...Lit) Status {
	// Flush per-query propagation/decision deltas to the shared budget at
	// exit — batched so the propagate/search inner loops carry no atomics.
	propBase, decBase := s.propagations, s.decisions
	defer func() {
		s.Budget.Add(engine.Propagations, s.propagations-propBase)
		s.Budget.Add(engine.Decisions, s.decisions-decBase)
	}()
	s.cancelUntil(0)
	if !s.ok {
		return Unsat
	}
	if s.Budget.Exceeded() {
		return Unknown
	}
	if s.Faults.Fire(faultpoint.SatConflictStorm) {
		s.Budget.Add(engine.Conflicts, faultStormConflicts)
		if s.Budget.Exceeded() {
			return Unknown
		}
	}
	if s.Faults.Fire(faultpoint.SatUnknown) {
		s.Budget.Add(engine.Conflicts, faultGiveUpConflicts)
		return Unknown
	}
	s.assumptions = assumptions
	restartBase := int64(100)
	for restart := 0; ; restart++ {
		limit := restartBase * int64(luby(restart))
		st := s.search(limit)
		if st != Unknown {
			return st
		}
		if s.Budget.Exceeded() {
			s.cancelUntil(0)
			return Unknown
		}
		s.cancelUntil(0)
	}
}

// Conflicts returns the total conflicts across every Solve call on this
// solver (cumulative, for per-query deltas at the caller).
func (s *Solver) Conflicts() int64 { return s.conflicts }

// Propagations returns the total unit-propagation steps across every Solve
// call on this solver.
func (s *Solver) Propagations() int64 { return s.propagations }

// Decisions returns the total branching decisions across every Solve call.
func (s *Solver) Decisions() int64 { return s.decisions }

func (s *Solver) search(conflictBudget int64) Status {
	var budget int64
	for {
		confl := s.propagate()
		if confl != nil {
			s.conflicts++
			budget++
			s.Budget.Add(engine.Conflicts, 1)
			if s.conflicts&budgetPollMask == 0 && s.Budget.Exceeded() {
				return Unknown
			}
			if s.decisionLevel() == 0 {
				s.ok = false
				return Unsat
			}
			learnt, bt := s.analyze(confl)
			lbd := s.computeLBD(learnt)
			s.cancelUntil(bt)
			if len(learnt) == 1 {
				s.uncheckedEnqueue(learnt[0], nil)
			} else {
				c := &clause{lits: learnt, learnt: true, lbd: lbd}
				s.learnts = append(s.learnts, c)
				s.attach(c)
				s.bumpClause(c)
				s.uncheckedEnqueue(learnt[0], c)
			}
			s.varInc *= 1.0 / 0.95
			s.claInc *= 1.0 / 0.999
			if max := s.reduceLimit(); max > 0 && len(s.learnts) >= max {
				s.reduceDB()
			}
			continue
		}
		if budget >= conflictBudget {
			return Unknown
		}
		s.decisions++
		if s.decisions&budgetPollMask == 0 && s.Budget.Exceeded() {
			return Unknown
		}
		// Assumptions are decided (in order) before any free decision. An
		// already-true assumption still opens a dummy level so that level i+1
		// always corresponds to assumption i; a false one means the instance
		// is unsat under these assumptions, without poisoning the permanent
		// clause set (s.ok stays true).
		next := Lit(-1)
		for next == Lit(-1) && s.decisionLevel() < len(s.assumptions) {
			p := s.assumptions[s.decisionLevel()]
			switch s.valueLit(p) {
			case lTrue:
				s.trailLim = append(s.trailLim, len(s.trail))
			case lFalse:
				return Unsat
			default:
				next = p
			}
		}
		if next == Lit(-1) {
			v := s.pickBranchVar()
			if v == -1 {
				return Sat
			}
			if s.phase[v] {
				next = PosLit(v)
			} else {
				next = NegLit(v)
			}
		}
		s.trailLim = append(s.trailLim, len(s.trail))
		s.uncheckedEnqueue(next, nil)
	}
}

// reduceLimit returns the learnt-clause count that triggers the next
// reduction, or 0 when reduction is disabled (reduceBase < 0).
func (s *Solver) reduceLimit() int {
	base, inc := s.reduceBase, s.reduceInc
	if base < 0 {
		return 0
	}
	if base == 0 {
		base = DefaultReduceBase
	}
	if inc == 0 {
		inc = DefaultReduceInc
	}
	return base + inc*int(s.reduces)
}

// reduceDB deletes the worse half of the learnt-clause database, ranked by
// (LBD descending, activity ascending). Three classes are never deleted:
// glue clauses (LBD <= 2), binary clauses (cheap to keep, expensive to
// relearn), and locked clauses (currently the reason of an assigned
// variable — deleting those would corrupt conflict analysis). Deleted
// clauses are eagerly detached from the watch lists, which is valid at any
// decision level because propagate maintains the watched literals at
// lits[0] and lits[1].
func (s *Solver) reduceDB() {
	s.reduces++
	keep := func(c *clause) bool {
		return c.lbd <= 2 || len(c.lits) == 2 || s.locked(c)
	}
	cand := make([]*clause, 0, len(s.learnts))
	kept := s.learnts[:0]
	for _, c := range s.learnts {
		if keep(c) {
			kept = append(kept, c)
		} else {
			cand = append(cand, c)
		}
	}
	// Worse clauses first: higher LBD, then lower activity.
	sortClausesWorseFirst(cand)
	drop := len(cand) / 2
	for i, c := range cand {
		if i < drop {
			s.detach(c)
		} else {
			kept = append(kept, c)
		}
	}
	// Zero the tail so dropped clause pointers do not pin memory.
	for i := len(kept); i < len(s.learnts); i++ {
		s.learnts[i] = nil
	}
	s.learnts = kept
}

// locked reports whether c is the reason clause of an assigned variable.
func (s *Solver) locked(c *clause) bool {
	v := c.lits[0].Var()
	return s.assign[v] != lUndef && s.reason[v] == c
}

// detach removes c's two watcher entries. propagate keeps the watched
// literals normalised at lits[0]/lits[1], so only those two lists are
// scanned.
func (s *Solver) detach(c *clause) {
	for _, l := range []Lit{c.lits[0], c.lits[1]} {
		ws := s.watches[l.Neg()]
		out := ws[:0]
		for _, w := range ws {
			if w.c != c {
				out = append(out, w)
			}
		}
		for i := len(out); i < len(ws); i++ {
			ws[i] = watcher{}
		}
		s.watches[l.Neg()] = out
	}
}

// sortClausesWorseFirst orders cand by LBD descending, then activity
// ascending (a hand-rolled insertion-free sort via sort.Slice would pull in
// no extra dependencies either; this keeps the comparator in one place).
func sortClausesWorseFirst(cand []*clause) {
	sort.Slice(cand, func(i, j int) bool {
		if cand[i].lbd != cand[j].lbd {
			return cand[i].lbd > cand[j].lbd
		}
		return cand[i].act < cand[j].act
	})
}

// NumLearnts returns the current learnt-clause count (after any reductions).
func (s *Solver) NumLearnts() int { return len(s.learnts) }

// Reduces returns how many clause-DB reductions have run.
func (s *Solver) Reduces() int64 { return s.reduces }

// Model returns the value of variable v in the satisfying assignment found by
// the last successful Solve. Unassigned variables (possible when the formula
// does not constrain them) report false.
func (s *Solver) Model(v int) bool { return s.assign[v] == lTrue }

// luby returns the i-th element of the Luby restart sequence
// (1,1,2,1,1,2,4,...).
func luby(i int) int {
	// Find the finite subsequence containing index i and its size.
	size, seq := 1, 0
	for size < i+1 {
		seq++
		size = 2*size + 1
	}
	for size-1 != i {
		size = (size - 1) / 2
		seq--
		i %= size
	}
	return 1 << uint(seq)
}

// varHeap is a max-heap of variables ordered by activity.
type varHeap struct {
	heap []int
	pos  []int // variable -> index in heap, -1 if absent
	act  *[]float64
}

func (h *varHeap) less(a, b int) bool { return (*h.act)[h.heap[a]] > (*h.act)[h.heap[b]] }

func (h *varHeap) swap(a, b int) {
	h.heap[a], h.heap[b] = h.heap[b], h.heap[a]
	h.pos[h.heap[a]] = a
	h.pos[h.heap[b]] = b
}

func (h *varHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		h.swap(i, p)
		i = p
	}
}

func (h *varHeap) down(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(h.heap) && h.less(l, smallest) {
			smallest = l
		}
		if r < len(h.heap) && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.swap(i, smallest)
		i = smallest
	}
}

// push inserts v unconditionally; callers must know v is not on the heap
// (NewVar, which only ever sees fresh variables, and pushIfAbsent).
func (h *varHeap) push(v int) {
	for len(h.pos) <= v {
		h.pos = append(h.pos, -1)
	}
	h.heap = append(h.heap, v)
	h.pos[v] = len(h.heap) - 1
	h.up(len(h.heap) - 1)
}

// pushIfAbsent re-queues v for branching after backtracking; a variable
// still on the heap is left in place (re-pushing would duplicate the entry,
// corrupt pos bookkeeping, and make pop yield stale copies).
func (h *varHeap) pushIfAbsent(v int) {
	if v < len(h.pos) && h.pos[v] != -1 {
		return
	}
	h.push(v)
}

func (h *varHeap) pop() (int, bool) {
	if len(h.heap) == 0 {
		return 0, false
	}
	v := h.heap[0]
	last := len(h.heap) - 1
	h.swap(0, last)
	h.heap = h.heap[:last]
	h.pos[v] = -1
	if len(h.heap) > 0 {
		h.down(0)
	}
	return v, true
}

func (h *varHeap) update(v int) {
	if v < len(h.pos) && h.pos[v] != -1 {
		h.up(h.pos[v])
	}
}
