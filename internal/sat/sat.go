// Package sat implements a CDCL (conflict-driven clause learning) SAT solver:
// two-watched-literal unit propagation, first-UIP conflict analysis with
// clause learning, VSIDS-style branching activity, phase saving and Luby
// restarts. It is the decision procedure underneath the bit-vector layer
// (package bv), playing the role STP/Z3 play for KLEE in the paper's
// artifact.
//
// The API follows the MiniSat convention: variables are created with NewVar,
// literals are built with PosLit/NegLit, clauses are added with AddClause, and
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
	"math"
	"sort"

	"stringloops/internal/engine"
	"stringloops/internal/faultpoint"
)

// Lit is a literal: variable index shifted left once, low bit 1 for negated.
type Lit int32

// PosLit returns the positive literal of variable v.
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

// cref refers to a clause by the offset of its header word in the solver's
// arena. Offset 0 is reserved, so the zero cref means "no clause".
type cref uint32

const noClause cref = 0

// The arena holds every clause in one pointer-free []Lit that the garbage
// collector never scans: a header word, size<<hdrShift | flags, then the
// literals, then for a learnt clause three words: its LBD (Glucose's literal
// block distance, the number of distinct decision levels among its literals)
// and the low and high halves of its float64 activity. float32 would keep
// only a few bits of the activities that rescaling pushes into its denormal
// range, and reorder reduceDB's deletions there. Every record starts with
// its header, so compact can walk the arena.
const (
	hdrLearnt  Lit = 1 // a learnt clause, with the three extra words
	hdrDeleted Lit = 2 // deleted by reduceDB; its words await compact
	hdrShift       = 2
)

type watcher struct {
	c       cref
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

// Solver is a multi-shot CDCL SAT solver: clauses may be added between
// solves, and SolveAssuming answers each query under its own assumptions.
type Solver struct {
	arena    []Lit       // every clause, see hdrLearnt
	wasted   int         // arena words of deleted clauses
	learnts  []cref      // live learnt clauses
	watches  [][]watcher // indexed by literal
	vals     []lbool     // value per literal: both polarities are set
	level    []int32     // decision level per variable
	reason   []cref      // antecedent clause per variable, noClause if none
	trail    []Lit
	trailLim []int // trail index at each decision level
	qhead    int

	activity []float64
	varInc   float64
	order    *varHeap
	phase    []Lit // saved phase per variable: its last literal on the trail

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
	// addBuf and learntBuf are the reused scratch of AddClause's simplified
	// clause and analyze's learnt clause; both are copied into the arena.
	addBuf, learntBuf []Lit

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
	// so the DB grows slowly instead of unboundedly. A negative reduceBase
	// disables reduction entirely, and compactAlways compacts the arena at
	// every reduction. Package tests set them to reach the reduction sooner,
	// to build a reduction-free reference and to force compaction.
	reduceBase, reduceInc int
	compactAlways         bool
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
	s := &Solver{ok: true, varInc: 1, claInc: 1, arena: []Lit{0},
		reduceBase: DefaultReduceBase, reduceInc: DefaultReduceInc}
	s.order = &varHeap{act: &s.activity}
	return s
}

// NewVar allocates a fresh variable and returns its index.
func (s *Solver) NewVar() int {
	v := len(s.level)
	s.watches = append(s.watches, nil, nil)
	s.vals = append(s.vals, lUndef, lUndef)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, noClause)
	s.activity = append(s.activity, 0)
	s.phase = append(s.phase, NegLit(v))
	s.seen = append(s.seen, false)
	s.clauseLit = append(s.clauseLit, 0)
	s.order.push(v)
	return v
}

// NumVars returns the number of allocated variables.
func (s *Solver) NumVars() int { return len(s.level) }

// words returns the arena words of the clause whose header is h.
func words(h Lit) int { return 1 + int(h>>hdrShift) + 3*int(h&hdrLearnt) }

// extra returns the offset just past clause c's literals: a learnt clause's
// LBD word, which its activity's low and high halves follow.
func (s *Solver) extra(c cref) int { return int(c) + 1 + int(s.arena[c]>>hdrShift) }

// lits returns clause c's literals, a view into the arena.
func (s *Solver) lits(c cref) []Lit { e := s.extra(c); return s.arena[c+1 : e : e] }

func (s *Solver) lbd(c cref) int32 { return int32(s.arena[s.extra(c)]) }

func (s *Solver) act(c cref) float64 {
	e := s.extra(c)
	return math.Float64frombits(uint64(uint32(s.arena[e+1])) | uint64(uint32(s.arena[e+2]))<<32)
}

func (s *Solver) setAct(c cref, a float64) {
	e, b := s.extra(c), math.Float64bits(a)
	s.arena[e+1], s.arena[e+2] = Lit(uint32(b)), Lit(uint32(b>>32))
}

// alloc copies lits into a new clause at the end of the arena; lbd > 0
// makes it a learnt clause of that LBD and activity zero. A full arena
// doubles, where append would grow a large one by a quarter and so copy it
// about five times as often.
func (s *Solver) alloc(lits []Lit, lbd int32) cref {
	c, h := cref(len(s.arena)), Lit(len(lits))<<hdrShift
	if n := int(c) + words(h|hdrLearnt); n > cap(s.arena) {
		s.arena = append(make([]Lit, 0, max(2*cap(s.arena), n)), s.arena...)
	}
	if s.arena = append(append(s.arena, h), lits...); lbd > 0 {
		s.arena[c] |= hdrLearnt
		s.arena = append(s.arena, Lit(lbd), 0, 0)
	}
	return c
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
		if l.Var() >= len(s.level) {
			s.clearClauseLits(out)
			panic("sat: literal references unallocated variable")
		}
		switch kept := s.clauseLit[l.Var()]; {
		case kept != 0 && kept != l+1: // the complement: a tautology
			satisfied = true
			break scan
		case kept == l+1:
			continue
		case s.vals[l] == lTrue && s.level[l.Var()] == 0:
			satisfied = true
			break scan
		case s.vals[l] == lFalse && s.level[l.Var()] == 0:
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
		s.uncheckedEnqueue(out[0], noClause)
		if s.propagate() != noClause {
			s.ok = false
			return false
		}
		return true
	}
	s.attach(s.alloc(out, 0))
	return true
}

// clearClauseLits resets the clauseLit entries AddClause set for lits.
func (s *Solver) clearClauseLits(lits []Lit) {
	for _, l := range lits {
		s.clauseLit[l.Var()] = 0
	}
}

func (s *Solver) attach(c cref) {
	l := s.lits(c)
	s.watches[l[0].Neg()] = append(s.watches[l[0].Neg()], watcher{c, l[1]})
	s.watches[l[1].Neg()] = append(s.watches[l[1].Neg()], watcher{c, l[0]})
}

func (s *Solver) uncheckedEnqueue(l Lit, from cref) {
	s.vals[l], s.vals[l.Neg()] = lTrue, lFalse
	v := l.Var()
	s.level[v] = int32(s.decisionLevel())
	s.reason[v] = from
	s.trail = append(s.trail, l)
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

// propagate performs unit propagation; it returns the conflicting clause or
// noClause.
func (s *Solver) propagate() cref {
	vals := s.vals
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.propagations++
		ws := s.watches[p]
		kept := ws[:0]
		confl := noClause
	nextWatch:
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			if confl != noClause {
				kept = append(kept, ws[i:]...)
				break
			}
			if vals[w.blocker] == lTrue {
				kept = append(kept, w)
				continue
			}
			c := w.c
			lits := s.lits(c)
			// Normalise so the false literal p.Neg() is lits[1].
			if lits[0] == p.Neg() {
				lits[0], lits[1] = lits[1], lits[0]
			}
			first := lits[0]
			if first != w.blocker && vals[first] == lTrue {
				kept = append(kept, watcher{c, first})
				continue
			}
			// Look for a new literal to watch.
			for k := 2; k < len(lits); k++ {
				if vals[lits[k]] != lFalse {
					lits[1], lits[k] = lits[k], lits[1]
					s.watches[lits[1].Neg()] = append(s.watches[lits[1].Neg()], watcher{c, first})
					continue nextWatch
				}
			}
			// Clause is unit or conflicting.
			kept = append(kept, watcher{c, first})
			if vals[first] == lFalse {
				confl = c
				s.qhead = len(s.trail)
			} else {
				s.uncheckedEnqueue(first, c)
			}
		}
		s.watches[p] = kept
		if confl != noClause {
			return confl
		}
	}
	return noClause
}

// analyze performs first-UIP conflict analysis, returning the learnt clause
// (asserting literal first) and the backtrack level. The clause lives in
// learntBuf, which the next conflict reuses.
func (s *Solver) analyze(confl cref) ([]Lit, int) {
	learnt := append(s.learntBuf[:0], 0) // slot 0 reserved for the asserting literal
	seen := s.seen
	counter := 0
	var p Lit = -1
	idx := len(s.trail) - 1

	for {
		lits := s.lits(confl)
		if s.arena[confl]&hdrLearnt != 0 {
			// Clauses that participate in conflict analysis are the useful
			// ones: bump their activity so reduceDB keeps them, and tighten
			// their LBD if the current assignment shows a lower one
			// (Glucose's dynamic LBD update).
			s.bumpClause(confl)
			if l := s.computeLBD(lits); l < s.lbd(confl) {
				s.arena[s.extra(confl)] = Lit(l)
			}
		}
		for _, q := range lits {
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
	s.learntBuf = learnt
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
// Both callers pass clauses whose literals are all assigned; an unassigned
// literal would be skipped, and a clause with no assigned literal counts as
// one block.
func (s *Solver) computeLBD(lits []Lit) int32 {
	for len(s.lbdStamp) < len(s.trailLim)+1 {
		s.lbdStamp = append(s.lbdStamp, 0)
	}
	s.lbdGen++
	var n int32
	for _, l := range lits {
		if s.vals[l] == lUndef {
			continue
		}
		lv := s.level[l.Var()]
		if int(lv) < len(s.lbdStamp) && s.lbdStamp[lv] != s.lbdGen {
			s.lbdStamp[lv] = s.lbdGen
			n++
		}
	}
	return max(n, 1)
}

func (s *Solver) bumpClause(c cref) {
	a := s.act(c) + s.claInc
	s.setAct(c, a)
	if a > 1e20 {
		for _, lc := range s.learnts {
			s.setAct(lc, s.act(lc)*1e-20)
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
		l := s.trail[i]
		v := l.Var()
		s.phase[v] = l
		s.vals[l], s.vals[l.Neg()] = lUndef, lUndef
		s.reason[v] = noClause
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
		if s.vals[PosLit(v)] == lUndef {
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
	for restart := 0; ; restart++ {
		if st := s.search(100 * int64(luby(restart))); st != Unknown {
			return st
		}
		if s.cancelUntil(0); s.Budget.Exceeded() {
			return Unknown
		}
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
		if confl != noClause {
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
				s.uncheckedEnqueue(learnt[0], noClause)
			} else {
				c := s.alloc(learnt, lbd)
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
			switch s.vals[p] {
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
			next = s.phase[v]
		}
		s.trailLim = append(s.trailLim, len(s.trail))
		s.uncheckedEnqueue(next, noClause)
	}
}

// reduceLimit returns the learnt-clause count that triggers the next
// reduction, or 0 when reduction is disabled (reduceBase < 0).
func (s *Solver) reduceLimit() int {
	if s.reduceBase < 0 {
		return 0
	}
	return s.reduceBase + s.reduceInc*int(s.reduces)
}

// reduceDB deletes the worse half of the learnt-clause database, ranked by
// (LBD descending, activity ascending). Three classes are never deleted:
// glue clauses (LBD <= 2), binary clauses (cheap to keep, expensive to
// relearn), and locked clauses (currently the reason of an assigned
// variable — deleting those would corrupt conflict analysis). Deleted
// clauses are eagerly detached from the watch lists, which is valid at any
// decision level because propagate maintains the watched literals at
// lits[0] and lits[1]. Once deleted clauses fill more than half the arena,
// compact reclaims their words.
func (s *Solver) reduceDB() {
	s.reduces++
	cand := make([]cref, 0, len(s.learnts))
	kept := s.learnts[:0]
	for _, c := range s.learnts {
		if s.lbd(c) <= 2 || len(s.lits(c)) == 2 || s.locked(c) {
			kept = append(kept, c)
		} else {
			cand = append(cand, c)
		}
	}
	// Worse clauses first: higher LBD, then lower activity.
	sort.Slice(cand, func(i, j int) bool {
		if li, lj := s.lbd(cand[i]), s.lbd(cand[j]); li != lj {
			return li > lj
		}
		return s.act(cand[i]) < s.act(cand[j])
	})
	drop := len(cand) / 2
	for _, c := range cand[:drop] {
		s.detach(c)
		s.arena[c] |= hdrDeleted
		s.wasted += words(s.arena[c])
	}
	s.learnts = append(kept, cand[drop:]...)
	if 2*s.wasted > len(s.arena) || s.compactAlways {
		s.compact()
	}
}

// locked reports whether c is the reason clause of an assigned variable.
// A reason is only ever lits[0], and cancelUntil clears the reasons of the
// variables it unassigns.
func (s *Solver) locked(c cref) bool { return s.reason[s.arena[c+1].Var()] == c }

// detach removes c's two watcher entries. propagate keeps the watched
// literals normalised at lits[0]/lits[1], so only those two lists are
// scanned.
func (s *Solver) detach(c cref) {
	for _, l := range s.lits(c)[:2] {
		ws := s.watches[l.Neg()]
		out := ws[:0]
		for _, w := range ws {
			if w.c != c {
				out = append(out, w)
			}
		}
		s.watches[l.Neg()] = out
	}
}

// compact moves the live clauses into a new arena, keeping their order, and
// rewrites in place every watcher (so each watch list keeps its order),
// reason and learnts entry. While it rewrites, the old arena holds each
// moved clause's new offset in place of its first literal. The new arena
// has room for the live clauses to double before it grows.
func (s *Solver) compact() {
	from, to := s.arena, make([]Lit, 1, 2*(len(s.arena)-s.wasted))
	for c := 1; c < len(from); {
		n := words(from[c])
		if from[c]&hdrDeleted == 0 {
			nc := len(to)
			to = append(to, from[c:c+n]...)
			from[c+1] = Lit(nc)
		}
		c += n
	}
	for _, ws := range s.watches {
		for i := range ws {
			ws[i].c = cref(from[ws[i].c+1])
		}
	}
	for v, r := range s.reason {
		if r != noClause {
			s.reason[v] = cref(from[r+1])
		}
	}
	for i, c := range s.learnts {
		s.learnts[i] = cref(from[c+1])
	}
	s.arena, s.wasted = to, 0
}

// NumLearnts returns the current learnt-clause count (after any reductions).
func (s *Solver) NumLearnts() int { return len(s.learnts) }

// Reduces returns how many clause-DB reductions have run.
func (s *Solver) Reduces() int64 { return s.reduces }

// Model returns the value of variable v in the satisfying assignment found by
// the last successful Solve. Unassigned variables (possible when the formula
// does not constrain them) report false.
func (s *Solver) Model(v int) bool { return s.vals[PosLit(v)] == lTrue }

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
