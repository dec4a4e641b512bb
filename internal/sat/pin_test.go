package sat

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

// searchRun is what the pin battery records of one instance: one letter per
// solve (s, u or ?), the solver's counters after the last solve, and an
// FNV-1a hash over the full model of every Sat solve.
type searchRun struct {
	name                               string
	statuses                           string
	conflicts, decisions, propagations int64
	learnts                            int
	reduces                            int64
	model                              uint64
}

// recorder runs solves on one solver and folds each result into a searchRun.
// It also counts the solves after which the arena holds fewer deleted words
// than before, that is, the solves in which compact ran.
type recorder struct {
	s           *Solver
	run         searchRun
	h           uint64
	compactions int
}

func newRecorder(name string, s *Solver) *recorder {
	return &recorder{s: s, run: searchRun{name: name}, h: fnv.New64a().Sum64()}
}

func (r *recorder) solve(assumptions ...Lit) {
	wasted := r.s.wasted
	st := r.s.SolveAssuming(assumptions...)
	if r.s.wasted < wasted {
		r.compactions++
	}
	r.run.statuses += map[Status]string{Sat: "s", Unsat: "u", Unknown: "?"}[st]
	if st != Sat {
		return
	}
	h := fnv.New64a()
	var buf [8]byte
	for i := range buf {
		buf[i] = byte(r.h >> (8 * i))
	}
	h.Write(buf[:])
	for v := 0; v < r.s.NumVars(); v++ {
		if r.s.Model(v) {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	r.h = h.Sum64()
}

func (r *recorder) done() searchRun {
	r.run.conflicts = r.s.Conflicts()
	r.run.decisions = r.s.Decisions()
	r.run.propagations = r.s.Propagations()
	r.run.learnts = r.s.NumLearnts()
	r.run.reduces = r.s.Reduces()
	r.run.model = r.h
	return r.run
}

// searchBattery runs the pinned instances, each on a fresh solver that
// prepare (when non-nil) may adjust before the first clause, and returns
// their results and the number of solves seen to compact the arena:
//
//   - incremental: 24 blocks of random 3-SAT near the phase transition, each
//     under its own activation literal, solved alone and together with the
//     previous block, on one solver with a small reduction schedule so
//     reduceDB runs many times and deleted clauses fill the arena; run
//     twice, the second time with every clause activity scaled by 2^-145,
//     the scale a clause reaches after three rescalings (each multiplies
//     every activity by 1e-20). A power-of-two scale leaves float64 sums
//     exact, so both runs search alike; float32 keeps only a few bits there
//     and reorders reduceDB's deletions;
//   - pigeonhole: 5 pigeons into 4 holes, one Solve;
//   - assumptions: one random 3-SAT block under a sequence of assumption
//     sets with repeated, contradictory and already-implied literals.
func searchBattery(prepare func(*Solver)) ([]searchRun, int) {
	fresh := func() *Solver {
		s := New()
		if prepare != nil {
			prepare(s)
		}
		return s
	}
	var runs []searchRun

	compactions := 0
	for _, scale := range []int{0, -145} {
		s := fresh()
		s.reduceBase, s.reduceInc = 50, 10
		s.claInc = math.Ldexp(1, scale)
		r := newRecorder(fmt.Sprintf("incremental, activity scale 2^%d", scale), s)
		rng := rand.New(rand.NewSource(11))
		var prev Lit
		for i := 0; i < 24; i++ {
			act := randomThreeSAT(s, rng, 100, 426)
			r.solve(act)
			if i > 0 {
				r.solve(prev, act)
			}
			prev = act
		}
		runs = append(runs, r.done())
		compactions += r.compactions
	}

	const pigeons, holes = 5, 4
	s := fresh()
	r := newRecorder("pigeonhole", s)
	x := make([][]int, pigeons)
	for p := range x {
		x[p] = make([]int, holes)
		for h := range x[p] {
			x[p][h] = s.NewVar()
		}
	}
	for p := 0; p < pigeons; p++ {
		lits := make([]Lit, holes)
		for h := range lits {
			lits[h] = PosLit(x[p][h])
		}
		s.AddClause(lits...)
	}
	for h := 0; h < holes; h++ {
		for p1 := 0; p1 < pigeons; p1++ {
			for p2 := p1 + 1; p2 < pigeons; p2++ {
				s.AddClause(NegLit(x[p1][h]), NegLit(x[p2][h]))
			}
		}
	}
	r.solve()
	runs = append(runs, r.done())

	s = fresh()
	r = newRecorder("assumptions", s)
	rng := rand.New(rand.NewSource(23))
	act := randomThreeSAT(s, rng, 30, 114)
	lit := func(v int, neg bool) Lit {
		if neg {
			return NegLit(v)
		}
		return PosLit(v)
	}
	r.solve(act)
	r.solve(act, PosLit(0), NegLit(0))
	r.solve(act, PosLit(1), PosLit(1), PosLit(1))
	r.solve(act.Neg(), PosLit(2), act)
	r.solve()
	r.solve(act, act)
	for q := 0; q < 60; q++ {
		as := []Lit{act}
		for n := rng.Intn(6); n > 0; n-- {
			as = append(as, lit(rng.Intn(8), rng.Intn(2) == 0))
		}
		rng.Shuffle(len(as), func(i, j int) { as[i], as[j] = as[j], as[i] })
		r.solve(as...)
	}
	runs = append(runs, r.done())
	return runs, compactions
}

// pinnedSearch holds searchBattery's results as the solver produced them
// before its clauses moved into one arena. Any change to a field means the
// search itself changed (propagation order, watch order, analysis, LBD,
// VSIDS, restarts or reduceDB's keep rule and order), not only its speed.
var pinnedSearch = []searchRun{
	{name: "incremental, activity scale 2^0", statuses: "usuuuuuuuuuuuuuuuuuuuuuuusuuusussssuuuusussssss", conflicts: 6403, decisions: 44407, propagations: 197502, learnts: 1018, reduces: 100, model: 0xa6d0ff80990dd2bd},
	{name: "incremental, activity scale 2^-145", statuses: "usuuuuuuuuuuuuuuuuuuuuuuusuuusussssuuuusussssss", conflicts: 6403, decisions: 44407, propagations: 197502, learnts: 1018, reduces: 100, model: 0xa6d0ff80990dd2bd},
	{name: "pigeonhole", statuses: "u", conflicts: 28, decisions: 31, propagations: 277, learnts: 24, reduces: 0, model: 0xcbf29ce484222325},
	{name: "assumptions", statuses: "susussssusussssuusussssussssussussussususssussuusussuussssususuuus", conflicts: 43, decisions: 625, propagations: 1729, learnts: 43, reduces: 0, model: 0xce210ac3fd80db46},
}

// TestSearchIsPinned holds the CDCL search to its pinned decisions,
// conflicts, propagations, learnt-clause database and models.
func TestSearchIsPinned(t *testing.T) {
	runs, compactions := searchBattery(nil)
	checkPinned(t, runs)
	if compactions == 0 {
		t.Error("the incremental instance never compacted its arena")
	}
	t.Logf("solves that compacted: %d", compactions)
}

// TestCompactionLeavesSearchUnchanged compacts the arena at every reduceDB,
// in the middle of a search as often as not, and requires the pinned search:
// relocation must keep every watch list's order and every reason.
func TestCompactionLeavesSearchUnchanged(t *testing.T) {
	runs, _ := searchBattery(func(s *Solver) { s.compactAlways = true })
	checkPinned(t, runs)
}

func checkPinned(t *testing.T, got []searchRun) {
	t.Helper()
	if len(got) != len(pinnedSearch) {
		for _, g := range got {
			t.Logf("%#v,", g)
		}
		t.Fatalf("battery ran %d instances, %d pinned", len(got), len(pinnedSearch))
	}
	for i, g := range got {
		if g != pinnedSearch[i] {
			t.Errorf("%s:\n got %s\nwant %s", g.name, fmtRun(g), fmtRun(pinnedSearch[i]))
		}
	}
}

func fmtRun(r searchRun) string {
	return fmt.Sprintf("conflicts=%d decisions=%d propagations=%d learnts=%d reduces=%d model=%#x statuses=%s",
		r.conflicts, r.decisions, r.propagations, r.learnts, r.reduces, r.model, r.statuses)
}
