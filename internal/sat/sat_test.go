package sat

import (
	"math/rand"
	"testing"

	"stringloops/internal/engine"
)

func TestTrivialSat(t *testing.T) {
	s := New()
	a := s.NewVar()
	s.AddClause(PosLit(a))
	if got := s.Solve(); got != Sat {
		t.Fatalf("Solve = %v", got)
	}
	if !s.Model(a) {
		t.Fatal("model should set a true")
	}
}

func TestTrivialUnsat(t *testing.T) {
	s := New()
	a := s.NewVar()
	s.AddClause(PosLit(a))
	s.AddClause(NegLit(a))
	if got := s.Solve(); got != Unsat {
		t.Fatalf("Solve = %v", got)
	}
}

func TestEmptyClauseUnsat(t *testing.T) {
	s := New()
	if s.AddClause() {
		t.Fatal("empty clause should report failure")
	}
	if got := s.Solve(); got != Unsat {
		t.Fatalf("Solve = %v", got)
	}
}

func TestTautologyIgnored(t *testing.T) {
	s := New()
	a := s.NewVar()
	s.AddClause(PosLit(a), NegLit(a))
	if got := s.Solve(); got != Sat {
		t.Fatalf("Solve = %v", got)
	}
}

func TestUnitPropagationChain(t *testing.T) {
	// a; a->b; b->c; c->d  implies all true.
	s := New()
	a, b, c, d := s.NewVar(), s.NewVar(), s.NewVar(), s.NewVar()
	s.AddClause(PosLit(a))
	s.AddClause(NegLit(a), PosLit(b))
	s.AddClause(NegLit(b), PosLit(c))
	s.AddClause(NegLit(c), PosLit(d))
	if got := s.Solve(); got != Sat {
		t.Fatalf("Solve = %v", got)
	}
	for _, v := range []int{a, b, c, d} {
		if !s.Model(v) {
			t.Fatalf("var %d should be true", v)
		}
	}
}

func TestPigeonhole3into2Unsat(t *testing.T) {
	// 3 pigeons, 2 holes: classic small UNSAT requiring real search.
	s := New()
	// x[p][h]: pigeon p in hole h
	var x [3][2]int
	for p := 0; p < 3; p++ {
		for h := 0; h < 2; h++ {
			x[p][h] = s.NewVar()
		}
	}
	for p := 0; p < 3; p++ {
		s.AddClause(PosLit(x[p][0]), PosLit(x[p][1]))
	}
	for h := 0; h < 2; h++ {
		for p1 := 0; p1 < 3; p1++ {
			for p2 := p1 + 1; p2 < 3; p2++ {
				s.AddClause(NegLit(x[p1][h]), NegLit(x[p2][h]))
			}
		}
	}
	if got := s.Solve(); got != Unsat {
		t.Fatalf("pigeonhole Solve = %v", got)
	}
}

func TestPigeonhole5into4Unsat(t *testing.T) {
	const pigeons, holes = 5, 4
	s := New()
	x := make([][]int, pigeons)
	for p := range x {
		x[p] = make([]int, holes)
		for h := range x[p] {
			x[p][h] = s.NewVar()
		}
	}
	for p := 0; p < pigeons; p++ {
		lits := make([]Lit, holes)
		for h := 0; h < holes; h++ {
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
	if got := s.Solve(); got != Unsat {
		t.Fatalf("pigeonhole Solve = %v", got)
	}
}

func TestGraphColoringSat(t *testing.T) {
	// A 5-cycle is 3-colourable but not 2-colourable.
	edges := [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}}
	build := func(colors int) *Solver {
		s := New()
		x := make([][]int, 5)
		for v := range x {
			x[v] = make([]int, colors)
			for c := range x[v] {
				x[v][c] = s.NewVar()
			}
			lits := make([]Lit, colors)
			for c := range lits {
				lits[c] = PosLit(x[v][c])
			}
			s.AddClause(lits...)
		}
		for _, e := range edges {
			for c := 0; c < colors; c++ {
				s.AddClause(NegLit(x[e[0]][c]), NegLit(x[e[1]][c]))
			}
		}
		return s
	}
	if got := build(2).Solve(); got != Unsat {
		t.Fatalf("5-cycle 2-coloring = %v, want unsat", got)
	}
	if got := build(3).Solve(); got != Sat {
		t.Fatalf("5-cycle 3-coloring = %v, want sat", got)
	}
}

// bruteForce decides satisfiability of clauses over n variables by
// enumeration; the reference oracle for randomized testing.
func bruteForce(n int, clauses [][]Lit) bool {
	for m := 0; m < 1<<uint(n); m++ {
		ok := true
		for _, c := range clauses {
			cOK := false
			for _, l := range c {
				val := m>>uint(l.Var())&1 == 1
				if l.Sign() {
					val = !val
				}
				if val {
					cOK = true
					break
				}
			}
			if !cOK {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

func TestRandom3SATAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 300; iter++ {
		n := 3 + rng.Intn(8)
		numClauses := 1 + rng.Intn(5*n)
		var clauses [][]Lit
		s := New()
		for i := 0; i < n; i++ {
			s.NewVar()
		}
		for i := 0; i < numClauses; i++ {
			width := 1 + rng.Intn(3)
			clause := make([]Lit, width)
			for j := range clause {
				v := rng.Intn(n)
				if rng.Intn(2) == 0 {
					clause[j] = PosLit(v)
				} else {
					clause[j] = NegLit(v)
				}
			}
			clauses = append(clauses, clause)
			s.AddClause(clause...)
		}
		want := bruteForce(n, clauses)
		got := s.Solve()
		if want && got != Sat {
			t.Fatalf("iter %d: solver says %v, brute force says sat", iter, got)
		}
		if !want && got != Unsat {
			t.Fatalf("iter %d: solver says %v, brute force says unsat", iter, got)
		}
		if got == Sat {
			// Verify the model actually satisfies every clause.
			for ci, c := range clauses {
				ok := false
				for _, l := range c {
					val := s.Model(l.Var())
					if l.Sign() {
						val = !val
					}
					if val {
						ok = true
						break
					}
				}
				if !ok {
					t.Fatalf("iter %d: model violates clause %d", iter, ci)
				}
			}
		}
	}
}

func TestMaxConflictsBudget(t *testing.T) {
	// A hard pigeonhole instance with a tiny conflict budget must return
	// Unknown.
	const pigeons, holes = 9, 8
	s := New()
	x := make([][]int, pigeons)
	for p := range x {
		x[p] = make([]int, holes)
		for h := range x[p] {
			x[p][h] = s.NewVar()
		}
	}
	for p := 0; p < pigeons; p++ {
		lits := make([]Lit, holes)
		for h := 0; h < holes; h++ {
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
	s.Budget = engine.NewBudget(nil, engine.Limits{Conflicts: 50})
	if got := s.Solve(); got != Unknown {
		t.Fatalf("budgeted Solve = %v, want unknown", got)
	}
}

func TestLubySequence(t *testing.T) {
	want := []int{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8}
	for i, w := range want {
		if got := luby(i); got != w {
			t.Fatalf("luby(%d) = %d, want %d", i, got, w)
		}
	}
}

func TestLitAccessors(t *testing.T) {
	p, n := PosLit(7), NegLit(7)
	if p.Var() != 7 || n.Var() != 7 {
		t.Fatal("Var broken")
	}
	if p.Sign() || !n.Sign() {
		t.Fatal("Sign broken")
	}
	if p.Neg() != n || n.Neg() != p {
		t.Fatal("Neg broken")
	}
}

func TestPushIfAbsentNoDuplicates(t *testing.T) {
	var act []float64
	h := &varHeap{act: &act}
	for v := 0; v < 3; v++ {
		act = append(act, float64(v))
		h.push(v)
	}
	// Re-activating a variable that is still queued must not duplicate it.
	h.pushIfAbsent(1)
	if len(h.heap) != 3 {
		t.Fatalf("heap has %d entries after pushIfAbsent of queued var, want 3", len(h.heap))
	}
	seen := map[int]bool{}
	for {
		v, ok := h.pop()
		if !ok {
			break
		}
		if seen[v] {
			t.Fatalf("pop yielded var %d twice", v)
		}
		seen[v] = true
	}
	if len(seen) != 3 {
		t.Fatalf("popped %d distinct vars, want 3", len(seen))
	}
	// A popped (absent) variable re-enters exactly once even when re-queued
	// twice, the cancelUntil pattern for a var touched on two trail segments.
	h.pushIfAbsent(2)
	h.pushIfAbsent(2)
	if len(h.heap) != 1 {
		t.Fatalf("heap has %d entries after double pushIfAbsent, want 1", len(h.heap))
	}
}

func TestIncrementalSolve(t *testing.T) {
	// Multi-shot: solve, constrain further, solve again.
	s := New()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(PosLit(a), PosLit(b))
	if got := s.Solve(); got != Sat {
		t.Fatalf("first Solve = %v", got)
	}
	s.AddClause(NegLit(a))
	if got := s.Solve(); got != Sat {
		t.Fatalf("second Solve = %v", got)
	}
	if s.Model(a) || !s.Model(b) {
		t.Fatalf("model a=%v b=%v, want a=false b=true", s.Model(a), s.Model(b))
	}
	s.AddClause(NegLit(b))
	if got := s.Solve(); got != Unsat {
		t.Fatalf("third Solve = %v, want unsat", got)
	}
}

func TestSolveAssuming(t *testing.T) {
	// a -> b; unsat only under assumption {a, ¬b}, and the instance stays
	// usable afterwards.
	s := New()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(NegLit(a), PosLit(b))

	if got := s.SolveAssuming(PosLit(a)); got != Sat {
		t.Fatalf("SolveAssuming(a) = %v", got)
	}
	if !s.Model(a) || !s.Model(b) {
		t.Fatalf("model under assumption a: a=%v b=%v", s.Model(a), s.Model(b))
	}
	if got := s.SolveAssuming(PosLit(a), NegLit(b)); got != Unsat {
		t.Fatalf("SolveAssuming(a, ¬b) = %v, want unsat", got)
	}
	// The assumption failure must not be permanent.
	if got := s.SolveAssuming(NegLit(b)); got != Sat {
		t.Fatalf("SolveAssuming(¬b) after failed assumptions = %v, want sat", got)
	}
	if s.Model(a) || s.Model(b) {
		t.Fatalf("model under ¬b: a=%v b=%v, want both false", s.Model(a), s.Model(b))
	}
	if got := s.Solve(); got != Sat {
		t.Fatalf("unassumed Solve = %v", got)
	}
}

func TestSolveAssumingContradictoryAssumptions(t *testing.T) {
	s := New()
	a := s.NewVar()
	s.AddClause(PosLit(a), NegLit(a)) // tautology, instance trivially sat
	if got := s.SolveAssuming(PosLit(a), NegLit(a)); got != Unsat {
		t.Fatalf("contradictory assumptions = %v, want unsat", got)
	}
	if got := s.Solve(); got != Sat {
		t.Fatalf("Solve after contradictory assumptions = %v, want sat", got)
	}
}

func TestSolveAssumingGlobalUnsatSticky(t *testing.T) {
	s := New()
	a := s.NewVar()
	s.AddClause(PosLit(a))
	s.AddClause(NegLit(a))
	if got := s.SolveAssuming(PosLit(a)); got != Unsat {
		t.Fatalf("SolveAssuming on unsat instance = %v", got)
	}
	if got := s.Solve(); got != Unsat {
		t.Fatalf("global unsat must be sticky, got %v", got)
	}
}

func TestSolveAssumingAgainstBruteForce(t *testing.T) {
	// Randomized: SolveAssuming(lits...) must agree with brute force over
	// clauses+units, and repeated calls on one solver must stay consistent.
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 150; iter++ {
		n := 3 + rng.Intn(6)
		numClauses := 1 + rng.Intn(4*n)
		var clauses [][]Lit
		s := New()
		for i := 0; i < n; i++ {
			s.NewVar()
		}
		ok := true
		for i := 0; i < numClauses; i++ {
			width := 2 + rng.Intn(2)
			clause := make([]Lit, width)
			for j := range clause {
				v := rng.Intn(n)
				if rng.Intn(2) == 0 {
					clause[j] = PosLit(v)
				} else {
					clause[j] = NegLit(v)
				}
			}
			clauses = append(clauses, clause)
			ok = s.AddClause(clause...) && ok
		}
		for q := 0; q < 5; q++ {
			numAssume := rng.Intn(3)
			assume := make([]Lit, numAssume)
			for j := range assume {
				v := rng.Intn(n)
				if rng.Intn(2) == 0 {
					assume[j] = PosLit(v)
				} else {
					assume[j] = NegLit(v)
				}
			}
			withUnits := clauses
			for _, l := range assume {
				withUnits = append(withUnits[:len(withUnits):len(withUnits)], []Lit{l})
			}
			want := bruteForce(n, withUnits)
			got := s.SolveAssuming(assume...)
			if want && got != Sat {
				t.Fatalf("iter %d q %d: solver %v, brute force sat", iter, q, got)
			}
			if !want && got != Unsat {
				t.Fatalf("iter %d q %d: solver %v, brute force unsat", iter, q, got)
			}
			if got == Sat {
				for _, l := range assume {
					val := s.Model(l.Var())
					if l.Sign() {
						val = !val
					}
					if !val {
						t.Fatalf("iter %d q %d: model violates assumption", iter, q)
					}
				}
				for ci, c := range clauses {
					cOK := false
					for _, l := range c {
						val := s.Model(l.Var())
						if l.Sign() {
							val = !val
						}
						if val {
							cOK = true
							break
						}
					}
					if !cOK {
						t.Fatalf("iter %d q %d: model violates clause %d", iter, q, ci)
					}
				}
			}
		}
	}
}

// BenchmarkAddClause adds ternary clauses over 64 variables, starting a new
// solver every 4096 clauses so the instance, and the benchmark's memory,
// stays the size of a typical blasted query.
func BenchmarkAddClause(b *testing.B) {
	b.ReportAllocs()
	const vars, perSolver = 64, 4096
	var s *Solver
	for i := 0; i < b.N; i++ {
		if i%perSolver == 0 {
			s = New()
			for v := 0; v < vars; v++ {
				s.NewVar()
			}
		}
		v := i % (vars - 2)
		if !s.AddClause(PosLit(v), NegLit(v+1), PosLit(v+2)) {
			b.Fatal("a clause with three distinct free variables made the instance unsat")
		}
	}
}

// BenchmarkSolveIncremental adds random 3-SAT blocks near the phase
// transition to one long-lived solver and solves each under its own
// activation literal, so learnt clauses, reductions and activity carry over
// from block to block as they do across a query cache's queries. A new
// solver starts every 256 blocks so the instance stays bounded.
func BenchmarkSolveIncremental(b *testing.B) {
	b.ReportAllocs()
	const blocksPerSolver = 256
	rng := rand.New(rand.NewSource(1))
	var s *Solver
	var conflicts int64
	for i := 0; i < b.N; i++ {
		if i%blocksPerSolver == 0 {
			if s != nil {
				conflicts += s.Conflicts()
			}
			s = New()
		}
		if s.SolveAssuming(randomThreeSAT(s, rng, 60, 256)) == Unknown {
			b.Fatal("an unbudgeted solve gave up")
		}
	}
	b.ReportMetric(float64(conflicts+s.Conflicts())/float64(b.N), "conflicts/op")
}
