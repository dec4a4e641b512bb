package qcache

import (
	"math/rand"
	"testing"

	"stringloops/internal/bv"
	"stringloops/internal/engine"
	"stringloops/internal/sat"
)

// TestVNPruningSoundThroughCheckSat exercises the guard-implication pruning
// path end-to-end: one conjunct fixes an ite guard that another conjunct
// embeds, so PruneUnder collapses the mux before the solver sees it. The
// verdict and model must still describe the ORIGINAL conjunction.
func TestVNPruningSoundThroughCheckSat(t *testing.T) {
	in := bv.NewInterner()
	c := New(in)
	x, y := in.Var("x", 8), in.Var("y", 8)
	g := in.Ult(x, in.Byte(10))

	// Sat case: under g, ite(g, y, 0) == 5 forces y == 5.
	st, m := c.CheckSat(nil, g, in.Eq(in.Ite(g, y, in.Byte(0)), in.Byte(5)))
	if st != sat.Sat {
		t.Fatalf("pruned sat query = %v", st)
	}
	if m.Terms["x"] >= 10 || m.Terms["y"] != 5 {
		t.Fatalf("model x=%d y=%d violates the original conjunction", m.Terms["x"], m.Terms["y"])
	}

	// Unsat case: under g the mux picks the constant 1, and 1 == 2 is
	// false — pruning must collapse this to a refutation, not erase it.
	st, _ = c.CheckSat(nil, g, in.Eq(in.Ite(g, in.Byte(1), y), in.Byte(2)))
	if st != sat.Unsat {
		t.Fatalf("pruned unsat query = %v", st)
	}
}

// buildQueries deterministically generates a query stream: merged-ite shapes
// (shared guards, constant arms) layered over random atoms, the mix the vn
// rewrites target.
func buildQueries(in *bv.Interner, seed int64, n int) [][]*bv.Bool {
	rng := rand.New(rand.NewSource(seed))
	vars := []*bv.Term{in.Var("a", 8), in.Var("b", 8), in.Var("c", 8)}
	randTerm := func() *bv.Term {
		t := vars[rng.Intn(len(vars))]
		switch rng.Intn(3) {
		case 0:
			return in.Add(t, in.Byte(byte(rng.Intn(256))))
		case 1:
			return in.Byte(byte(rng.Intn(256)))
		default:
			return t
		}
	}
	randAtom := func() *bv.Bool {
		a, b := randTerm(), randTerm()
		if rng.Intn(2) == 0 {
			return in.Eq(a, b)
		}
		return in.Ult(a, b)
	}
	var queries [][]*bv.Bool
	for q := 0; q < n; q++ {
		guard := randAtom()
		k := 1 + rng.Intn(4)
		fs := make([]*bv.Bool, k)
		for i := range fs {
			switch rng.Intn(3) {
			case 0:
				// Merged-value comparison: both sides muxed on one guard.
				l := in.Ite(guard, randTerm(), in.Byte(byte(rng.Intn(256))))
				r := in.Ite(guard, in.Byte(byte(rng.Intn(256))), randTerm())
				fs[i] = in.Eq(l, r)
			case 1:
				// The guard itself as a conjunct, arming PruneUnder against
				// the muxes the other conjuncts carry.
				fs[i] = guard
			default:
				fs[i] = randAtom()
			}
		}
		queries = append(queries, fs)
	}
	return queries
}

// TestVNChainMatchesDirectSolver is the replay contract at the qcache level:
// the same query stream through the cache chain and the direct solver must
// produce identical verdicts, and every Sat model must satisfy its original
// (unrewritten) conjuncts. This walks all three vn surfaces inside CheckSat —
// per-formula simplification, sequential pruning, and the
// persistent-evaluator model-reuse scan.
func TestVNChainMatchesDirectSolver(t *testing.T) {
	const seed, n = 23, 150
	b := engine.NewBudget(nil, engine.Limits{})
	in := bv.NewInterner().SetBudget(b)
	c := New(in)
	for i, q := range buildQueries(in, seed, n) {
		st, m := c.CheckSat(nil, q...)
		wantSt, _ := bv.CheckSat(nil, q...)
		if st != wantSt {
			t.Fatalf("query %d: cache chain says %v, direct solver says %v", i, st, wantSt)
		}
		if st == sat.Sat {
			ev := bv.NewEvaluator(m)
			for j := range q {
				if !ev.Bool(q[j]) {
					t.Fatalf("query %d: model violates conjunct %d", i, j)
				}
			}
		}
	}
	if b.Count(engine.IteFusions) == 0 {
		t.Fatal("the stream recorded no ite fusions; the vn rewrites were not exercised")
	}
	if hits := c.Stats().ModelHits; hits == 0 {
		t.Logf("note: no model-reuse hits over %d queries (stream too adversarial?)", n)
	}
}

// TestVNModelReuseAcrossQueries pins the model-reuse path: repeated weaker
// queries against one cached model must keep hitting (the probe's one
// evaluator is Reset per model, so no memo carries over from the last
// query) and keep returning models that satisfy the new constraint.
func TestVNModelReuseAcrossQueries(t *testing.T) {
	in := bv.NewInterner()
	c := New(in)
	x := in.Var("x", 8)
	if st, _ := c.CheckSat(nil, in.Eq(x, in.Byte(3))); st != sat.Sat {
		t.Fatal("seed query not sat")
	}
	for i, bound := range []byte{10, 20, 30, 40} {
		st, m := c.CheckSat(nil, in.Ult(x, in.Byte(bound)))
		if st != sat.Sat {
			t.Fatalf("weaker query %d = %v", i, st)
		}
		if m.Terms["x"] >= uint64(bound) {
			t.Fatalf("weaker query %d: reused model x=%d violates x < %d", i, m.Terms["x"], bound)
		}
	}
	if hits := c.Stats().ModelHits; hits < 4 {
		t.Fatalf("model hits = %d, want all 4 weaker queries served by model reuse", hits)
	}
}
