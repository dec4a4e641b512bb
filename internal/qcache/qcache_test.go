package qcache

import (
	"context"
	"math/rand"
	"testing"

	"stringloops/internal/bv"
	"stringloops/internal/engine"
	"stringloops/internal/sat"
)

func TestExactHit(t *testing.T) {
	in := bv.NewInterner()
	c := New(in)
	b := engine.NewBudget(nil, engine.Limits{})
	x := in.Var("x", 8)
	f := in.Eq(x, in.Byte(7))

	st, m := c.CheckSat(b, f)
	if st != sat.Sat || m.Terms["x"] != 7 {
		t.Fatalf("first CheckSat = %v %v", st, m)
	}
	st, m = c.CheckSat(b, f)
	if st != sat.Sat || m.Terms["x"] != 7 {
		t.Fatalf("second CheckSat = %v %v", st, m)
	}
	s := c.Stats()
	if s.ExactHits != 1 || b.Count(engine.CacheMisses) != 1 {
		t.Fatalf("stats = %+v, %d misses, want 1 exact hit / 1 miss", s, b.Count(engine.CacheMisses))
	}
}

func TestModelReuseHit(t *testing.T) {
	in := bv.NewInterner()
	c := New(in)
	x := in.Var("x", 8)

	// First query pins x == 0; its model (x=0) also satisfies the weaker
	// x < 10 without solving.
	if st, _ := c.CheckSat(nil, in.Eq(x, in.Byte(0))); st != sat.Sat {
		t.Fatalf("seed query = %v", st)
	}
	st, m := c.CheckSat(nil, in.Ult(x, in.Byte(10)))
	if st != sat.Sat {
		t.Fatalf("weaker query = %v", st)
	}
	if v := m.Terms["x"]; v >= 10 {
		t.Fatalf("reused model x = %d violates x < 10", v)
	}
	s := c.Stats()
	if s.ModelHits != 1 {
		t.Fatalf("stats = %+v, want 1 model hit", s)
	}
}

func TestSubsetUnsatHit(t *testing.T) {
	in := bv.NewInterner()
	c := New(in)
	x := in.Var("x", 8)
	lo := in.Ult(in.Byte(10), x) // x > 10
	hi := in.Ult(x, in.Byte(5))  // x < 5

	if st, _ := c.CheckSat(nil, lo, hi); st != sat.Unsat {
		t.Fatalf("core query = %v, want unsat", st)
	}
	// A superset of the proven core must hit the subset rule.
	extra := in.Ne(x, in.Byte(99))
	if st, _ := c.CheckSat(nil, lo, hi, extra); st != sat.Unsat {
		t.Fatal("superset query not unsat")
	}
	s := c.Stats()
	if s.SubsetHits != 1 {
		t.Fatalf("stats = %+v, want 1 subset hit", s)
	}
}

func TestIndependenceSlicing(t *testing.T) {
	in := bv.NewInterner()
	c := New(in)
	b := engine.NewBudget(nil, engine.Limits{})
	x, y, z := in.Var("x", 8), in.Var("y", 8), in.Var("z", 8)
	// {x}, {y,z} are independent: two groups.
	fx := in.Eq(x, in.Byte(3))
	fyz := in.Ult(y, z)
	fz := in.Ult(z, in.Byte(100))

	st, m := c.CheckSat(b, fx, fyz, fz)
	if st != sat.Sat {
		t.Fatalf("CheckSat = %v", st)
	}
	if m.Terms["x"] != 3 {
		t.Fatalf("x = %d, want 3", m.Terms["x"])
	}
	if !(m.Terms["y"] < m.Terms["z"] && m.Terms["z"] < 100) {
		t.Fatalf("model y=%d z=%d violates constraints", m.Terms["y"], m.Terms["z"])
	}
	if groups := b.Count(engine.CacheGroups); groups != 2 {
		t.Fatalf("groups = %d, want 2", groups)
	}
	// Re-querying just the x-slice hits exactly.
	if st, _ := c.CheckSat(b, fx); st != sat.Sat {
		t.Fatal("x-slice re-query failed")
	}
	if s := c.Stats(); s.ExactHits < 1 {
		t.Fatalf("stats = %+v, want an exact hit on the x slice", s)
	}
}

func TestSlicingDoesNotLeakOtherGroupsVars(t *testing.T) {
	in := bv.NewInterner()
	c := New(in)
	x, y := in.Var("x", 8), in.Var("y", 8)
	// Seed the cache with a model where y == 50.
	if st, _ := c.CheckSat(nil, in.Eq(y, in.Byte(50))); st != sat.Sat {
		t.Fatal("seed failed")
	}
	// Now a query over x and a *different* constraint on y: the merged
	// model must satisfy both, even though a stale y-model is cached.
	st, m := c.CheckSat(nil, in.Eq(x, in.Byte(1)), in.Ult(y, in.Byte(10)))
	if st != sat.Sat {
		t.Fatalf("CheckSat = %v", st)
	}
	if m.Terms["x"] != 1 || m.Terms["y"] >= 10 {
		t.Fatalf("model x=%d y=%d, want x=1 and y<10", m.Terms["x"], m.Terms["y"])
	}
}

func TestBAndTreeNormalization(t *testing.T) {
	in := bv.NewInterner()
	c := New(in)
	bud := engine.NewBudget(nil, engine.Limits{})
	x := in.Var("x", 8)
	a := in.Ult(x, in.Byte(10))
	b := in.Ult(in.Byte(2), x)
	// The same constraint set as one BAnd tree and as separate formulas
	// must key identically.
	if st, _ := c.CheckSat(bud, in.BAnd2(a, b)); st != sat.Sat {
		t.Fatal("tree query failed")
	}
	if st, _ := c.CheckSat(bud, a, b); st != sat.Sat {
		t.Fatal("flat query failed")
	}
	s := c.Stats()
	if s.ExactHits != 1 || bud.Count(engine.CacheMisses) != 1 {
		t.Fatalf("stats = %+v, %d misses, want the flat query to hit the tree query's entry", s, bud.Count(engine.CacheMisses))
	}
}

func TestTrivialConstants(t *testing.T) {
	in := bv.NewInterner()
	c := New(in)
	b := engine.NewBudget(nil, engine.Limits{})
	x := in.Var("x", 8)
	if st, m := c.CheckSat(b); st != sat.Sat || m == nil {
		t.Fatalf("empty query = %v %v", st, m)
	}
	if st, _ := c.CheckSat(b, bv.False, in.Eq(x, in.Byte(1))); st != sat.Unsat {
		t.Fatal("False conjunct must be unsat without solving")
	}
	if st, _ := c.CheckSat(b, bv.True); st != sat.Sat {
		t.Fatal("True-only query must be sat")
	}
	if misses := b.Count(engine.CacheMisses); misses != 0 {
		t.Fatalf("%d misses, constants must not reach the solver", misses)
	}
}

func TestIsValidThroughCache(t *testing.T) {
	in := bv.NewInterner()
	c := New(in)
	x, y := in.Var("x", 8), in.Var("y", 8)
	f := in.Eq(in.Xor(x, y), in.Xor(y, x))
	valid, _, st := c.IsValid(nil, f)
	if !valid || st != sat.Unsat {
		t.Fatalf("IsValid = (%v, %v), want (true, unsat)", valid, st)
	}
	valid, cex, st := c.IsValid(nil, in.Ult(x, in.Byte(10)))
	if valid || st != sat.Sat || cex == nil || cex.Terms["x"] < 10 {
		t.Fatalf("IsValid on x<10 = (%v, %v, %v)", valid, st, cex)
	}
}

func TestIsValid(t *testing.T) {
	in := bv.NewInterner()
	c := New(in)
	x := in.Var("x", 8)
	// (x & 0x0f) <= 15 is valid.
	if valid, _, _ := c.IsValid(nil, in.Ule(in.And(x, in.Byte(0x0f)), in.Byte(15))); !valid {
		t.Fatal("masked value bound should be valid")
	}
	// x <= 100 is not valid; the counterexample must violate it.
	valid, cex, _ := c.IsValid(nil, in.Ule(x, in.Byte(100)))
	if valid {
		t.Fatal("x <= 100 should not be valid")
	}
	if cex.Terms["x"] <= 100 {
		t.Fatalf("counterexample x = %d should exceed 100", cex.Terms["x"])
	}
}

func TestIsValidExhaustedBudget(t *testing.T) {
	in := bv.NewInterner()
	c := New(in)
	x, y := in.Var("x", 8), in.Var("y", 8)
	// x^y == y^x is valid, but proving it takes a query; an exhausted budget
	// must report Unknown rather than claim validity it never proved.
	f := in.Eq(in.Xor(x, y), in.Xor(y, x))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	valid, cex, st := c.IsValid(engine.NewBudget(ctx, engine.Limits{}), f)
	if st != sat.Unknown || valid || cex != nil {
		t.Fatalf("IsValid under exhausted budget = (%v, %v, %v), want (false, nil, unknown)", valid, cex, st)
	}

	// Without a budget the same formula is proved valid, and an invalid one
	// yields a genuine counterexample.
	if valid, _, st = c.IsValid(nil, f); !valid || st != sat.Unsat {
		t.Fatalf("unbudgeted IsValid = (%v, %v), want (true, unsat)", valid, st)
	}
	valid, cex, st = c.IsValid(nil, in.Ult(x, in.Byte(10)))
	if valid || st != sat.Sat || cex == nil {
		t.Fatalf("IsValid on x<10 = (%v, %v, %v), want invalid with counterexample", valid, st, cex)
	}
	if v := cex.Terms["x"]; v < 10 {
		t.Fatalf("counterexample x = %d, want >= 10", v)
	}
}

func TestUnknownNotCached(t *testing.T) {
	in := bv.NewInterner()
	c := New(in)
	x, y := in.Var("x", 8), in.Var("y", 8)
	f := in.Eq(in.Add(in.Xor(x, y), y), in.Byte(0x5a))
	g := in.Ult(y, in.Xor(x, in.Byte(0x33)))

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	dead := engine.NewBudget(ctx, engine.Limits{})
	if st, _ := c.CheckSat(dead, f, g); st != sat.Unknown {
		t.Fatal("exhausted budget must yield unknown")
	}
	// The same query with headroom must be decided, not served a cached
	// Unknown.
	st, m := c.CheckSat(nil, f, g)
	if st != sat.Sat {
		t.Fatalf("retry = %v, want sat", st)
	}
	ev := bv.NewEvaluator(m)
	if !ev.Bool(f) || !ev.Bool(g) {
		t.Fatal("model does not satisfy the constraints")
	}
}

// randomQueries generates n conjunctions of one to five random atoms over
// four byte variables, deterministically from seed.
func randomQueries(in *bv.Interner, seed int64, n int) [][]*bv.Bool {
	rng := rand.New(rand.NewSource(seed))
	vars := []*bv.Term{in.Var("a", 8), in.Var("b", 8), in.Var("c", 8), in.Var("d", 8)}
	randTerm := func() *bv.Term {
		t := vars[rng.Intn(len(vars))]
		switch rng.Intn(4) {
		case 0:
			return in.Add(t, in.Byte(byte(rng.Intn(256))))
		case 1:
			return in.Xor(t, vars[rng.Intn(len(vars))])
		case 2:
			return in.Byte(byte(rng.Intn(256)))
		default:
			return t
		}
	}
	randAtom := func() *bv.Bool {
		a, b := randTerm(), randTerm()
		switch rng.Intn(3) {
		case 0:
			return in.Eq(a, b)
		case 1:
			return in.Ult(a, b)
		default:
			return in.Ule(a, b)
		}
	}
	queries := make([][]*bv.Bool, n)
	for q := range queries {
		fs := make([]*bv.Bool, 1+rng.Intn(5))
		for i := range fs {
			fs[i] = randAtom()
		}
		queries[q] = fs
	}
	return queries
}

func TestAgainstDirectSolver(t *testing.T) {
	// Randomized differential check: the cached chain must agree with
	// direct bv.CheckSat on every query, and Sat models must evaluate the
	// constraints true.
	in := bv.NewInterner()
	c := New(in)
	b := engine.NewBudget(nil, engine.Limits{})
	for iter, fs := range randomQueries(in, 11, 200) {
		wantSt, _ := bv.CheckSat(nil, fs...)
		gotSt, gotM := c.CheckSat(b, fs...)
		if gotSt != wantSt {
			t.Fatalf("iter %d: cache says %v, direct solver says %v (formulas %v)", iter, gotSt, wantSt, fs)
		}
		if gotSt == sat.Sat {
			ev := bv.NewEvaluator(gotM)
			for i, f := range fs {
				if !ev.Bool(f) {
					t.Fatalf("iter %d: cached model violates conjunct %d", iter, i)
				}
			}
		}
	}
	s := b.Spend()
	if s.QCacheHits == 0 {
		t.Fatalf("spend = %+v, expected some cache hits over 200 random queries", s)
	}
	t.Logf("differential run: %d queries, %d groups, %d hits, %d misses", s.QCacheQueries, s.QCacheGroups, s.QCacheHits, s.QCacheMisses)
}

func TestIncrementalPrefixSharing(t *testing.T) {
	// Fork pattern: common prefix, two branch suffixes. The second query
	// must not re-allocate SAT variables for the shared prefix.
	in := bv.NewInterner()
	c := New(in)
	b := engine.NewBudget(nil, engine.Limits{})
	x, y := in.Var("x", 8), in.Var("y", 8)
	prefix := in.BAnd2(in.Ult(x, y), in.Ult(y, in.Byte(100)))
	left := in.Eq(in.Xor(x, y), in.Byte(9))
	right := in.BNot1(left)

	if st, _ := c.CheckSat(b, prefix, left); st != sat.Sat {
		t.Fatal("left fork not sat")
	}
	if st, _ := c.CheckSat(b, prefix, right); st != sat.Sat {
		t.Fatal("right fork not sat")
	}
	// Weak but real assertion: the solver persisted (no rebuild), so the
	// prefix encoding was shared.
	if rebuilds := b.Count(engine.CacheRebuilds); rebuilds != 0 {
		t.Fatalf("solver rebuilt %d times during two forks", rebuilds)
	}
}

func TestBudgetCacheCounters(t *testing.T) {
	in := bv.NewInterner()
	c := New(in)
	b := engine.NewBudget(context.Background(), engine.Limits{})
	x := in.Var("x", 8)
	f := in.Eq(x, in.Byte(1))
	c.CheckSat(b, f)
	c.CheckSat(b, f)
	if b.Count(engine.CacheMisses) != 1 || b.Count(engine.CacheHits) != 1 {
		t.Fatalf("budget counters hits=%d misses=%d, want 1/1", b.Count(engine.CacheHits), b.Count(engine.CacheMisses))
	}
}
