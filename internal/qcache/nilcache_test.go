package qcache_test

import (
	"fmt"
	"testing"

	"stringloops/internal/bv"
	"stringloops/internal/cc"
	"stringloops/internal/cir"
	"stringloops/internal/engine"
	"stringloops/internal/loopdb"
	"stringloops/internal/qcache"
	"stringloops/internal/sat"
	"stringloops/internal/strsolver"
	"stringloops/internal/symex"
)

// figure1Loop is the paper's running example: skip leading whitespace.
const figure1Loop = `
#define whitespace(c) (((c) == ' ') || ((c) == '\t'))
char* loopFunction(char* line) {
  char *p;
  for (p = line; p && *p && whitespace (*p); p++)
    ;
  return p;
}`

// qcacheRows are the ledger rows only a real cache charges.
var qcacheRows = []engine.Counter{
	engine.CacheQueries, engine.CacheGroups, engine.CacheHits, engine.CacheMisses,
	engine.CacheRebuilds,
}

// solverRows are the rows one bv.CheckSat charges.
var solverRows = []engine.Counter{
	engine.Conflicts, engine.Propagations, engine.Decisions, engine.BlastHits,
}

// nilCacheLoops lowers the Figure 1 loop (run at length 6) and a few
// corpus loops (at length 5).
func nilCacheLoops(t *testing.T) (names []string, fs []*cir.Func, ns []int) {
	t.Helper()
	file, err := cc.Parse(figure1Loop)
	if err != nil {
		t.Fatal(err)
	}
	fig1, err := cir.LowerFunc(file.Funcs[0], file)
	if err != nil {
		t.Fatal(err)
	}
	names, fs, ns = []string{"figure1"}, []*cir.Func{fig1}, []int{6}
	for i, l := range loopdb.Corpus() {
		if i%23 != 0 {
			continue
		}
		f, err := l.Lower()
		if err != nil {
			t.Fatalf("%s: %v", l.Name, err)
		}
		names, fs, ns = append(names, l.Name), append(fs, f), append(ns, 5)
	}
	return names, fs, ns
}

// TestNilCacheIsDirectSolver holds a nil *Cache to one bv.CheckSat per
// query: on every per-path condition of the loops above, Decide gives
// CheckSat's status, charges exactly CheckSat's spend (conflicts,
// propagations, decisions, blast hits) and no qcache row.
func TestNilCacheIsDirectSolver(t *testing.T) {
	var nilCache *qcache.Cache
	names, fs, ns := nilCacheLoops(t)
	queries := 0
	for i, f := range fs {
		in := bv.NewInterner()
		e := &symex.Engine{In: in, CheckFeasibility: true, Cache: qcache.New(in)}
		paths, err := e.RunOn(f, strsolver.New(in, "s", ns[i]).Bytes)
		if err != nil {
			t.Fatalf("%s: %v", names[i], err)
		}
		for _, p := range paths {
			want := engine.NewBudget(nil, engine.Limits{})
			wantSt, _ := bv.CheckSat(want, p.Cond)
			decide := engine.NewBudget(nil, engine.Limits{})
			if got := nilCache.Decide(decide, p.Cond); got != wantSt {
				t.Fatalf("%s: Decide %v, CheckSat %v", names[i], got, wantSt)
			}
			if decide.Spend() != want.Spend() {
				t.Fatalf("%s: nil cache spent %+v, CheckSat %+v", names[i], decide.Spend(), want.Spend())
			}
			for _, c := range qcacheRows {
				if decide.Count(c) != 0 {
					t.Fatalf("%s: nil cache charged qcache rows: %+v", names[i], decide.Spend())
				}
			}
			queries++
		}
	}
	if queries < 20 {
		t.Fatalf("only %d path conditions checked", queries)
	}
}

// TestSymexNilCacheMatchesDirectSolver runs symex with a nil cache and
// solves every feasibility query it sends with bv.CheckSat in the test
// itself, on a budget of the test's own. The run's solver spend must be
// exactly the test's, it must charge no qcache row, and its paths and
// symex counts must equal those of a run through a real cache, which
// answers every query the same way.
func TestSymexNilCacheMatchesDirectSolver(t *testing.T) {
	names, fs, ns := nilCacheLoops(t)
	for i, f := range fs {
		direct := engine.NewBudget(nil, engine.Limits{})
		unsat := 0
		restore := qcache.TraceDecide(func(fs []*bv.Bool) {
			if st, _ := bv.CheckSat(direct, fs...); st == sat.Unsat {
				unsat++
			}
		})
		run := func(cache func(*bv.Interner) *qcache.Cache) ([]symex.Path, *engine.Budget) {
			in := bv.NewInterner()
			b := engine.NewBudget(nil, engine.Limits{})
			e := &symex.Engine{In: in, Budget: b, CheckFeasibility: true, Cache: cache(in)}
			paths, err := e.RunOn(f, strsolver.New(in, "s", ns[i]).Bytes)
			if err != nil {
				t.Fatalf("%s: %v", names[i], err)
			}
			return paths, b
		}
		nilPaths, nilB := run(func(*bv.Interner) *qcache.Cache { return nil })
		restore()
		cachedPaths, cachedB := run(qcache.New)

		if q := nilB.Count(engine.SolverQueries); q == 0 {
			t.Fatalf("%s: no feasibility queries", names[i])
		}
		for _, c := range solverRows {
			if nilB.Count(c) != direct.Count(c) {
				t.Errorf("%s: nil cache run spent %+v, direct CheckSat %+v", names[i], nilB.Spend(), direct.Spend())
			}
		}
		for _, c := range qcacheRows {
			if nilB.Count(c) != 0 {
				t.Errorf("%s: nil cache run charged qcache rows: %+v", names[i], nilB.Spend())
			}
		}
		for _, c := range []engine.Counter{engine.SymexRuns, engine.Paths, engine.Steps, engine.Forks, engine.SolverQueries} {
			if nilB.Count(c) != cachedB.Count(c) {
				t.Errorf("%s: symex counts differ: nil cache run %+v, cached run %+v", names[i], nilB.Spend(), cachedB.Spend())
			}
		}
		if len(nilPaths) != len(cachedPaths) {
			t.Fatalf("%s: nil cache run %d paths, cached run %d", names[i], len(nilPaths), len(cachedPaths))
		}
		for j := range nilPaths {
			a, b := nilPaths[j], cachedPaths[j]
			if a.Cond.String() != b.Cond.String() || retString(a.Ret) != retString(b.Ret) || (a.Err == nil) != (b.Err == nil) {
				t.Fatalf("%s: path %d differs: %v -> %v vs %v -> %v", names[i], j, a.Cond, retString(a.Ret), b.Cond, retString(b.Ret))
			}
		}
		t.Logf("%s: %d queries (%d unsat), %d paths", names[i], nilB.Count(engine.SolverQueries), unsat, len(nilPaths))
	}
}

// retString renders a path's return value independently of the interner
// that built it.
func retString(v symex.Value) string {
	return fmt.Sprintf("ptr=%v obj=%d term=%v off=%v", v.IsPtr, v.Obj, v.Term, v.Off)
}
