package qcache_test

import (
	"context"
	"fmt"
	"testing"

	"stringloops/internal/bv"
	"stringloops/internal/engine"
	"stringloops/internal/faultpoint"
	"stringloops/internal/loopdb"
	"stringloops/internal/qcache"
	"stringloops/internal/sat"
	"stringloops/internal/strsolver"
	"stringloops/internal/symex"
)

// TestDecideSealedMatchesDecide runs every corpus loop at length 6 twice,
// each through its own cache, and then asks each terminal path's test query
// of one cache through Decide and of the other through DecideSealed with the
// path's sealed form. After every query the statuses, Stats, budget
// counters and the length of the model-reuse list agree; and nearly every
// query is answered from its sealed entries, not decided again. Under the
// race detector it runs every eighth loop.
func TestDecideSealedMatchesDecide(t *testing.T) {
	queries, sealed := 0, 0
	for i, l := range loopdb.Corpus() {
		if qcache.RaceEnabled && i%8 != 0 {
			continue
		}
		f, err := l.Lower()
		if err != nil {
			t.Fatalf("%s: %v", l.Name, err)
		}
		// The run is deterministic, so two runs build identical caches.
		run := func() (*qcache.Cache, []symex.Path) {
			in := bv.NewInterner()
			c := qcache.New(in)
			e := &symex.Engine{In: in, CheckFeasibility: true, Cache: c}
			paths, err := e.RunOn(f, strsolver.New(in, "s", 6).Bytes)
			if err != nil {
				t.Fatalf("%s: %v", l.Name, err)
			}
			return c, paths
		}
		dec, dpaths := run()
		seal, spaths := run()
		if len(dpaths) != len(spaths) {
			t.Fatalf("%s: twin runs found %d and %d paths", l.Name, len(dpaths), len(spaths))
		}
		bDec := engine.NewBudget(context.Background(), engine.Limits{})
		bSeal := engine.NewBudget(context.Background(), engine.Limits{})
		for j, p := range spaths {
			if qcache.AnswersSealed(seal, p.Sealed, p.Cond) {
				sealed++
			}
			want := dec.Decide(bDec, dpaths[j].Cond)
			got := seal.DecideSealed(bSeal, p.Sealed, p.Cond)
			checkTwins(t, fmt.Sprintf("%s path %d", l.Name, j), want, got, dec, seal, bDec, bSeal)
			queries++
		}
	}
	if queries == 0 || sealed < queries*9/10 {
		t.Fatalf("%d of %d test queries answered from their sealed paths", sealed, queries)
	}
	t.Logf("%d test queries, %d answered from their sealed paths", queries, sealed)
}

// checkTwins fails unless a Decide twin and a DecideSealed twin agree on a
// query's status and on the work done so far.
func checkTwins(t *testing.T, label string, want, got sat.Status, dec, seal *qcache.Cache, bDec, bSeal *engine.Budget) {
	t.Helper()
	if got != want {
		t.Fatalf("%s: Decide %v, DecideSealed %v", label, want, got)
	}
	if sd, ss := dec.Stats(), seal.Stats(); sd != ss {
		t.Fatalf("%s: stats diverged\nDecide       %+v\nDecideSealed %+v", label, sd, ss)
	}
	if sd, ss := bDec.Spend(), bSeal.Spend(); sd != ss {
		t.Fatalf("%s: budget counters diverged\nDecide       %+v\nDecideSealed %+v", label, sd, ss)
	}
	if nd, ns := qcache.ModelCount(dec), qcache.ModelCount(seal); nd != ns {
		t.Fatalf("%s: model-reuse lists hold %d vs %d models", label, nd, ns)
	}
}

// TestDecideSealedFallsBack hands DecideSealed sealed paths it must not
// answer from — one sealed for another formula, one whose keys' cached
// entries a generation bump retired, one from another cache, one under an
// armed miss storm, and the zero Sealed — and holds every answer, and the
// work behind it, to a twin cache answering through Decide.
func TestDecideSealedFallsBack(t *testing.T) {
	in := bv.NewInterner()
	dec, seal, other := qcache.New(in), qcache.New(in), qcache.New(in)
	bDec := engine.NewBudget(context.Background(), engine.Limits{})
	bSeal := engine.NewBudget(context.Background(), engine.Limits{})
	s := make([]*bv.Term, 4)
	for i := range s {
		s[i] = in.Var(fmt.Sprintf("s[%d]", i), 8)
	}
	ne := func(i int, c byte) *bv.Bool { return in.Ne(s[i], in.Byte(c)) }
	base := in.BAndAll(ne(0, 0), ne(1, 0), in.Ult(s[2], s[3]))
	grown := in.BAnd2(base, ne(0, 'a'))
	ask := func(label string, sd qcache.Sealed, f *bv.Bool, fast bool) {
		t.Helper()
		if got := qcache.AnswersSealed(seal, sd, f); got != fast {
			t.Fatalf("%s: answered from the sealed path = %v, want %v", label, got, fast)
		}
		want := dec.Decide(bDec, f)
		got := seal.DecideSealed(bSeal, sd, f)
		checkTwins(t, label, want, got, dec, seal, bDec, bSeal)
	}

	// Decide base on both twins, the sealing one through Extend.
	dec.Decide(bDec, base)
	_, p := seal.Extend(bSeal, nil, base)
	if p == nil {
		t.Fatal("a satisfiable query returned no path")
	}
	sd := p.Seal()
	ask("sealed", sd, base, true)
	ask("changed root", sd, grown, false)
	ask("zero Sealed", qcache.Sealed{}, base, false)
	_, foreign := other.Extend(nil, nil, base)
	ask("foreign cache", foreign.Seal(), base, false)

	// Overwrite the entry of a group base does not have: under a miss storm
	// it is solved again and stored over its old entry, which moves the
	// generation and retires every other key's cached entry.
	unrelated := in.Ult(s[3], in.Byte('z'))
	dec.Decide(bDec, unrelated)
	seal.Decide(bSeal, unrelated)
	storm := func() {
		for _, c := range []*qcache.Cache{dec, seal} {
			c.SetFaults(faultpoint.New(faultpoint.Config{Seed: 5, Rates: map[faultpoint.Site]float64{faultpoint.QCacheMiss: 1}}))
		}
	}
	calm := func() {
		dec.SetFaults(nil)
		seal.SetFaults(nil)
	}
	gen := qcache.Generation(seal)
	storm()
	dec.Decide(bDec, unrelated)
	seal.Decide(bSeal, unrelated)
	calm()
	if qcache.Generation(seal) == gen {
		t.Fatal("overwriting an exact entry did not move the generation")
	}
	ask("stale keys", sd, base, false)
	// Deciding base looked its keys up again, which makes them current.
	ask("refreshed", sd, base, true)
	// An armed registry draws a firing per group, so no sealed path is used
	// while one is armed.
	storm()
	ask("armed miss storm", sd, base, false)
	calm()
}
