package qcache

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"sync"
	"testing"

	"stringloops/internal/bv"
	"stringloops/internal/diskcache"
	"stringloops/internal/engine"
	"stringloops/internal/faultpoint"
	"stringloops/internal/sat"
)

// pathQueries generates a symbolic-execution-shaped stream: a path
// condition over eight string bytes grows one branch condition at a time,
// each query asks for the prefix plus the next branch, and the path
// sometimes restarts. The prefix spans several independent bytes, so most
// queries are multi-group and most groups are exact hits.
func pathQueries(in *bv.Interner, seed int64, n int) [][]*bv.Bool {
	rng := rand.New(rand.NewSource(seed))
	s := make([]*bv.Term, 8)
	for i := range s {
		s[i] = in.Var(fmt.Sprintf("s[%d]", i), 8)
	}
	var prefix []*bv.Bool
	queries := make([][]*bv.Bool, 0, n)
	for len(queries) < n {
		x := s[rng.Intn(len(s))]
		var cond *bv.Bool
		switch rng.Intn(4) {
		case 0:
			cond = in.Eq(x, in.Byte(byte('a'+rng.Intn(4))))
		case 1:
			cond = in.Ult(x, s[rng.Intn(len(s))])
		default:
			cond = in.Ne(x, in.Byte(byte('a'+rng.Intn(4))))
		}
		if rng.Intn(2) == 0 {
			cond = in.BNot1(cond)
		}
		queries = append(queries, append(append([]*bv.Bool(nil), prefix...), cond))
		switch {
		case rng.Intn(10) == 0:
			prefix = nil
		case rng.Intn(10) < 7:
			prefix = append(prefix, cond)
		}
	}
	return queries
}

// lockstepStream is the mixed query stream the entry-point tests replay.
func lockstepStream(in *bv.Interner) [][]*bv.Bool {
	var qs [][]*bv.Bool
	qs = append(qs, pathQueries(in, 3, 200)...)
	qs = append(qs, buildQueries(in, 23, 100)...)
	qs = append(qs, randomQueries(in, 11, 60)...)
	qs = append(qs, pathQueries(in, 4, 200)...)
	return qs
}

// workStats is Stats without the wall-clock fields, which are the only
// ones allowed to differ between two caches doing the same work.
func workStats(s Stats) Stats {
	s.BlastTime, s.SearchTime = 0, 0
	return s
}

// TestDecideMatchesCheckSat drives two caches over one interner with the
// same query stream, one through CheckSat and one through Decide. Decide
// skips only model construction, so statuses, every Stats counter, the
// budget counters and the model-reuse list must agree query by query.
func TestDecideMatchesCheckSat(t *testing.T) {
	for _, rate := range []float64{0, 0.2} {
		t.Run(fmt.Sprintf("qcache.miss=%v", rate), func(t *testing.T) {
			in := bv.NewInterner()
			full, lean := New(in), New(in)
			if rate > 0 {
				full.SetFaults(faultpoint.New(faultpoint.Config{Seed: 9, Rates: map[faultpoint.Site]float64{faultpoint.QCacheMiss: rate}}))
				lean.SetFaults(faultpoint.New(faultpoint.Config{Seed: 9, Rates: map[faultpoint.Site]float64{faultpoint.QCacheMiss: rate}}))
			}
			bFull := engine.NewBudget(context.Background(), engine.Limits{})
			bLean := engine.NewBudget(context.Background(), engine.Limits{})
			for i, q := range lockstepStream(in) {
				stFull, m := full.CheckSat(bFull, 0, q...)
				stLean := lean.Decide(bLean, 0, q...)
				if stFull != stLean {
					t.Fatalf("query %d: CheckSat %v, Decide %v", i, stFull, stLean)
				}
				if stFull == sat.Sat && m == nil {
					t.Fatalf("query %d: CheckSat returned Sat without a model", i)
				}
				if sf, sl := workStats(full.Stats()), workStats(lean.Stats()); sf != sl {
					t.Fatalf("query %d: stats diverged\nCheckSat %+v\nDecide   %+v", i, sf, sl)
				}
				if len(full.models) != len(lean.models) {
					t.Fatalf("query %d: model-reuse lists hold %d vs %d models", i, len(full.models), len(lean.models))
				}
				for _, ctr := range []engine.Counter{engine.CacheHits, engine.CacheMisses, engine.Conflicts} {
					if bFull.Count(ctr) != bLean.Count(ctr) {
						t.Fatalf("query %d: budget counter %d: CheckSat %d, Decide %d", i, ctr, bFull.Count(ctr), bLean.Count(ctr))
					}
				}
			}
			s := full.Stats()
			if s.ExactHits == 0 || s.ModelHits == 0 || s.Misses == 0 {
				t.Fatalf("stream too narrow to exercise every rule: %+v", s)
			}
			t.Logf("%d queries, %d groups: %d exact, %d model, %d subset hits, %d misses",
				s.Queries, s.Groups, s.ExactHits, s.ModelHits, s.SubsetHits, s.Misses)
		})
	}
}

// spreadCase runs the disk-promoted first-hit scenario on a fresh cache:
// x == 7 is answered from a stored entry, then x < 10 must be answered by
// the model that first hit released, then x == 7 again must not release it
// a second time. It returns the cache for inspection.
func spreadCase(t *testing.T, decide bool, faults *faultpoint.Registry) *Cache {
	t.Helper()
	store := diskcache.NewStore("", 0, nil)
	seedIn := bv.NewInterner()
	seed := New(seedIn).SetDisk(store)
	if st, _ := seed.CheckSat(nil, 0, seedIn.Eq(seedIn.Var("x", 8), seedIn.Byte(7))); st != sat.Sat {
		t.Fatal("seeding query must be sat")
	}

	in := bv.NewInterner()
	c := New(in).SetDisk(store)
	if faults != nil {
		c.SetFaults(faults)
	}
	x := in.Var("x", 8)
	ask := func(f *bv.Bool) sat.Status {
		if decide {
			return c.Decide(nil, 0, f)
		}
		st, m := c.CheckSat(nil, 0, f)
		if st == sat.Sat && !bv.NewEvaluator(m).Bool(f) {
			t.Fatalf("model violates %v", f)
		}
		return st
	}
	for _, f := range []*bv.Bool{in.Eq(x, in.Byte(7)), in.Ult(x, in.Byte(10)), in.Eq(x, in.Byte(7))} {
		if st := ask(f); st != sat.Sat {
			t.Fatalf("query %v = %v, want sat", f, st)
		}
	}
	return c
}

// TestFirstExactHitSpreadsModel pins the exactEntry.spread rule under both
// entry points: the first hit of a Sat entry (here one promoted from the
// disk tier, so no solve ever seeded the reuse list) releases its model,
// which then answers a different group; a second hit adds no duplicate.
func TestFirstExactHitSpreadsModel(t *testing.T) {
	for _, decide := range []bool{false, true} {
		c := spreadCase(t, decide, nil)
		s := c.Stats()
		if s.Misses != 0 || s.ExactHits != 2 || s.ModelHits != 1 {
			t.Fatalf("decide=%v: stats = %+v, want 2 exact hits, 1 model hit, no miss", decide, s)
		}
		if len(c.models) != 1 {
			t.Fatalf("decide=%v: reuse list holds %d models, want the one released model", decide, len(c.models))
		}
	}
	// Under an armed miss storm the schedule decides which groups reach the
	// solver, but both entry points must still do identical work.
	storm := func() *faultpoint.Registry {
		return faultpoint.New(faultpoint.Config{Seed: 2, Rates: map[faultpoint.Site]float64{faultpoint.QCacheMiss: 0.5}})
	}
	full, lean := spreadCase(t, false, storm()), spreadCase(t, true, storm())
	if sf, sl := workStats(full.Stats()), workStats(lean.Stats()); sf != sl {
		t.Fatalf("under qcache.miss: CheckSat %+v, Decide %+v", sf, sl)
	}
	if len(full.models) != len(lean.models) {
		t.Fatalf("under qcache.miss: reuse lists hold %d vs %d models", len(full.models), len(lean.models))
	}
	if full.faults.Fired(faultpoint.QCacheMiss) == 0 {
		t.Fatal("the miss storm never fired")
	}
}

// TestDecideExactHitAllocations holds a warmed multi-group exact hit through
// Decide to a small allocation count: the per-query conjunct, slicing and
// key buffers are reused and no model is built. It measures 0 on go1.24;
// before Decide and the reused buffers, the same query through CheckSat
// made 65.
func TestDecideExactHitAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	in := bv.NewInterner()
	c := New(in)
	var q []*bv.Bool
	for i := 0; i < 4; i++ {
		x := in.Var(fmt.Sprintf("x%d", i), 8)
		q = append(q, in.Ult(in.Byte(byte(10*i)), x), in.Ne(x, in.Byte(byte(10*i+1))))
	}
	for i := 0; i < 2; i++ { // solve, then release the models on first hit
		if st := c.Decide(nil, 0, q...); st != sat.Sat {
			t.Fatalf("warm-up %d = %v", i, st)
		}
	}
	allocs := testing.AllocsPerRun(100, func() { c.Decide(nil, 0, q...) })
	if s := c.Stats(); s.Groups != 4*int64(s.Queries) || s.Misses != 4 {
		t.Fatalf("stats = %+v, want 4 groups per query, each solved once", s)
	}
	if allocs > 2 {
		t.Fatalf("warmed exact-hit Decide allocates %v times, want ≤ 2", allocs)
	}
	t.Logf("warmed exact-hit Decide: %v allocations", allocs)
}

// TestConcurrentEntryPoints mixes Decide, CheckSat and IsValid on one cache
// from several goroutines (run it under -race). Returned models must
// satisfy their queries and must never change after return: the cache
// keeps no reference into what it hands out that a later query could
// write through, scratch buffers included.
func TestConcurrentEntryPoints(t *testing.T) {
	in := bv.NewInterner()
	c := New(in)
	stream := lockstepStream(in)
	type kept struct {
		m    *bv.Assignment
		snap bv.Assignment
	}
	const workers = 4
	var wg sync.WaitGroup
	results := make([][]kept, workers)
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(stream); i += 2 {
				q := stream[i]
				var m *bv.Assignment
				switch (i + w) % 3 {
				case 0:
					c.Decide(nil, 0, q...)
					continue
				case 1:
					var st sat.Status
					if st, m = c.CheckSat(nil, 0, q...); st != sat.Sat {
						continue
					}
					ev := bv.NewEvaluator(m)
					for _, f := range q {
						if !ev.Bool(f) {
							errs <- fmt.Errorf("query %d: model violates %v", i, f)
							return
						}
					}
				default:
					valid, cex, _ := c.IsValid(nil, 0, q[len(q)-1])
					if valid || cex == nil {
						continue
					}
					m = cex
				}
				results[w] = append(results[w], kept{m: m, snap: bv.Assignment{Terms: maps.Clone(m.Terms), Bools: maps.Clone(m.Bools)}})
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	n := 0
	for _, rs := range results {
		for _, r := range rs {
			if !maps.Equal(r.m.Terms, r.snap.Terms) || !maps.Equal(r.m.Bools, r.snap.Bools) {
				t.Fatal("a returned model changed after return")
			}
			n++
		}
	}
	if n == 0 {
		t.Fatal("no models were returned")
	}
}
