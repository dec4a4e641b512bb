package qcache_test

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"stringloops/internal/bv"
	"stringloops/internal/cc"
	"stringloops/internal/cir"
	"stringloops/internal/diskcache"
	"stringloops/internal/engine"
	"stringloops/internal/faultpoint"
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

// step is one recorded Extend call: its formula and the index of the step
// whose path was its parent (-1 for none).
type step struct {
	parent int
	f      *bv.Bool
}

// stream is the feasibility-query stream of one symex run, over the
// interner the run built its formulas with.
type stream struct {
	name  string
	in    *bv.Interner
	steps []step
}

// record runs f on a symbolic string of length n, with or without state
// merging, and records every feasibility query symex sent to its cache.
func record(t *testing.T, name string, f *cir.Func, n int, merge bool) stream {
	t.Helper()
	in := bv.NewInterner()
	e := &symex.Engine{Config: symex.Config{Merge: merge}, In: in, CheckFeasibility: true, Cache: qcache.New(in)}
	s := stream{name: fmt.Sprintf("%s/n=%d/merge=%v", name, n, merge), in: in}
	ids := map[*qcache.Path]int{}
	restore := qcache.TraceExtend(func(parent *qcache.Path, f *bv.Bool, p *qcache.Path) {
		pi := -1
		if parent != nil {
			var ok bool
			if pi, ok = ids[parent]; !ok {
				t.Fatalf("%s: Extend got a parent no earlier Extend returned", s.name)
			}
		}
		s.steps = append(s.steps, step{parent: pi, f: f})
		if p != nil {
			ids[p] = len(s.steps) - 1
		}
	})
	defer restore()
	e.RunOn(f, strsolver.New(in, "s", n).Bytes) // errors (unsupported shapes) still leave a stream
	return s
}

// streams records the Figure 1 loop at length 8 and every corpus loop at
// length 5, each merged and unmerged. Under the race detector, which slows
// the replays tenfold, it records every eighth corpus loop.
func streams(t *testing.T) []stream {
	t.Helper()
	file, err := cc.Parse(figure1Loop)
	if err != nil {
		t.Fatal(err)
	}
	fig1, err := cir.LowerFunc(file.Funcs[0], file)
	if err != nil {
		t.Fatal(err)
	}
	var out []stream
	for _, merge := range []bool{false, true} {
		out = append(out, record(t, "figure1", fig1, 8, merge))
		for i, l := range loopdb.Corpus() {
			if qcache.RaceEnabled && i%8 != 0 {
				continue
			}
			f, err := l.Lower()
			if err != nil {
				t.Fatalf("%s: %v", l.Name, err)
			}
			out = append(out, record(t, l.Name, f, 5, merge))
		}
	}
	return out
}

// seededStore returns an in-memory query store holding the verdicts of the
// first half of the stream, written by a throwaway cache.
func seededStore(s stream) *diskcache.Store {
	store := diskcache.NewStoreSized("", 0, nil)
	c := qcache.New(s.in).SetDisk(store)
	for _, st := range s.steps[:len(s.steps)/2] {
		c.Decide(nil, st.f)
	}
	return store
}

// TestExtendMatchesDecide replays recorded symex feasibility streams into
// twin caches over one interner, one answering through Decide and one
// through Extend with the parent paths the run used. Extend re-derives only
// what each query adds, but must make every cache decision Decide makes:
// after every query the statuses, Stats, budget counters and the length of
// the model-reuse list agree — with no faults, under an armed miss storm
// (which also overwrites exact entries, retiring cached entry pointers), and
// with a seeded disk tier attached.
func TestExtendMatchesDecide(t *testing.T) {
	all := streams(t)
	queries := 0
	for _, s := range all {
		queries += len(s.steps)
	}
	if queries == 0 {
		t.Fatal("symex sent no feasibility queries")
	}
	type variant struct {
		name string
		rate float64
		disk bool
	}
	for _, v := range []variant{{"plain", 0, false}, {"qcache.miss=0.2", 0.2, false}, {"disk", 0, true}} {
		t.Run(v.name, func(t *testing.T) {
			var total engine.Spend
			var hits qcache.Stats
			for _, s := range all {
				dec, ext := qcache.New(s.in), qcache.New(s.in)
				if v.rate > 0 {
					dec.SetFaults(faultpoint.New(faultpoint.Config{Seed: 9, Rates: map[faultpoint.Site]float64{faultpoint.QCacheMiss: v.rate}}))
					ext.SetFaults(faultpoint.New(faultpoint.Config{Seed: 9, Rates: map[faultpoint.Site]float64{faultpoint.QCacheMiss: v.rate}}))
				}
				if v.disk {
					dec.SetDisk(seededStore(s))
					ext.SetDisk(seededStore(s))
				}
				bDec := engine.NewBudget(context.Background(), engine.Limits{})
				bExt := engine.NewBudget(context.Background(), engine.Limits{})
				paths := make([]*qcache.Path, len(s.steps))
				for i, st := range s.steps {
					var parent *qcache.Path
					if st.parent >= 0 {
						parent = paths[st.parent]
					}
					want := dec.Decide(bDec, st.f)
					got, p := ext.Extend(bExt, parent, st.f)
					paths[i] = p
					if got != want {
						t.Fatalf("%s query %d: Decide %v, Extend %v", s.name, i, want, got)
					}
					if got == sat.Unsat && p != nil {
						t.Fatalf("%s query %d: Extend returned a path with Unsat", s.name, i)
					}
					if sd, se := dec.Stats(), ext.Stats(); sd != se {
						t.Fatalf("%s query %d: stats diverged\nDecide %+v\nExtend %+v", s.name, i, sd, se)
					}
					if sd, se := bDec.Spend(), bExt.Spend(); sd != se {
						t.Fatalf("%s query %d: budget counters diverged\nDecide %+v\nExtend %+v", s.name, i, sd, se)
					}
					if nd, ne := qcache.ModelCount(dec), qcache.ModelCount(ext); nd != ne {
						t.Fatalf("%s query %d: model-reuse lists hold %d vs %d models", s.name, i, nd, ne)
					}
				}
				total.Add(bExt.Spend())
				es := ext.Stats()
				hits.ExactHits += es.ExactHits
				hits.ModelHits += es.ModelHits
				hits.SubsetHits += es.SubsetHits
			}
			if hits.ExactHits == 0 || total.QCacheMisses == 0 || v.disk && total.DiskHits == 0 {
				t.Fatalf("streams too narrow: %+v, %+v", hits, total)
			}
			t.Logf("%d streams, %d queries, %d groups: %d exact, %d model, %d subset hits, %d misses",
				len(all), total.QCacheQueries, total.QCacheGroups, hits.ExactHits, hits.ModelHits, hits.SubsetHits, total.QCacheMisses)
		})
	}
}

// TestPruneConjunctsIsRegionLocal pins the fact Extend's region split rests
// on: pruning a conjunction equals pruning each of its variable-connected
// regions alone, conjunct by conjunct and in the fusions it counts. The
// conjunctions are the recorded streams' queries as the cache sees them:
// simplified, flattened and deduplicated.
func TestPruneConjunctsIsRegionLocal(t *testing.T) {
	checked, split := 0, 0
	for _, s := range streams(t) {
		b := engine.NewBudget(nil, engine.Limits{})
		s.in.SetBudget(b) // the interner charges its pruning fusions here
		for i, st := range s.steps {
			var conj []*bv.Bool
			for _, cj := range bv.Conjuncts(nil, s.in.SimplifyBool(st.f)) {
				if cj != bv.True && !slices.Contains(conj, cj) {
					conj = append(conj, cj)
				}
			}
			if len(conj) < 2 || slices.Contains(conj, bv.False) {
				continue
			}
			whole := slices.Clone(conj)
			f0 := b.Count(engine.IteFusions)
			s.in.PruneConjuncts(whole)
			f1 := b.Count(engine.IteFusions)

			regions := regionsOf(conj)
			if len(regions) > 1 {
				split++
			}
			byRegion := slices.Clone(conj)
			for _, r := range regions {
				part := make([]*bv.Bool, len(r))
				for k, j := range r {
					part[k] = conj[j]
				}
				s.in.PruneConjuncts(part)
				for k, j := range r {
					byRegion[j] = part[k]
				}
			}
			f2 := b.Count(engine.IteFusions)
			if !slices.Equal(whole, byRegion) {
				t.Fatalf("%s query %d: pruning by region differs from pruning the whole conjunction", s.name, i)
			}
			if f1-f0 != f2-f1 {
				t.Fatalf("%s query %d: %d fusions pruning the whole, %d by region", s.name, i, f1-f0, f2-f1)
			}
			checked++
		}
	}
	if split == 0 {
		t.Fatal("no conjunction had more than one region")
	}
	t.Logf("%d conjunctions, %d with several regions", checked, split)
}

// regionsOf groups the indices of conj by variable-connected component,
// each in query order.
func regionsOf(conj []*bv.Bool) [][]int {
	comp := make([]int, len(conj))
	for i := range comp {
		comp[i] = i
	}
	find := func(x int) int {
		for comp[x] != x {
			x = comp[x]
		}
		return x
	}
	owner := map[string]int{}
	var scan bv.VarScanner
	for i, cj := range conj {
		for _, v := range scan.Names(nil, cj) {
			if j, ok := owner[v]; ok {
				comp[find(i)] = find(j)
			} else {
				owner[v] = i
			}
		}
	}
	var out [][]int
	index := map[int]int{}
	for i := range conj {
		r := find(i)
		k, ok := index[r]
		if !ok {
			k = len(out)
			index[r] = k
			out = append(out, nil)
		}
		out[k] = append(out[k], i)
	}
	return out
}

// TestExtendStaleOrForeignParent hands Extend parents it must not extend
// from, or must not trust blindly — one from another cache, one prepared
// for an unrelated condition, and one whose cached exact entries were
// retired by an overwrite — and holds every answer, and the work behind
// it, to a twin cache answering through Decide.
func TestExtendStaleOrForeignParent(t *testing.T) {
	in := bv.NewInterner()
	dec, ext, other := qcache.New(in), qcache.New(in), qcache.New(in)
	b := func() *engine.Budget { return engine.NewBudget(context.Background(), engine.Limits{}) }
	bDec, bExt := b(), b()
	s := make([]*bv.Term, 4)
	for i := range s {
		s[i] = in.Var(fmt.Sprintf("s[%d]", i), 8)
	}
	ne := func(i int, c byte) *bv.Bool { return in.Ne(s[i], in.Byte(c)) }
	base := in.BAndAll(ne(0, 0), ne(1, 0), in.Ult(s[2], s[3]))
	ask := func(label string, parent *qcache.Path, f *bv.Bool) *qcache.Path {
		t.Helper()
		want := dec.Decide(bDec, f)
		got, p := ext.Extend(bExt, parent, f)
		if got != want {
			t.Fatalf("%s: Decide %v, Extend %v", label, want, got)
		}
		if sd, se := dec.Stats(), ext.Stats(); sd != se {
			t.Fatalf("%s: stats diverged\nDecide %+v\nExtend %+v", label, sd, se)
		}
		if sd, se := bDec.Spend(), bExt.Spend(); sd != se {
			t.Fatalf("%s: budget counters diverged\nDecide %+v\nExtend %+v", label, sd, se)
		}
		if nd, ne := qcache.ModelCount(dec), qcache.ModelCount(ext); nd != ne {
			t.Fatalf("%s: model-reuse lists hold %d vs %d models", label, nd, ne)
		}
		return p
	}

	p := ask("base", nil, base)
	if p == nil {
		t.Fatal("a satisfiable query returned no path")
	}
	p = ask("extension", p, in.BAnd2(base, ne(0, 'a')))

	// A parent from another cache is ignored.
	_, foreign := other.Extend(nil, nil, base)
	ask("foreign parent", foreign, in.BAnd2(base, ne(1, 'b')))
	// So is a parent the formula does not extend.
	ask("unrelated parent", p, in.BAnd2(ne(2, 'c'), ne(3, 'd')))

	// Overwrite the exact entries p's groups cached: under a miss storm every
	// group is solved again and stored over its old entry, which moves the
	// generation. The next extension of p must look its groups up again —
	// the fresh entries have not released their models yet.
	storm := func() *faultpoint.Registry {
		return faultpoint.New(faultpoint.Config{Seed: 3, Rates: map[faultpoint.Site]float64{faultpoint.QCacheMiss: 1}})
	}
	gen := qcache.Generation(ext)
	dec.SetFaults(storm())
	ext.SetFaults(storm())
	ask("overwrite", nil, in.BAnd2(base, ne(0, 'a')))
	dec.SetFaults(nil)
	ext.SetFaults(nil)
	if qcache.Generation(ext) == gen {
		t.Fatal("overwriting exact entries did not move the generation")
	}
	ask("stale parent", p, in.BAnd2(in.BAnd2(base, ne(0, 'a')), ne(2, 'e')))
}

// TestExtendKeepsGroupOrder extends a path with a conjunct that joins its
// first region, not its last. The new group must be checked where Decide
// checks it, first: it is unsat, so Decide never reaches the later groups,
// and an Extend that checked them first would count exact hits Decide does
// not.
func TestExtendKeepsGroupOrder(t *testing.T) {
	in := bv.NewInterner()
	dec, ext := qcache.New(in), qcache.New(in)
	bDec, bExt := engine.NewBudget(nil, engine.Limits{}), engine.NewBudget(nil, engine.Limits{})
	s0, s1, s2 := in.Var("s[0]", 8), in.Var("s[1]", 8), in.Var("s[2]", 8)
	base := in.BAndAll(in.Ult(s0, in.Byte(5)), in.Ne(s1, in.Byte(0)), in.Ult(s2, in.Byte(9)))
	dec.Decide(bDec, base)
	_, p := ext.Extend(bExt, nil, base)
	f := in.BAnd2(base, in.Ult(in.Byte(10), s0))
	if st := dec.Decide(bDec, f); st != sat.Unsat {
		t.Fatalf("Decide = %v, want unsat", st)
	}
	if st, _ := ext.Extend(bExt, p, f); st != sat.Unsat {
		t.Fatalf("Extend = %v, want unsat", st)
	}
	if sd, se := dec.Stats(), ext.Stats(); sd != se {
		t.Fatalf("stats diverged\nDecide %+v\nExtend %+v", sd, se)
	}
	if sd, se := bDec.Spend(), bExt.Spend(); sd != se {
		t.Fatalf("budget counters diverged\nDecide %+v\nExtend %+v", sd, se)
	}
}
