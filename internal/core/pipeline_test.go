package core

import (
	"testing"

	"stringloops/internal/diskcache"
	"stringloops/internal/engine"
	"stringloops/internal/faultpoint"
	"stringloops/internal/loopdb"
	"stringloops/internal/symex"
)

// TestPipelineConfigReachesEveryLayer sets one symex.Config on
// core.Options and checks that it reaches every layer of the covering rung
// and of Summarize (memorylessness check, synthesis): each pipeline fault
// site is consulted, states merge, and the tier is used. The sites are
// armed at a rate that never fires on this run, so the consultations are
// counted without changing any result.
func TestPipelineConfigReachesEveryLayer(t *testing.T) {
	sites := []faultpoint.Site{
		faultpoint.SatUnknown, faultpoint.SatConflictStorm, faultpoint.BVNodeExhaust,
		faultpoint.QCacheMiss, faultpoint.SymexForkFail, faultpoint.SymexPanic,
		faultpoint.CegisReject,
	}
	rates := map[faultpoint.Site]float64{}
	for _, s := range sites {
		rates[s] = 1e-18
	}
	reg := faultpoint.New(faultpoint.Config{Seed: 1, Rates: rates})
	tier, err := diskcache.OpenSized(t.TempDir(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tier.Close()
	opts := Options{Pipeline: symex.Config{Merge: true, Faults: reg, Disk: tier}}
	l := loopdb.Corpus()[0]

	// run counts the consultations of fn and checks them: every site in
	// want consulted, at least one merge, and the tier consulted.
	run := func(name string, want []faultpoint.Site, fn func() engine.Spend) {
		t.Helper()
		before := map[faultpoint.Site]uint64{}
		for _, s := range sites {
			before[s] = reg.Calls(s)
		}
		spend := fn()
		for _, s := range want {
			if reg.Calls(s) == before[s] {
				t.Errorf("%s: site %s never consulted", name, s)
			}
		}
		if spend.Merges == 0 {
			t.Errorf("%s: no symex.merges: Merge did not reach the engine", name)
		}
		if spend.DiskHits+spend.DiskMisses == 0 {
			t.Errorf("%s: the tier was never consulted", name)
		}
	}

	// The covering rung runs first, on a cold tier, so its queries reach
	// the SAT layer; it runs no synthesis, so CegisReject stays quiet.
	run("covering", sites[:len(sites)-1], func() engine.Spend {
		out := SummarizeResilient(l.Source, l.FuncName, ResilientOptions{
			Options:   opts,
			StartRung: RungCovering,
		})
		if out.Rung != RungCovering {
			t.Fatalf("covering rung: reached %s (%v)", out.Rung, out.Err)
		}
		return out.Spend()
	})
	run("summarize", sites, func() engine.Spend {
		full := opts
		full.Budget = engine.NewBudget(nil, engine.Limits{})
		if _, err := Summarize(l.Source, l.FuncName, full); err != nil {
			t.Fatalf("Summarize(%s): %v", l.Name, err)
		}
		return full.Budget.Spend()
	})
	if tier.Queries.Len() == 0 || tier.Memo.Len() == 0 {
		t.Errorf("tier stores: %d queries, %d memos; want both non-empty",
			tier.Queries.Len(), tier.Memo.Len())
	}
	for _, s := range sites {
		if n := reg.Fired(s); n != 0 {
			t.Errorf("site %s fired %d times; the test needs a rate that never fires", s, n)
		}
	}
}
