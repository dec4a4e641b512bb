package kleebench

import (
	"context"
	"strings"
	"testing"

	"stringloops/internal/cegis"
	"stringloops/internal/engine"
	"stringloops/internal/loopdb"
	"stringloops/internal/memoryless"
	"stringloops/internal/obs"
)

// ledgerMetrics returns the metric names of the ledger's rows: a budget
// attached to a registry registers one counter per row.
func ledgerMetrics() map[string]bool {
	m := obs.NewMetrics()
	engine.NewBudget(nil, engine.Limits{}).SetObs(nil, m)
	rows := map[string]bool{}
	for name := range m.Snapshot().Counters {
		rows[name] = true
	}
	return rows
}

// TestSolverLayersCountOnlyThroughLedger runs one traced item through each
// entry point that drives the solver layers (synthesis, the memorylessness
// check, and both symbolic-execution modes), each metering into a fresh
// registry. The budget's spend must reconcile with the registry, and every
// sat, bv, qcache, symex and cegis counter in the registry must be a ledger
// row: a layer that counts around the ledger would show up as a counter no
// reconcile checks.
func TestSolverLayersCountOnlyThroughLedger(t *testing.T) {
	rows := ledgerMetrics()
	if len(rows) == 0 {
		t.Fatal("a budget registered no ledger counters")
	}
	var loop loopdb.Loop
	for _, l := range loopdb.Corpus() {
		if l.Name == "bash/skip_spaces" {
			loop = l
		}
	}
	f, err := loop.Lower()
	if err != nil {
		t.Fatal(err)
	}
	traced := func() (context.Context, *obs.Metrics) {
		m := obs.NewMetrics()
		return obs.NewContext(context.Background(), obs.NewDeterministic(), m), m
	}
	check := func(item string, m *obs.Metrics, spend engine.Spend, layers ...string) {
		t.Helper()
		counters := m.Snapshot().Counters
		if err := spend.Reconcile(counters); err != nil {
			t.Errorf("%s: %v", item, err)
		}
		for name := range counters {
			for _, layer := range []string{"sat.", "bv.", "qcache.", "symex.", "cegis."} {
				if strings.HasPrefix(name, layer) && !rows[name] {
					t.Errorf("%s: counter %s is not a ledger row", item, name)
				}
			}
		}
		for _, name := range layers {
			if counters[name] == 0 {
				t.Errorf("%s: %s is zero; the item did not exercise the layer", item, name)
			}
		}
	}

	ctx, m := traced()
	b := engine.NewBudget(ctx, engine.Limits{})
	out, err := cegis.Synthesize(f, cegis.Options{MaxProgSize: 5, Budget: b})
	if err != nil || !out.Found {
		t.Fatalf("synthesis: found %v, %v", out.Found, err)
	}
	check("cegis.Synthesize", m, b.Spend(), obs.MCegisCandidates, obs.MSymexPaths, obs.MQCacheQueries)

	ctx, m = traced()
	b = engine.NewBudget(ctx, engine.Limits{})
	if rep := memoryless.VerifyWith(f, memoryless.VerifyOptions{Budget: b}); !rep.Memoryless {
		t.Fatalf("memoryless check: %s", rep.Reason)
	}
	check("memoryless.VerifyWith", m, b.Spend(), obs.MSymexSteps, obs.MSatDecisions)

	ctx, m = traced()
	v := VanillaWith(f, 4, 0, Config{QCache: true, Ctx: ctx})
	if v.Err != nil || v.TimedOut || v.Tests == 0 {
		t.Fatalf("vanilla run: %+v", v)
	}
	check("kleebench.VanillaWith", m, v.Spend, obs.MSymexRuns, obs.MSymexQueries, obs.MQCacheGroups)

	ctx, m = traced()
	s := StrWith(out.Program, 4, 0, Config{QCache: true, Ctx: ctx})
	if s.Err != nil || s.TimedOut || s.Tests == 0 {
		t.Fatalf("str run: %+v", s)
	}
	check("kleebench.StrWith", m, s.Spend, obs.MQCacheQueries)
}
