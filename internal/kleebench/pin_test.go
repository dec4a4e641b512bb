package kleebench

import (
	"context"
	"testing"

	"stringloops/internal/engine"
	"stringloops/internal/loopdb"
	"stringloops/internal/memoryless"
	"stringloops/internal/obs"
)

// kernelWork is the solver-kernel work one run did, read off its metrics
// registry: interned nodes, SAT search effort and query-cache traffic.
type kernelWork struct {
	nodes, conflicts, props, decisions int64
	queries, groups, hits, misses      int64
}

func readKernelWork(m *obs.Metrics) kernelWork {
	c := m.Snapshot().Counters
	return kernelWork{
		nodes: c[obs.MBVNodes], conflicts: c[obs.MSatConflicts],
		props: c[obs.MSatPropagations], decisions: c[obs.MSatDecisions],
		queries: c[obs.MQCacheQueries], groups: c[obs.MQCacheGroups],
		hits: c[obs.MQCacheHits], misses: c[obs.MQCacheMisses],
	}
}

// TestKernelWorkIsPinned pins the work the symex and equivalence kernels do
// on a few corpus loops: a vanilla symbolic run at length 6 (the Figure 3
// workload) and a memorylessness check at length 5 (the §3.3 workload). A
// change that only makes the interner, the simplifier, the query cache or
// the SAT solver faster must leave every number here alone; one that moves a
// number changed the work, and must say so when it regenerates the table.
func TestKernelWorkIsPinned(t *testing.T) {
	golden := []struct {
		name       string
		tests      int
		vanilla    kernelWork
		memoryless bool
		verify     kernelWork
	}{
		{"bash/skip_spaces", 7, kernelWork{116, 0, 30, 6, 12, 42, 40, 2},
			true, kernelWork{276, 18, 938, 76, 11, 31, 28, 3}},
		{"tar/break_nl_slash", 19, kernelWork{544, 0, 139, 28, 96, 273, 267, 6},
			true, kernelWork{759, 47, 4413, 542, 81, 196, 189, 7}},
		{"git/trim_slashes", 13, kernelWork{810, 7, 10225, 452, 38, 41, 21, 20},
			true, kernelWork{2398, 44, 17060, 447, 34, 37, 19, 18}},
		{"diff/skip_word", 253, kernelWork{1803, 0, 1047, 65, 756, 3852, 3844, 8},
			true, kernelWork{3913, 719, 215411, 2814, 373, 1549, 1540, 9}},
		{"bash/skip_ifs", 5461, kernelWork{22172, 0, 117, 18, 10920, 61896, 61891, 5},
			true, kernelWork{25995, 334, 108372, 2084, 2729, 12745, 12739, 6}},
		{"git/run_first1", 7, kernelWork{115, 0, 1170, 46, 14, 13, 6, 7},
			false, kernelWork{193, 4, 1390, 125, 14, 13, 6, 7}},
		{"patch/skip_p_marker", 7, kernelWork{146, 1, 490, 9, 12, 42, 40, 2},
			false, kernelWork{}},
	}
	loops := map[string]loopdb.Loop{}
	for _, l := range loopdb.Corpus() {
		loops[l.Name] = l
	}
	for _, g := range golden {
		l, ok := loops[g.name]
		if !ok {
			t.Fatalf("%s: not in the corpus", g.name)
		}
		f, err := l.Lower()
		if err != nil {
			t.Fatal(err)
		}

		m := obs.NewMetrics()
		v := VanillaWith(f, 6, 0, Config{QCache: true, Ctx: obs.NewContext(context.Background(), nil, m)})
		if v.TimedOut || v.Tests != g.tests {
			t.Errorf("%s: vanilla n=6 made %d tests (timed out %v), want %d", g.name, v.Tests, v.TimedOut, g.tests)
		}
		if got := readKernelWork(m); got != g.vanilla {
			t.Errorf("%s: vanilla n=6 work %+v, want %+v", g.name, got, g.vanilla)
		}

		m = obs.NewMetrics()
		b := engine.NewBudget(obs.NewContext(context.Background(), nil, m), engine.Limits{})
		r := memoryless.VerifyWith(f, memoryless.VerifyOptions{MaxLen: 5, Budget: b})
		if r.Err != nil || r.Memoryless != g.memoryless {
			t.Errorf("%s: memoryless n=5 = %v (err %v), want %v", g.name, r.Memoryless, r.Err, g.memoryless)
		}
		if got := readKernelWork(m); got != g.verify {
			t.Errorf("%s: memoryless n=5 work %+v, want %+v", g.name, got, g.verify)
		}
	}
}
