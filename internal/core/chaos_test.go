package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"path/filepath"
	"testing"

	"stringloops/internal/diskcache"
	"stringloops/internal/engine"
	"stringloops/internal/faultpoint"
	"stringloops/internal/loopdb"
	"stringloops/internal/obs"
	"stringloops/internal/symex"
)

// chaosSeeds is the seed-sweep width of the chaos soak. The default sweep
// over the 12-program corpus gives 12 × 17 = 204 distinct fault schedules;
// the CI chaos-smoke lane runs it explicitly, `-short` shrinks it for the
// ordinary tier-1 run.
var chaosSeeds = flag.Int("chaos.seeds", 17, "fault schedules per corpus loop in the chaos soak")

// chaosLoops picks one representative loop per corpus program: the soak
// wants breadth across loop shapes (including unsupported and
// non-memoryless ones), not 115 near-duplicates.
func chaosLoops() []loopdb.Loop {
	var out []loopdb.Loop
	seen := map[string]bool{}
	for _, l := range loopdb.Corpus() {
		if seen[l.Program] {
			continue
		}
		seen[l.Program] = true
		out = append(out, l)
	}
	return out
}

// chaosRegistry builds the per-item registry for one (sweep seed, item)
// pair: every site armed, rates chosen so schedules regularly hit several
// sites per run without drowning the pipeline.
func chaosRegistry(seed uint64, item int) *faultpoint.Registry {
	return faultpoint.New(faultpoint.Config{
		Seed: seed ^ faultpointItemSalt(item),
		Rates: map[faultpoint.Site]float64{
			faultpoint.SatUnknown:       0.05,
			faultpoint.SatConflictStorm: 0.05,
			faultpoint.BVNodeExhaust:    0.0002,
			faultpoint.QCacheMiss:       0.25,
			faultpoint.SymexForkFail:    0.05,
			faultpoint.SymexPanic:       0.03,
			faultpoint.CegisReject:      0.10,
			faultpoint.DiskCacheIO:      0.25,
		},
	})
}

// faultpointItemSalt decorrelates per-item schedules within one sweep seed
// (same mixer as the registry so the salt is well spread).
func faultpointItemSalt(item int) uint64 {
	x := uint64(item) + 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e9b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// chaosItems builds the per-seed resilient batch. With a non-empty cacheDir
// every item additionally runs against its own persistent tier under it,
// opened with the item's fault registry so the DiskCacheIO site is armed on
// the tier's warm-start loads and on the close()-time saves. Per-item
// directories keep cache state a pure function of the item's own schedule
// (faultpoint streams are per-site counters, so arming the tier shifts no
// other site's draws), preserving replay determinism across worker counts.
func chaosItems(t *testing.T, seed uint64, loops []loopdb.Loop, cacheDir string) ([]resilientItem, func()) {
	t.Helper()
	items := make([]resilientItem, len(loops))
	var tiers []*diskcache.Tier
	for i, l := range loops {
		// Odd seeds run the state-merging executor, even seeds the
		// enumerating one: both schedules must satisfy the same replay
		// and typed-outcome contracts, with merging exercised under the
		// full fault storm.
		opts := Options{Pipeline: symex.Config{Faults: chaosRegistry(seed, i), Merge: seed%2 == 1}}
		if cacheDir != "" {
			tier, err := diskcache.OpenSized(filepath.Join(cacheDir, fmt.Sprintf("item%02d", i)), 0, opts.Pipeline.Faults)
			if err != nil {
				t.Fatalf("open chaos tier: %v", err)
			}
			opts.Pipeline.Disk = tier
			tiers = append(tiers, tier)
		}
		items[i] = resilientItem{Source: l.Source, Func: l.FuncName, Opts: ResilientOptions{
			Options: opts,
			// Pure resource limits: no wall clock anywhere, so a schedule's
			// outcome is a function of the seed alone, not machine speed.
			Limits:      engine.Limits{Conflicts: 5000, Forks: 20000, Nodes: 500000},
			MaxLimits:   engine.Limits{Conflicts: 20000, Forks: 80000, Nodes: 2000000},
			MaxAttempts: 2,
		}}
	}
	return items, func() {
		for _, tier := range tiers {
			// A DiskCacheIO firing silently skips the save — exactly the
			// degradation under test — so Close errors are real I/O trouble.
			if err := tier.Close(); err != nil {
				t.Errorf("chaos tier close: %v", err)
			}
		}
	}
}

// TestChaosSoak drives the resilient batch path over one loop per corpus
// program under seeded fault storms: every item must come back as a typed
// outcome (no escaped panic — an escape would crash the test binary — and
// no RungFailed, because the smoke floor needs nothing the faults can
// break), and the same seed must reproduce bit-identical outcomes
// regardless of worker count.
func TestChaosSoak(t *testing.T) {
	loops := chaosLoops()
	if len(loops) < 10 {
		t.Fatalf("corpus has %d programs, expected the full 13", len(loops))
	}
	seeds := *chaosSeeds
	if testing.Short() {
		seeds = 2
	}
	schedules := 0
	rungCount := map[Rung]int{}
	var diskFired uint64
	for s := 0; s < seeds; s++ {
		seed := uint64(s)*0x9e3779b9 + 1
		// Separate fresh cache roots per sweep: both start cold, so the
		// parallel and serial runs see identical tier state end to end.
		pItems, pClose := chaosItems(t, seed, loops, t.TempDir())
		qItems, qClose := chaosItems(t, seed, loops, t.TempDir())
		parallel := summarizeAllResilient(pItems, 4)
		serial := summarizeAllResilient(qItems, 1)
		pClose()
		qClose()
		for i := range pItems {
			diskFired += pItems[i].Opts.Pipeline.Faults.Fired(faultpoint.DiskCacheIO)
		}
		for i := range parallel {
			schedules++
			p, q := parallel[i], serial[i]
			rungCount[p.Rung]++

			// Typed outcome: a reached rung always carries its payload.
			switch p.Rung {
			case RungFull:
				if p.Summary == nil {
					t.Errorf("seed %d %s: full rung without summary", seed, loops[i].Name)
				}
			case RungMemoryless:
				if p.Memoryless == nil {
					t.Errorf("seed %d %s: memoryless rung without report", seed, loops[i].Name)
				}
			case RungCovering:
				if p.Covering == nil {
					t.Errorf("seed %d %s: covering rung without inputs", seed, loops[i].Name)
				}
			case RungSmoke:
				if p.Smoke == nil {
					t.Errorf("seed %d %s: smoke rung without result", seed, loops[i].Name)
				}
			default:
				t.Errorf("seed %d %s: rung failed (%v) — the smoke floor must always hold", seed, loops[i].Name, p.Err)
			}
			// Injected panics must surface as recorded attempts, never as
			// process crashes, and errors must stay classified.
			for _, a := range p.Attempts {
				if a.Err == nil {
					continue
				}
				if a.Panicked {
					var pe *PanicError
					if !errors.As(a.Err, &pe) {
						t.Errorf("seed %d %s: panicked attempt without PanicError: %v", seed, loops[i].Name, a.Err)
					}
				}
			}

			// Replay determinism: same seed, different worker count.
			if p.Rung != q.Rung {
				t.Errorf("seed %d %s: rung %v (4 workers) vs %v (serial)", seed, loops[i].Name, p.Rung, q.Rung)
				continue
			}
			if (p.Summary == nil) != (q.Summary == nil) ||
				(p.Summary != nil && p.Summary.Encoded != q.Summary.Encoded) {
				t.Errorf("seed %d %s: summaries differ across worker counts", seed, loops[i].Name)
			}
			if len(p.Attempts) != len(q.Attempts) {
				t.Errorf("seed %d %s: %d attempts vs %d", seed, loops[i].Name, len(p.Attempts), len(q.Attempts))
				continue
			}
			for j := range p.Attempts {
				pa, qa := p.Attempts[j], q.Attempts[j]
				if pa.Rung != qa.Rung || pa.Limits != qa.Limits || pa.Panicked != qa.Panicked {
					t.Errorf("seed %d %s attempt %d: %+v vs %+v", seed, loops[i].Name, j, pa, qa)
				}
				if (pa.Err == nil) != (qa.Err == nil) ||
					(pa.Err != nil && !pa.Panicked && pa.Err.Error() != qa.Err.Error()) {
					t.Errorf("seed %d %s attempt %d: err %v vs %v", seed, loops[i].Name, j, pa.Err, qa.Err)
				}
			}
		}
	}
	t.Logf("chaos soak: %d schedules, rung distribution: full=%d memoryless=%d covering=%d smoke=%d",
		schedules, rungCount[RungFull], rungCount[RungMemoryless], rungCount[RungCovering], rungCount[RungSmoke])
	if !testing.Short() && schedules < 200 {
		t.Errorf("only %d fault schedules exercised, want >= 200", schedules)
	}
	// The sweep must actually degrade somewhere: a soak where every schedule
	// lands on RungFull never exercised the ladder.
	if rungCount[RungFull] == schedules {
		t.Error("no schedule degraded below the full rung — fault rates too low to test anything")
	}
	// Every item draws the DiskCacheIO site at least four times (two
	// warm-start loads, two close-time saves), so at rate 0.25 a soak where
	// it never fired means the tier was not actually armed.
	if diskFired == 0 {
		t.Error("DiskCacheIO never fired — the persistent tier is not in the fault storm")
	}
}

// chaosTracedItems is chaosItems with a fresh deterministic tracer per item,
// so each item's event stream is a pure function of its fault schedule.
func chaosTracedItems(t *testing.T, seed uint64, loops []loopdb.Loop) ([]resilientItem, []*obs.Tracer, func()) {
	items, closeTiers := chaosItems(t, seed, loops, t.TempDir())
	tracers := make([]*obs.Tracer, len(items))
	for i := range items {
		tracers[i] = obs.NewDeterministic()
		items[i].Opts.Tracer = tracers[i]
	}
	return items, tracers, closeTiers
}

// TestChaosTraceReplay extends the soak to the observability layer: under
// the deterministic logical clock, the serialized per-item event stream
// (rung spans, phase spans, attributes, logical timestamps) must be
// bit-identical across worker counts for the same fault schedule.
func TestChaosTraceReplay(t *testing.T) {
	loops := chaosLoops()
	seeds := 3
	if testing.Short() {
		seeds = 1
	}
	for s := 0; s < seeds; s++ {
		seed := uint64(s)*0x9e3779b9 + 1
		pItems, pTracers, pClose := chaosTracedItems(t, seed, loops)
		qItems, qTracers, qClose := chaosTracedItems(t, seed, loops)
		summarizeAllResilient(pItems, 4)
		summarizeAllResilient(qItems, 1)
		pClose()
		qClose()
		for i := range loops {
			pj, err := json.Marshal(pTracers[i].Events())
			if err != nil {
				t.Fatal(err)
			}
			qj, err := json.Marshal(qTracers[i].Events())
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(pj, qj) {
				t.Errorf("seed %d %s: event streams differ across worker counts\n4 workers: %s\nserial:    %s",
					seed, loops[i].Name, pj, qj)
			}
			if len(pTracers[i].Events()) == 0 {
				t.Errorf("seed %d %s: no spans recorded — the ladder is not instrumented", seed, loops[i].Name)
			}
		}
	}
}
