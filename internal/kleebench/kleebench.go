// Package kleebench is the harness for §4.3: comparing symbolic execution of
// a string loop with (str.KLEE) and without (vanilla.KLEE) its summary.
//
// The vanilla configuration runs the loop's IR under the forking symbolic
// executor with per-fork feasibility checks, exactly as KLEE would: on a
// fully symbolic string of length n the loop forks per iteration and per
// disjunct, so the path count — and with it the solver time — grows
// exponentially in n (Figure 3's blow-up).
//
// The str configuration replaces the loop with its synthesised summary: the
// symbolic gadget interpreter turns the summary into one guarded outcome per
// possible result over the bounded string, and a single string-theory solver
// query per outcome generates the same test coverage (one test input per
// behaviour), which is the work KLEE performs when a string solver handles
// the summarised constraint.
//
// Both configurations run their queries through the query-cache chain
// (internal/qcache) by default, mirroring KLEE's own solver stack; Config
// lets the benchmarks switch it off to measure the cache's contribution.
package kleebench

import (
	"context"
	"errors"
	"time"

	"stringloops/internal/bv"
	"stringloops/internal/cir"
	"stringloops/internal/engine"
	"stringloops/internal/qcache"
	"stringloops/internal/sat"
	"stringloops/internal/strsolver"
	"stringloops/internal/symex"
	"stringloops/internal/vocab"
)

// Config selects the solver-chain configuration of a run.
type Config struct {
	// QCache routes all queries through a per-run qcache.Cache (slicing,
	// reuse cache, incremental solver) instead of a fresh solver per query.
	QCache bool
	// Merge enables state merging in the vanilla executor (symex.Engine.Merge):
	// join-point states fold into ite values instead of enumerating suffixes.
	Merge bool
	// Ctx, when non-nil, seeds the run's budget — cancellation and, when it
	// carries obs handles (obs.NewContext), tracing and metrics.
	Ctx context.Context
}

// Measurement is the outcome of one run.
type Measurement struct {
	Mode          string // "vanilla" or "str"
	Length        int    // symbolic string length
	Time          time.Duration
	Paths         int // explored paths (vanilla) or guarded outcomes (str)
	Tests         int // satisfiable behaviours for which a test was produced
	SolverQueries int
	// Conflicts is the total SAT conflicts charged to the run's budget —
	// the hardware-independent cost metric the cache benchmarks compare.
	Conflicts int64
	// VNHits and IteFusions are the value-numbering layer's memo hits and
	// ite rewrites charged to the run's budget.
	VNHits     int64
	IteFusions int64
	// Cache is the query-cache snapshot (zero when the cache was off).
	Cache    qcache.Stats
	TimedOut bool
}

// Vanilla symbolically executes the loop on a symbolic string of length n
// with KLEE-style feasibility checking and the query cache on, producing one
// test per feasible path.
func Vanilla(loop *cir.Func, n int, timeout time.Duration) Measurement {
	return VanillaWith(loop, n, timeout, Config{QCache: true})
}

// VanillaWith is Vanilla under an explicit solver-chain configuration.
func VanillaWith(loop *cir.Func, n int, timeout time.Duration, cfg Config) Measurement {
	start := time.Now()
	budget := engine.NewBudget(cfg.Ctx, engine.Limits{Timeout: timeout})
	bvin := bv.NewInterner().SetBudget(budget)
	var cache *qcache.Cache
	if cfg.QCache {
		cache = qcache.New(bvin)
	}
	buf := symex.SymbolicString(bvin, "s", n)
	eng := &symex.Engine{
		Objects:          [][]*bv.Term{buf},
		CheckFeasibility: true,
		Merge:            cfg.Merge,
		In:               bvin,
		Budget:           budget,
		Cache:            cache,
	}
	paths, err := eng.Run(loop, []symex.Value{symex.PtrValue(0, bvin.Int32(0))}, bv.True)
	m := Measurement{
		Mode:          "vanilla",
		Length:        n,
		Paths:         len(paths),
		SolverQueries: eng.Stats.SolverQueries,
		TimedOut:      errors.Is(err, symex.ErrTimeout),
	}
	// KLEE generates a concrete test input per terminated path.
	for _, p := range paths {
		if budget.Exceeded() {
			m.TimedOut = true
			break
		}
		st := checkSat(cache, budget, p.Cond)
		m.SolverQueries++
		if st == sat.Sat {
			m.Tests++
		}
	}
	m.Time = time.Since(start)
	m.Conflicts = budget.Conflicts()
	m.VNHits = budget.Count(engine.VNHits)
	m.IteFusions = budget.Count(engine.IteFusions)
	if cache != nil {
		m.Cache = cache.Stats()
	}
	return m
}

// Str runs the summarised form: guarded outcomes from the symbolic gadget
// interpreter, one string-solver query per outcome, with the query cache on.
func Str(summary vocab.Program, n int, timeout time.Duration) Measurement {
	return StrWith(summary, n, timeout, Config{QCache: true})
}

// StrWith is Str under an explicit solver-chain configuration.
func StrWith(summary vocab.Program, n int, timeout time.Duration, cfg Config) Measurement {
	start := time.Now()
	budget := engine.NewBudget(cfg.Ctx, engine.Limits{Timeout: timeout})
	bvin := bv.NewInterner().SetBudget(budget)
	var cache *qcache.Cache
	if cfg.QCache {
		cache = qcache.New(bvin)
	}
	s := strsolver.New(bvin, "s", n)
	outcomes := vocab.RunSymbolic(vocab.Symbolize(bvin, summary), s)
	m := Measurement{Mode: "str", Length: n, Paths: len(outcomes)}
	for _, o := range outcomes {
		if budget.Exceeded() {
			m.TimedOut = true
			break
		}
		st := checkSat(cache, budget, o.Guard)
		m.SolverQueries++
		if st == sat.Sat {
			m.Tests++
		}
	}
	m.Time = time.Since(start)
	m.Conflicts = budget.Conflicts()
	m.VNHits = budget.Count(engine.VNHits)
	m.IteFusions = budget.Count(engine.IteFusions)
	if cache != nil {
		m.Cache = cache.Stats()
	}
	return m
}

// checkSat routes one query through the cache when enabled.
func checkSat(cache *qcache.Cache, budget *engine.Budget, f *bv.Bool) sat.Status {
	if cache != nil {
		return cache.Decide(budget, 0, f)
	}
	st, _ := bv.CheckSat(budget, 0, f)
	return st
}

// Speedup returns vanilla time over str time (the Figure 4 metric); timed-out
// vanilla runs yield a lower bound.
func Speedup(vanilla, str Measurement) float64 {
	if str.Time <= 0 {
		return 0
	}
	return float64(vanilla.Time) / float64(str.Time)
}
