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

	"stringloops/internal/cir"
	"stringloops/internal/engine"
	"stringloops/internal/sat"
	"stringloops/internal/strsolver"
	"stringloops/internal/symex"
	"stringloops/internal/vocab"
)

// Config selects the solver-chain configuration of a run.
type Config struct {
	// QCache routes all queries through a per-run qcache.Cache (slicing,
	// reuse cache, incremental solver). Off, the run's cache is nil, which
	// is the direct solver: a fresh solver per query (bv.CheckSat) with no
	// fault registry, so Pipeline.Faults injects no SatUnknown or
	// SatConflictStorm into such a run.
	QCache bool
	// Pipeline configures the run's solver stack (symex.Config). The
	// benchmarks set at most Merge, which folds the vanilla executor's
	// join-point states into ite values instead of enumerating suffixes.
	Pipeline symex.Config
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
	// Spend is everything charged to the run's budget.
	Spend engine.Spend
	// TimedOut marks a run its budget cut short (a timeout or the path
	// limit): Paths and Tests then count a partial set, a lower bound.
	TimedOut bool
	// Err is a failure that is not about the budget, such as an arity
	// mismatch; the counts of such a run mean nothing.
	Err error
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
	eng := cfg.stack(budget)
	paths, err := eng.RunOn(loop, strsolver.New(eng.In, "s", n).Bytes)
	m := Measurement{
		Mode:          "vanilla",
		Length:        n,
		Paths:         len(paths),
		SolverQueries: int(budget.Count(engine.SolverQueries)),
	}
	m.classify(err)
	// KLEE generates a concrete test input per terminated path, and every
	// path is feasible: the executor drops a state its check finds Unsat,
	// and a path's condition does not change after its last check. A check
	// answers Unknown only when the budget is spent, which ends the run with
	// no tests, or under injected faults.
	if budget.Exceeded() {
		m.TimedOut = true
	} else {
		m.Tests = len(paths)
	}
	m.Time = time.Since(start)
	m.Conflicts = budget.Conflicts()
	m.Spend = budget.Spend()
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
	eng := cfg.stack(budget)
	bvin, cache := eng.In, eng.Cache
	s := strsolver.New(bvin, "s", n)
	outcomes := vocab.RunSymbolic(vocab.Symbolize(bvin, summary), s)
	m := Measurement{Mode: "str", Length: n, Paths: len(outcomes)}
	for _, o := range outcomes {
		if budget.Exceeded() {
			m.TimedOut = true
			break
		}
		st := cache.Decide(budget, o.Guard)
		m.SolverQueries++
		if st == sat.Sat {
			m.Tests++
		}
	}
	m.Time = time.Since(start)
	m.Conflicts = budget.Conflicts()
	m.Spend = budget.Spend()
	return m
}

// classify books the error a run ended with: budget exhaustion (a timeout,
// or ErrPathLimit's cap on the path set) leaves a partial run, anything else
// a failed one.
func (m *Measurement) classify(err error) {
	switch {
	case errors.Is(err, engine.ErrBudget):
		m.TimedOut = true
	case err != nil:
		m.Err = err
	}
}

// stack builds the run's solver stack, with a nil (direct-solver) cache
// unless cfg.QCache is set.
func (cfg Config) stack(budget *engine.Budget) *symex.Engine {
	eng := cfg.Pipeline.NewEngine(budget)
	if !cfg.QCache {
		eng.Cache = nil
	}
	return eng
}

// Speedup returns vanilla time over str time (the Figure 4 metric); timed-out
// vanilla runs yield a lower bound.
func Speedup(vanilla, str Measurement) float64 {
	if str.Time <= 0 {
		return 0
	}
	return float64(vanilla.Time) / float64(str.Time)
}
