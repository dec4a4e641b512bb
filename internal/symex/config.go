package symex

import (
	"stringloops/internal/bv"
	"stringloops/internal/diskcache"
	"stringloops/internal/engine"
	"stringloops/internal/faultpoint"
	"stringloops/internal/qcache"
)

// Config is the pipeline's solver-stack settings, declared once. The §3.3
// memorylessness check, Algorithm 2's CEGIS, the resilient ladder, the
// §4.3 symbolic-testing harness and the daemon each hold one Config value
// and build their stacks with NewEngine. The zero value is the plain stack:
// no merging, no fault injection, no persistent tier.
type Config struct {
	// Merge enables state merging: states arriving at join points
	// (cir.Program.Joins — branch reconvergence, loop headers, loop exits)
	// are parked and folded pairwise when compatible, so a loop over n
	// symbolic bytes schedules O(n) states instead of 2^n path suffixes
	// (merge.go).
	// Merged loops whose cursors diverge symbolically rely on
	// CheckFeasibility (or MaxSteps) to terminate.
	Merge bool
	// Faults, when non-nil, arms the fault-injection sites of the whole
	// stack under one seeded schedule: BVNodeExhaust in the interner, the
	// sat and qcache sites in the query cache, SymexPanic and SymexForkFail
	// in the engine (SymexPanic panics at Run entry with a
	// faultpoint.InjectedPanic, SymexForkFail aborts the run at a fork with
	// ErrTimeout), and CegisReject in synthesis. Nil disables injection at
	// zero cost. The sat sites live only in the query cache: an Engine whose
	// Cache is nil decides each query with bv.CheckSat, whose solver has no
	// registry, so it never sees SatUnknown or SatConflictStorm.
	Faults *faultpoint.Registry
	// Disk, when non-nil, attaches the persistent cross-process cache tier:
	// its query store backs every query cache NewEngine builds, and its memo
	// store memoizes whole results (memorylessness verdicts, synthesised
	// summaries) by the loop's canonical structural hash. Nil disables the
	// tier at zero cost.
	Disk *diskcache.Tier
}

// NewEngine builds the solver stack for one budget: an interner that
// charges budget and carries Faults, a query cache over it with Faults and
// Disk's query store, and a feasibility-checking Engine over both.
func (c Config) NewEngine(budget *engine.Budget) *Engine {
	in := bv.NewInterner().SetBudget(budget).SetFaults(c.Faults)
	return &Engine{
		Config:           c,
		CheckFeasibility: true,
		In:               in,
		Budget:           budget,
		Cache:            qcache.New(in).SetFaults(c.Faults).SetDisk(c.Disk.QueryStore()),
	}
}
