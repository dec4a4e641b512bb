package engine

import (
	"fmt"
	"strings"
	"unsafe"

	"stringloops/internal/obs"
)

// Counter names one budget-accounted resource. Every layer charges through
// Budget.Add with one of these, and every consumer of spend — the metrics
// mirror, the wire-form Spend, reconciliation and the -explain rendering —
// walks the same ledger table, so adding a counter is one enum value and one
// table row.
type Counter int

// The budget counters: every work counter the solver layers (sat, bv,
// qcache, symex, cegis) and the disk tier keep. Only Conflicts, Forks and
// Nodes are bounded by Limits; the rest are accounting only (caches, merging
// and the rewrite layer reduce work, so nothing trips on them), charged here
// so every pipeline sharing a budget reports one coherent spend. A layer
// charges where it counts, once; hot loops tally locally and charge the
// tally in one batch (per SAT call, per simplifier call, per scheduled symex
// segment, per synthesis).
const (
	Conflicts        Counter = iota // SAT conflicts
	Propagations                    // SAT unit propagations
	Forks                           // symbolic-execution forks
	Nodes                           // interned bit-vector nodes
	CacheHits                       // query-cache hits (internal/qcache)
	CacheMisses                     // query-cache misses
	DiskHits                        // persistent-cache hits (internal/diskcache)
	DiskMisses                      // persistent-cache misses
	DiskEvictions                   // persistent-cache evictions
	VNHits                          // value-numbering memo hits (internal/bv)
	IteFusions                      // ite-aware rewrites: fusions, pull-ups, guard prunes
	BlastHits                       // CNF blast-cache hits
	SimplifyCalls                   // top-level SimplifyBool/SimplifyTerm calls
	SimplifyNodesIn                 // DAG size of memo-missing simplifier inputs
	SimplifyNodesOut                // DAG size of their rewritten outputs
	Merges                          // symbolic-state merges
	MergeItes                       // ite nodes those merges introduced
	Decisions                       // SAT branching decisions
	CacheQueries                    // query-cache CheckSat/Decide calls
	CacheGroups                     // independent slices those queries split into
	CacheRebuilds                   // incremental-solver resets at the var cap
	SymexRuns                       // symbolic-execution runs
	Paths                           // terminal paths those runs emitted
	Steps                           // instructions they executed
	SolverQueries                   // symex feasibility queries sent to the solver
	Skeletons                       // CEGIS program skeletons enumerated
	Candidates                      // CEGIS candidate programs run
	Counterexamples                 // CEGIS counterexamples added
	VerifyQueries                   // CEGIS verification queries
	ArgSolverCalls                  // CEGIS argument-solver calls

	numCounters
)

// counterInfo is one ledger row: the counter's canonical metric name in the
// obs registry, its short label in -explain spend lines, and the offset of
// its field in the wire-form Spend.
type counterInfo struct {
	metric string
	label  string
	off    uintptr
}

// field returns the row's counter in s. The row holds a field offset rather
// than an accessor closure because escape analysis cannot see through a
// function value: a closure would move every Spend it touched to the heap,
// one allocation per Budget.Spend and per Spend.Add.
func (row *counterInfo) field(s *Spend) *int64 {
	return (*int64)(unsafe.Add(unsafe.Pointer(s), row.off))
}

var ledger = [numCounters]counterInfo{
	Conflicts:        {obs.MSatConflicts, "conflicts", unsafe.Offsetof(Spend{}.Conflicts)},
	Propagations:     {obs.MSatPropagations, "props", unsafe.Offsetof(Spend{}.Propagations)},
	Forks:            {obs.MSymexForks, "forks", unsafe.Offsetof(Spend{}.Forks)},
	Nodes:            {obs.MBVNodes, "nodes", unsafe.Offsetof(Spend{}.Nodes)},
	CacheHits:        {obs.MQCacheHits, "qcache", unsafe.Offsetof(Spend{}.QCacheHits)},
	CacheMisses:      {obs.MQCacheMisses, "qmiss", unsafe.Offsetof(Spend{}.QCacheMisses)},
	DiskHits:         {obs.MDiskHits, "disk", unsafe.Offsetof(Spend{}.DiskHits)},
	DiskMisses:       {obs.MDiskMisses, "dmiss", unsafe.Offsetof(Spend{}.DiskMisses)},
	DiskEvictions:    {obs.MDiskEvictions, "evict", unsafe.Offsetof(Spend{}.DiskEvictions)},
	VNHits:           {obs.MBVVNHits, "vn", unsafe.Offsetof(Spend{}.VNHits)},
	IteFusions:       {obs.MBVIteFusions, "fuse", unsafe.Offsetof(Spend{}.IteFusions)},
	BlastHits:        {obs.MBVBlastHits, "blast", unsafe.Offsetof(Spend{}.BlastHits)},
	SimplifyCalls:    {obs.MBVSimplifyCalls, "simp", unsafe.Offsetof(Spend{}.SimplifyCalls)},
	SimplifyNodesIn:  {obs.MBVSimplifyNodesIn, "simpin", unsafe.Offsetof(Spend{}.SimplifyNodesIn)},
	SimplifyNodesOut: {obs.MBVSimplifyNodesOut, "simpout", unsafe.Offsetof(Spend{}.SimplifyNodesOut)},
	Merges:           {obs.MSymexMerges, "merges", unsafe.Offsetof(Spend{}.Merges)},
	MergeItes:        {obs.MSymexMergeItes, "ites", unsafe.Offsetof(Spend{}.MergeItes)},
	Decisions:        {obs.MSatDecisions, "decisions", unsafe.Offsetof(Spend{}.Decisions)},
	CacheQueries:     {obs.MQCacheQueries, "qqueries", unsafe.Offsetof(Spend{}.QCacheQueries)},
	CacheGroups:      {obs.MQCacheGroups, "qgroups", unsafe.Offsetof(Spend{}.QCacheGroups)},
	CacheRebuilds:    {obs.MQCacheRebuilds, "qrebuilds", unsafe.Offsetof(Spend{}.QCacheRebuilds)},
	SymexRuns:        {obs.MSymexRuns, "runs", unsafe.Offsetof(Spend{}.SymexRuns)},
	Paths:            {obs.MSymexPaths, "paths", unsafe.Offsetof(Spend{}.Paths)},
	Steps:            {obs.MSymexSteps, "steps", unsafe.Offsetof(Spend{}.Steps)},
	SolverQueries:    {obs.MSymexQueries, "squeries", unsafe.Offsetof(Spend{}.SolverQueries)},
	Skeletons:        {obs.MCegisSkeletons, "skeletons", unsafe.Offsetof(Spend{}.Skeletons)},
	Candidates:       {obs.MCegisCandidates, "candidates", unsafe.Offsetof(Spend{}.Candidates)},
	Counterexamples:  {obs.MCegisCexs, "cexs", unsafe.Offsetof(Spend{}.Counterexamples)},
	VerifyQueries:    {obs.MCegisVerifies, "verifies", unsafe.Offsetof(Spend{}.VerifyQueries)},
	ArgSolverCalls:   {obs.MCegisArgSolves, "argsolves", unsafe.Offsetof(Spend{}.ArgSolverCalls)},
}

// Spend is a budget's counters in wire form: what provenance reports per
// attempt and per request, and what reconciliation checks against a metrics
// registry. The JSON keys are part of the service protocol; every key is
// omitempty, so a counter added to the ledger leaves the bytes of a response
// that does not spend it unchanged.
type Spend struct {
	Conflicts        int64 `json:"conflicts,omitempty"`
	Propagations     int64 `json:"propagations,omitempty"`
	Forks            int64 `json:"forks,omitempty"`
	Nodes            int64 `json:"nodes,omitempty"`
	QCacheHits       int64 `json:"qcache_hits,omitempty"`
	QCacheMisses     int64 `json:"qcache_misses,omitempty"`
	DiskHits         int64 `json:"disk_hits,omitempty"`
	DiskMisses       int64 `json:"disk_misses,omitempty"`
	DiskEvictions    int64 `json:"disk_evictions,omitempty"`
	VNHits           int64 `json:"vn_hits,omitempty"`
	IteFusions       int64 `json:"ite_fusions,omitempty"`
	BlastHits        int64 `json:"blast_hits,omitempty"`
	SimplifyCalls    int64 `json:"simplify_calls,omitempty"`
	SimplifyNodesIn  int64 `json:"simplify_nodes_in,omitempty"`
	SimplifyNodesOut int64 `json:"simplify_nodes_out,omitempty"`
	Merges           int64 `json:"merges,omitempty"`
	MergeItes        int64 `json:"merge_ites,omitempty"`
	Decisions        int64 `json:"decisions,omitempty"`
	QCacheQueries    int64 `json:"qcache_queries,omitempty"`
	QCacheGroups     int64 `json:"qcache_groups,omitempty"`
	QCacheRebuilds   int64 `json:"qcache_rebuilds,omitempty"`
	SymexRuns        int64 `json:"symex_runs,omitempty"`
	Paths            int64 `json:"paths,omitempty"`
	Steps            int64 `json:"steps,omitempty"`
	SolverQueries    int64 `json:"solver_queries,omitempty"`
	Skeletons        int64 `json:"skeletons,omitempty"`
	Candidates       int64 `json:"candidates,omitempty"`
	Counterexamples  int64 `json:"counterexamples,omitempty"`
	VerifyQueries    int64 `json:"verify_queries,omitempty"`
	ArgSolverCalls   int64 `json:"arg_solver_calls,omitempty"`
}

// Add accumulates another spend (one attempt's, one loop's) into s.
func (s *Spend) Add(o Spend) {
	for c := range ledger {
		*ledger[c].field(s) += *ledger[c].field(&o)
	}
}

// Reconcile checks s counter by counter against a metrics snapshot's
// counter totals (keyed by canonical metric name). Budgets mirror every
// charge into their registry, so any mismatch is an instrumentation bug.
func (s Spend) Reconcile(counters map[string]int64) error {
	for _, row := range ledger {
		if got, want := counters[row.metric], *row.field(&s); got != want {
			return fmt.Errorf("%s: metrics total %d != budget spend %d", row.metric, got, want)
		}
	}
	return nil
}

// String renders the non-zero counters as space-separated label=value
// pairs (empty when nothing was spent), so quiet attempts stay short.
func (s Spend) String() string {
	var parts []string
	for _, row := range ledger {
		if v := *row.field(&s); v != 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", row.label, v))
		}
	}
	return strings.Join(parts, " ")
}
