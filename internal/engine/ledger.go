package engine

import (
	"fmt"
	"strings"

	"stringloops/internal/obs"
)

// Counter names one budget-accounted resource. Every layer charges through
// Budget.Add with one of these, and every consumer of spend — the metrics
// mirror, the wire-form Spend, reconciliation and the -explain rendering —
// walks the same ledger table, so adding a counter is one enum value and one
// table row.
type Counter int

// The budget counters. Only Conflicts, Forks and Nodes are bounded by
// Limits; the rest are accounting only (caches, merging and the rewrite
// layer reduce work, so nothing trips on them), charged here so every
// pipeline sharing a budget reports one coherent spend.
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

	numCounters
)

// counterInfo is one ledger row: the counter's canonical metric name in the
// obs registry, its short label in -explain spend lines, and its field in
// the wire-form Spend.
type counterInfo struct {
	metric string
	label  string
	field  func(*Spend) *int64
}

var ledger = [numCounters]counterInfo{
	Conflicts:        {obs.MSatConflicts, "conflicts", func(s *Spend) *int64 { return &s.Conflicts }},
	Propagations:     {obs.MSatPropagations, "props", func(s *Spend) *int64 { return &s.Propagations }},
	Forks:            {obs.MSymexForks, "forks", func(s *Spend) *int64 { return &s.Forks }},
	Nodes:            {obs.MBVNodes, "nodes", func(s *Spend) *int64 { return &s.Nodes }},
	CacheHits:        {obs.MQCacheHits, "qcache", func(s *Spend) *int64 { return &s.QCacheHits }},
	CacheMisses:      {obs.MQCacheMisses, "qmiss", func(s *Spend) *int64 { return &s.QCacheMisses }},
	DiskHits:         {obs.MDiskHits, "disk", func(s *Spend) *int64 { return &s.DiskHits }},
	DiskMisses:       {obs.MDiskMisses, "dmiss", func(s *Spend) *int64 { return &s.DiskMisses }},
	DiskEvictions:    {obs.MDiskEvictions, "evict", func(s *Spend) *int64 { return &s.DiskEvictions }},
	VNHits:           {obs.MBVVNHits, "vn", func(s *Spend) *int64 { return &s.VNHits }},
	IteFusions:       {obs.MBVIteFusions, "fuse", func(s *Spend) *int64 { return &s.IteFusions }},
	BlastHits:        {obs.MBVBlastHits, "blast", func(s *Spend) *int64 { return &s.BlastHits }},
	SimplifyCalls:    {obs.MBVSimplifyCalls, "simp", func(s *Spend) *int64 { return &s.SimplifyCalls }},
	SimplifyNodesIn:  {obs.MBVSimplifyNodesIn, "simpin", func(s *Spend) *int64 { return &s.SimplifyNodesIn }},
	SimplifyNodesOut: {obs.MBVSimplifyNodesOut, "simpout", func(s *Spend) *int64 { return &s.SimplifyNodesOut }},
	Merges:           {obs.MSymexMerges, "merges", func(s *Spend) *int64 { return &s.Merges }},
	MergeItes:        {obs.MSymexMergeItes, "ites", func(s *Spend) *int64 { return &s.MergeItes }},
}

// Spend is a budget's counters in wire form: what provenance reports per
// attempt and per request, and what reconciliation checks against a metrics
// registry. The JSON keys are part of the service protocol.
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
}

// Add accumulates another spend (one attempt's, one loop's) into s.
func (s *Spend) Add(o Spend) {
	for _, row := range ledger {
		*row.field(s) += *row.field(&o)
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
