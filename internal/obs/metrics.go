// Package obs is the unified observability layer of the solver stack: a
// span-based tracer with Chrome trace-event export (trace.go), an atomic
// metrics registry (this file), and a klee-stats-style run-report builder
// (report.go), wired behind shared -trace/-metrics/-report/-pprof flags
// (flags.go).
//
// The design contract, matching the rest of the stack's nil-receiver
// discipline (engine.Budget, faultpoint.Registry): every type is safe and
// near-free on its zero/nil value. A nil *Tracer starts no-op spans, a nil
// *Counter adds nothing, a nil *Metrics hands out nil instruments — so
// instrumented hot paths pay one predicted nil check when observability is
// disabled, and layers thread obs handles without guards. The disabled
// cost is held under 2% by `cmd/bench -lane telemetry -check`, and the
// nil-instrument benchmarks in metrics_test.go measure it per call.
//
// Layers do not pass obs handles explicitly: they ride the already-threaded
// *engine.Budget (Budget.Tracer / Budget.Metrics), which in turn picks them
// up from the context given to engine.NewBudget — so one obs.NewContext at
// the driver propagates through every per-item budget the pipeline derives.
package obs

import (
	"fmt"
	"io"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Canonical metric names, so the layers and the report builder never drift.
// Layers own their prefix: sat, bv, qcache, symex, cegis, supervise,
// faultpoint.
const (
	MSatConflicts    = "sat.conflicts"
	MSatPropagations = "sat.propagations"
	MSatDecisions    = "sat.decisions"
	MBVNodes         = "bv.nodes"
	MQCacheHits      = "qcache.hits"
	MQCacheMisses    = "qcache.misses"
	MQCacheQueries   = "qcache.queries"
	MQCacheGroups    = "qcache.groups"
	MQCacheRebuilds  = "qcache.rebuilds"
	MQCacheMaxGroup  = "qcache.max_group"
	MQCacheSolveNs   = "qcache.solve_ns"
	MSymexForks      = "symex.forks"
	MSymexPaths      = "symex.paths"
	MSymexSteps      = "symex.steps"
	MSymexQueries    = "symex.solver_queries"
	MSymexRuns       = "symex.runs"
	MSymexMerges     = "symex.merges"
	MSymexMergeItes  = "symex.merge_ites"
	MCegisSkeletons  = "cegis.skeletons"
	MCegisCandidates = "cegis.candidates"
	MCegisCexs       = "cegis.counterexamples"
	MCegisVerifies   = "cegis.verify_queries"
	MCegisArgSolves  = "cegis.arg_solver_calls"
	MSupAttempts     = "supervise.attempts"
	MSupRetries      = "supervise.retries"
	MSupPanics       = "supervise.panics"
	MDiskHits        = "diskcache.hits"
	MDiskMisses      = "diskcache.misses"
	MDiskEvictions   = "diskcache.evictions"
	// Value-numbering / rewrite-layer counters (see internal/bv simplify.go,
	// vn.go, blast.go): simplification memo hits, ite-aware rewrites, CNF
	// blast-cache hits, and the simplifier's call/node traffic.
	MBVVNHits           = "bv.vn_hits"
	MBVIteFusions       = "bv.ite_fusions"
	MBVBlastHits        = "bv.blast_hits"
	MBVSimplifyCalls    = "bv.simplify_calls"
	MBVSimplifyNodesIn  = "bv.simplify_nodes_in"
	MBVSimplifyNodesOut = "bv.simplify_nodes_out"
	// Per-rung and per-site counters append their name:
	// supervise.rung.<rung>, faultpoint.fired.<site>.
	MSupRungPrefix = "supervise.rung."
	MFaultPrefix   = "faultpoint.fired."
)

// Counter is a monotone atomic counter. The nil Counter discards adds and
// reads zero, so disabled instrumentation costs one predicted branch.
type Counter struct{ v atomic.Int64 }

// Add charges n to the counter.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc charges 1.
func (c *Counter) Inc() { c.Add(1) }

// Value reads the counter (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic last-value (or max-value) instrument.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// SetMax raises the gauge to v if v is larger (lock-free).
func (g *Gauge) SetMax(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value reads the gauge (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the bucket count of a log-scale histogram: bucket i holds
// observations whose bit length is i (i.e. in [2^(i-1), 2^i)); bucket 0
// holds values <= 0. 64 buckets cover the whole int64 range.
const histBuckets = 65

// Histogram is a lock-free log2-scale histogram for long-tailed
// measurements (solver times, path counts). Observations cost one atomic
// add and a bit-length computation.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Observe records v.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bucketOf(v)].Add(1)
}

func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Quantile returns an upper bound for the q-quantile (q in [0,1]) from the
// log-scale buckets: the top of the bucket holding the q-th observation.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil {
		return 0
	}
	return QuantileFromBuckets(h.Buckets(), q)
}

// Buckets returns a copy of the per-bucket counts, trimmed of trailing
// empty buckets (nil for an empty or nil histogram). Bucket i counts
// observations with bit length i, i.e. values in [2^(i-1), 2^i); bucket 0
// counts values <= 0.
func (h *Histogram) Buckets() []int64 {
	if h == nil {
		return nil
	}
	var out [histBuckets]int64
	top := -1
	for i := range out {
		out[i] = h.buckets[i].Load()
		if out[i] != 0 {
			top = i
		}
	}
	if top < 0 {
		return nil
	}
	return append([]int64(nil), out[:top+1]...)
}

// QuantileFromBuckets computes the same upper-bound quantile as
// Histogram.Quantile from an exported bucket slice — shared by the overload
// policy's windowed latency histogram (which sums two rotating snapshots)
// and by anything replaying a serialized HistSnapshot.
func QuantileFromBuckets(buckets []int64, q float64) int64 {
	var total int64
	for _, n := range buckets {
		total += n
	}
	if total == 0 {
		return 0
	}
	rank := int64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var seen int64
	for i, n := range buckets {
		seen += n
		if seen > rank {
			if i == 0 {
				return 0
			}
			return 1 << uint(i) // upper bound of bucket i: 2^i
		}
	}
	return 1 << 62
}

// HistSnapshot is the exported view of a histogram. Buckets carries the
// log2-scale bucket counts (trailing zeros trimmed) so the Prometheus
// exposition can emit the cumulative le-series and a downstream merge can
// recompute quantiles instead of taking a max over pre-baked ones.
type HistSnapshot struct {
	Count   int64   `json:"count"`
	Sum     int64   `json:"sum"`
	P50     int64   `json:"p50"`
	P90     int64   `json:"p90"`
	P99     int64   `json:"p99"`
	Buckets []int64 `json:"buckets,omitempty"`
}

// Metrics is a named-instrument registry. Instruments are created on first
// use and live for the registry's lifetime; hot paths should resolve an
// instrument once and hold the pointer. The nil *Metrics hands out nil
// instruments, which discard all writes — the zero-cost disabled mode.
type Metrics struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it if needed (nil on a nil
// registry).
func (m *Metrics) Counter(name string) *Counter {
	if m == nil {
		return nil
	}
	m.mu.RLock()
	c := m.counters[name]
	m.mu.RUnlock()
	if c != nil {
		return c
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if c = m.counters[name]; c == nil {
		c = &Counter{}
		m.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if needed.
func (m *Metrics) Gauge(name string) *Gauge {
	if m == nil {
		return nil
	}
	m.mu.RLock()
	g := m.gauges[name]
	m.mu.RUnlock()
	if g != nil {
		return g
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if g = m.gauges[name]; g == nil {
		g = &Gauge{}
		m.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it if needed.
func (m *Metrics) Histogram(name string) *Histogram {
	if m == nil {
		return nil
	}
	m.mu.RLock()
	h := m.hists[name]
	m.mu.RUnlock()
	if h != nil {
		return h
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if h = m.hists[name]; h == nil {
		h = &Histogram{}
		m.hists[name] = h
	}
	return h
}

// Snapshot is a point-in-time copy of a registry's values.
type Snapshot struct {
	Counters map[string]int64        `json:"counters,omitempty"`
	Gauges   map[string]int64        `json:"gauges,omitempty"`
	Hists    map[string]HistSnapshot `json:"histograms,omitempty"`
}

// Snapshot copies every instrument's current value (empty snapshot on nil).
func (m *Metrics) Snapshot() Snapshot {
	s := Snapshot{Counters: map[string]int64{}, Gauges: map[string]int64{}, Hists: map[string]HistSnapshot{}}
	if m == nil {
		return s
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	for name, c := range m.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range m.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range m.hists {
		buckets := h.Buckets()
		s.Hists[name] = HistSnapshot{
			Count: h.Count(), Sum: h.Sum(),
			P50:     QuantileFromBuckets(buckets, 0.50),
			P90:     QuantileFromBuckets(buckets, 0.90),
			P99:     QuantileFromBuckets(buckets, 0.99),
			Buckets: buckets,
		}
	}
	return s
}

// Merge accumulates other into s: counters and histogram sums add, gauges
// take the maximum (the registry gauges are all high-water marks).
func (s *Snapshot) Merge(other Snapshot) {
	for k, v := range other.Counters {
		s.Counters[k] += v
	}
	for k, v := range other.Gauges {
		if v > s.Gauges[k] {
			s.Gauges[k] = v
		}
	}
	for k, v := range other.Hists {
		h := s.Hists[k]
		h.Count += v.Count
		h.Sum += v.Sum
		h.Buckets = mergeBuckets(h.Buckets, v.Buckets)
		var inBuckets int64
		for _, n := range h.Buckets {
			inBuckets += n
		}
		if h.Buckets != nil && inBuckets == h.Count {
			// With every observation accounted for in buckets the merged
			// quantiles are exact (at bucket resolution) rather than a max
			// over inputs. The count check guards against merging with a
			// bucket-less snapshot from an older serialization.
			h.P50 = QuantileFromBuckets(h.Buckets, 0.50)
			h.P90 = QuantileFromBuckets(h.Buckets, 0.90)
			h.P99 = QuantileFromBuckets(h.Buckets, 0.99)
		} else {
			for _, p := range []struct {
				dst *int64
				src int64
			}{{&h.P50, v.P50}, {&h.P90, v.P90}, {&h.P99, v.P99}} {
				if p.src > *p.dst {
					*p.dst = p.src
				}
			}
		}
		s.Hists[k] = h
	}
}

// mergeBuckets adds b into a element-wise, growing as needed.
func mergeBuckets(a, b []int64) []int64 {
	if len(b) > len(a) {
		a = append(a, make([]int64, len(b)-len(a))...)
	}
	for i, n := range b {
		a[i] += n
	}
	return a
}

// Dump writes the registry as a sorted name/value table.
func (m *Metrics) Dump(w io.Writer) {
	m.Snapshot().Dump(w)
}

// Dump writes the snapshot as a sorted name/value table.
func (s Snapshot) Dump(w io.Writer) {
	var names []string
	for k := range s.Counters {
		names = append(names, k)
	}
	for k := range s.Gauges {
		names = append(names, k+" (gauge)")
	}
	sort.Strings(names)
	for _, k := range names {
		if v, ok := s.Counters[k]; ok {
			fmt.Fprintf(w, "%-32s %12d\n", k, v)
			continue
		}
		name := k[:len(k)-len(" (gauge)")]
		fmt.Fprintf(w, "%-32s %12d\n", k, s.Gauges[name])
	}
	names = names[:0]
	for k := range s.Hists {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		h := s.Hists[k]
		fmt.Fprintf(w, "%-32s count=%d sum=%d p50=%d p90=%d p99=%d\n",
			k, h.Count, h.Sum, h.P50, h.P90, h.P99)
	}
}
