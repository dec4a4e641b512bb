package service

import (
	"sync"
	"time"

	"stringloops/internal/core"
	"stringloops/internal/obs"
)

// OverloadPolicy maps server pressure onto the degradation ladder's
// starting rung: the server sheds work per request (skip synthesis, skip
// the solver entirely) before it sheds requests. Two signals feed it —
// the admission queue's load fraction, and the recent completion-latency
// p99 — and the worse of the two wins.
//
// The default thresholds: load ≥ 0.50 of total capacity starts requests
// at the memoryless rung, ≥ 0.75 at covering inputs, ≥ 0.90 at the
// concrete smoke floor. A draining server forces the floor regardless.
type OverloadPolicy struct {
	// MemorylessAt, CoveringAt, SmokeAt are load fractions (occupied
	// admission capacity / total capacity) above which the ladder starts
	// one, two, three rungs down. Zero fields take the defaults
	// (0.50 / 0.75 / 0.90); a field > 1 never triggers on load.
	MemorylessAt float64
	CoveringAt   float64
	SmokeAt      float64
	// TargetP99 degrades one extra level while the recent p99 completion
	// latency exceeds it. Zero disables the latency signal.
	TargetP99 time.Duration
	// Disable turns the policy off: every request starts at RungFull
	// regardless of pressure. The chaos soak uses it so server verdicts
	// stay comparable to offline runs.
	Disable bool
}

func (p OverloadPolicy) withDefaults() OverloadPolicy {
	if p.MemorylessAt == 0 {
		p.MemorylessAt = 0.50
	}
	if p.CoveringAt == 0 {
		p.CoveringAt = 0.75
	}
	if p.SmokeAt == 0 {
		p.SmokeAt = 0.90
	}
	return p
}

// overloadWindow is the number of recent completions the latency p99 is
// computed over. The window is approximate: latencies accumulate into a
// rotating pair of log2 histograms, so the signal covers between
// overloadWindow and twice that many recent requests.
const overloadWindow = 128

// overload is the policy's runtime state. Completion latencies feed a
// rotating pair of obs.Histograms (the "windowed histogram" idiom: cur
// fills to window observations, then becomes prev and a fresh cur starts),
// so the same log2 buckets drive both the degradation signal and the
// Prometheus scrape — the old exact-scan latency ring kept a second,
// scrape-invisible copy of the distribution. The p99 read is an upper
// bound at bucket resolution: within 2× of the exact order statistic,
// which is well inside the policy thresholds' precision.
type overload struct {
	pol    OverloadPolicy
	window int // overloadWindow; package tests use shorter ones

	mu   sync.Mutex
	cur  *obs.Histogram
	prev *obs.Histogram
	curN int
}

func newOverload(pol OverloadPolicy, window int) *overload {
	return &overload{pol: pol.withDefaults(), window: window, cur: &obs.Histogram{}}
}

// observe records one completed request's latency, rotating the window
// when the current histogram has seen window observations.
func (o *overload) observe(d time.Duration) {
	o.mu.Lock()
	o.cur.Observe(int64(d))
	o.curN++
	if o.curN >= o.window {
		o.prev = o.cur
		o.cur = &obs.Histogram{}
		o.curN = 0
	}
	o.mu.Unlock()
}

// p99 is the 99th-percentile latency upper bound over the window (0 when
// no observations yet).
func (o *overload) p99() time.Duration {
	o.mu.Lock()
	cur, prev := o.cur, o.prev
	o.mu.Unlock()
	buckets := cur.Buckets()
	if prev != nil {
		buckets = mergeBucketCounts(buckets, prev.Buckets())
	}
	return time.Duration(obs.QuantileFromBuckets(buckets, 0.99))
}

// mergeBucketCounts adds b into a element-wise, growing as needed.
func mergeBucketCounts(a, b []int64) []int64 {
	if len(b) > len(a) {
		a = append(a, make([]int64, len(b)-len(a))...)
	}
	for i, n := range b {
		a[i] += n
	}
	return a
}

// startRung picks the ladder's starting rung for one request given the
// current load fraction.
func (o *overload) startRung(loadFrac float64) core.Rung {
	if o.pol.Disable {
		return core.RungFull
	}
	level := core.RungFull
	switch {
	case loadFrac >= o.pol.SmokeAt:
		level = core.RungSmoke
	case loadFrac >= o.pol.CoveringAt:
		level = core.RungCovering
	case loadFrac >= o.pol.MemorylessAt:
		level = core.RungMemoryless
	}
	if o.pol.TargetP99 > 0 && o.p99() > o.pol.TargetP99 && level < core.RungSmoke {
		level++
	}
	return level
}
