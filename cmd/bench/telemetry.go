package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"time"

	"stringloops/internal/engine"
	"stringloops/internal/loopdb"
	"stringloops/internal/obs"
	"stringloops/internal/service"
)

// telemetryLane writes BENCH_10.json: it boots the daemon in-process with
// deterministic tracers on both sides, runs the corpus head plain and again
// with explain, scrapes the Prometheus exposition, merges the client and
// server traces, and times the disabled-mode hot-path patterns. With check
// it gates the whole provenance surface: zero drift, reconciled provenance
// whose attempt spends partition the totals, a valid scrape, a valid merged
// trace with a lane per loop, no leaked goroutines, and both hot-path
// overheads within gatePct.
func telemetryLane(a laneArgs) {
	reqsPerPhase := a.pick(24, 8)
	serverTracer, clientTracer := obs.NewDeterministic(), obs.NewDeterministic()
	m := obs.NewMetrics()
	d := startDaemon(service.Config{
		MaxInFlight: runtime.GOMAXPROCS(0),
		QueueDepth:  64,
		Metrics:     m,
		Tracer:      serverTracer,
		Overload:    service.OverloadPolicy{Disable: true},
	}, 8)
	loops := loopdb.Corpus()[:6]
	cl := &service.Client{Base: d.base, HTTP: d.hc, Seed: 1, ClientID: "bench-telemetry", Tracer: clientTracer}

	var requests, completed, explained int64
	reconciled, partitionExact := true, true
	phase := func(explain bool) (nsPerOp int64) {
		start := time.Now()
		for i := 0; i < reqsPerPhase; i++ {
			l := loops[i%len(loops)]
			resp, err := cl.Summarize(context.Background(), service.Request{
				Source: l.Source, Func: l.FuncName, Explain: explain,
			})
			requests++
			if err != nil {
				fatal("telemetry lane request: %v", err)
			}
			completed++
			if !explain {
				if resp.Provenance != nil {
					fatal("telemetry lane: plain request carried provenance")
				}
				continue
			}
			explained++
			p := resp.Provenance
			if p == nil {
				fatal("telemetry lane: explain request returned no provenance")
			}
			if !p.Reconciled {
				reconciled = false
				continue
			}
			var sum engine.Spend
			for _, a := range p.Attempts {
				if a.Spend != nil {
					sum.Add(*a.Spend)
				}
			}
			if sum != p.Totals {
				partitionExact = false
			}
		}
		return int64(time.Since(start)) / int64(reqsPerPhase)
	}
	plainNs := phase(false)
	explainNs := phase(true)

	// Prometheus scrape through the real endpoint, validated like CI does.
	scrapeStart := time.Now()
	resp, err := d.hc.Get(d.base + "/metrics?format=prom")
	if err != nil {
		fatal("telemetry lane scrape: %v", err)
	}
	prom, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	scrapeNs := int64(time.Since(scrapeStart))
	if err != nil {
		fatal("telemetry lane scrape read: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		fatal("telemetry lane scrape: status %d", resp.StatusCode)
	}
	d.stop()

	// Merge the two sides' traces the way tracecheck -merge does.
	var clientBuf, serverBuf bytes.Buffer
	if err := clientTracer.WriteChromeTrace(&clientBuf); err != nil {
		fatal("telemetry lane client trace: %v", err)
	}
	if err := serverTracer.WriteChromeTrace(&serverBuf); err != nil {
		fatal("telemetry lane server trace: %v", err)
	}
	merged, err := obs.MergeChromeTraces(clientBuf.Bytes(), serverBuf.Bytes())
	if err != nil {
		fatal("telemetry lane trace merge: %v", err)
	}
	traceValid := obs.ValidateChromeTrace(merged) == nil
	events, lanes := countMergedTrace(merged)

	// Micro gates, each the median of paired runs of one loop. The budget
	// flush (one budget.Add per 256-iteration segment, the pattern every
	// instrumented hot loop uses) against an empty flush; then one full
	// spend collection per 4096-iteration segment — the work behind
	// provenance and reconciliation, which in reality happens once per
	// request — against the budget flush alone.
	// Collect the daemon phase's garbage first, as testing.B does before a
	// benchmark, so a GC cycle it left running cannot land in one side of a
	// comparison.
	runtime.GC()
	iters := a.pick(fullIters, shortIters)
	budgetFlush := func(b *engine.Budget) func(int64) {
		return func(n int64) { b.Add(engine.Propagations, n) }
	}
	spendCollect := func(b *engine.Budget) func(int64) {
		var fold engine.Spend
		return func(n int64) {
			b.Add(engine.Propagations, n)
			fold.Add(b.Spend())
		}
	}
	newBudget := func() *engine.Budget { return engine.NewBudget(nil, engine.Limits{}) }
	flushPct, flush := overhead(256,
		func() int64 { return hotPath(iters, 256, func(int64) {}) },
		func() int64 { return hotPath(iters, 256, budgetFlush(newBudget())) })
	collectPct, collect := overhead(4096,
		func() int64 { return hotPath(iters, 4096, budgetFlush(newBudget())) },
		func() int64 { return hotPath(iters, 4096, spendCollect(newBudget())) })

	drift, leaks := m.Snapshot().Counters[service.MSvcReconcileDrift], goroutineLeaks()
	promValid := obs.ValidatePrometheus(prom) == nil
	report{Benchmark: "BenchmarkTelemetry", Counts: map[string]any{
		"requests": requests, "completed": completed, "explained": explained,
		"reconcile_drift": drift, "provenance_reconciled": reconciled, "spend_partition_exact": partitionExact,
		"prom_valid": promValid, "prom_series": strings.Count(string(prom), "# TYPE "),
		"merged_trace_valid": traceValid, "merged_trace_events": events, "trace_lanes": lanes,
		"goroutine_leaks": leaks,
	}, Metrics: map[string]any{
		"plain_ns_per_op": plainNs, "explain_ns_per_op": explainNs,
		"ns_ratio_explain_over_plain": ratio(explainNs, plainNs),
		"prom_scrape_ns":              scrapeNs,
		"micro_iters":                 iters,
		"budget_flush":                flush,
		"spend_collect":               collect,
	}}.write(a.out)

	if a.check {
		switch {
		case drift != 0:
			fatal("telemetry check failed: %d requests with budget<->metrics drift", drift)
		case !reconciled:
			fatal("telemetry check failed: explain responses came back unreconciled")
		case !partitionExact:
			fatal("telemetry check failed: per-attempt spends do not partition the totals")
		case !promValid:
			fatal("telemetry check failed: /metrics?format=prom is not valid exposition format")
		case !traceValid || events == 0:
			fatal("telemetry check failed: merged client+server trace invalid or empty")
		case lanes < len(loops):
			fatal("telemetry check failed: %d trace lanes for %d distinct loops", lanes, len(loops))
		case flushPct > gatePct:
			fatal("telemetry check failed: disabled-mode budget-flush overhead %.2f%% > %.1f%%", flushPct, gatePct)
		case collectPct > gatePct:
			fatal("telemetry check failed: disabled-mode spend-collection overhead %.2f%% > %.1f%%", collectPct, gatePct)
		case leaks != 0:
			fatal("telemetry check failed: %d leaked goroutines", leaks)
		}
		fmt.Printf("telemetry check ok: %d requests (%d explained), drift 0, %d merged events on %d lanes, overhead %.2f%% flush, %.2f%% collect\n",
			requests, explained, events, lanes, flushPct, collectPct)
	}
}

// overhead times instrumented against reference in overheadPairs
// back-to-back pairs, alternating which side runs first, and returns the
// median of the paired ratios as an overhead in percent, with the metrics
// entry recording it. Pairing cancels the drift of a shared machine's speed
// between the two sides, and the median drops the pairs a burst of load
// landed in.
func overhead(batch int, reference, instrumented func() int64) (float64, map[string]any) {
	refs, insts, ratios := make([]float64, overheadPairs), make([]float64, overheadPairs), make([]float64, overheadPairs)
	for i := range overheadPairs {
		if i%2 == 0 {
			refs[i] = float64(reference())
			insts[i] = float64(instrumented())
		} else {
			insts[i] = float64(instrumented())
			refs[i] = float64(reference())
		}
		ratios[i] = insts[i] / refs[i]
	}
	pct := 100 * (median(ratios) - 1)
	return pct, map[string]any{"batch": batch, "pairs": overheadPairs,
		"reference_ns": int64(median(refs)), "instrumented_ns": int64(median(insts)), "overhead_pct": pct}
}

// median returns the middle value of xs (odd length), sorting xs in place.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	return xs[len(xs)/2]
}

// hotPath times iters iterations of data-dependent work in batch-sized
// segments with a loop-local stat counter — the shape of the sat propagate
// loop and the symex instruction loop, which keep stats loop-local and
// flush only at segment boundaries — handing each segment's count to flush.
// Both sides of a micro gate run this one loop and differ only in flush, so
// the code layout of the loop cannot favour either side.
func hotPath(iters, batch int, flush func(int64)) int64 {
	var acc int64
	start := time.Now()
	for done := 0; done < iters; done += batch {
		var local int64
		for i := 0; i < batch && done+i < iters; i++ {
			acc += acc>>1 ^ int64(done+i)
			local++
		}
		acc += local
		flush(local)
	}
	sink = acc
	return int64(time.Since(start))
}

// sink defeats dead-code elimination of the measurement loops.
var sink int64

// countMergedTrace returns the merged trace's duration-event count and the
// number of distinct tids carrying them. The merge gives each trace id (one
// per request) its own tid on both sides, and untraced events tid 0.
func countMergedTrace(data []byte) (events, lanes int) {
	var tr struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			TID int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tr); err != nil {
		fatal("telemetry lane: merged trace unreadable: %v", err)
	}
	seen := map[int]bool{}
	for _, ev := range tr.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		events++
		seen[ev.TID] = true
	}
	return events, len(seen)
}
