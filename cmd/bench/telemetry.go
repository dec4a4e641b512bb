package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"time"

	"stringloops/internal/engine"
	"stringloops/internal/leakcheck"
	"stringloops/internal/loopdb"
	"stringloops/internal/obs"
	"stringloops/internal/service"
)

// telemetryReport is the BENCH_10.json schema: the provenance and exposition
// surface measured end to end — plain vs explain request cost, reconcile
// drift, the Prometheus scrape, the merged client+server trace, and the
// gated micro number for the disabled-mode hot-path cost of the spend
// collection behind provenance.
type telemetryReport struct {
	Benchmark string `json:"benchmark"`
	GoVersion string `json:"go_version"`

	Requests  int64 `json:"requests"`
	Completed int64 `json:"completed"`
	Explained int64 `json:"explained"`

	PlainNsPerOp   int64 `json:"plain_ns_per_op"`
	ExplainNsPerOp int64 `json:"explain_ns_per_op"`
	// NsRatioExplainOverPlain is the macro cost of asking for provenance;
	// informational — request wall time at this scale is solver-dominated.
	NsRatioExplainOverPlain float64 `json:"ns_ratio_explain_over_plain"`

	// The correctness half: drift counts requests where the server's metric
	// registry disagreed with the summed budget spend; every explain response
	// must come back reconciled with per-attempt spends partitioning the
	// totals exactly.
	ReconcileDrift       int64 `json:"reconcile_drift"`
	ProvenanceReconciled bool  `json:"provenance_reconciled"`
	SpendPartitionExact  bool  `json:"spend_partition_exact"`

	PromValid    bool  `json:"prom_valid"`
	PromSeries   int   `json:"prom_series"`
	PromScrapeNs int64 `json:"prom_scrape_ns"`

	MergedTraceValid  bool `json:"merged_trace_valid"`
	MergedTraceEvents int  `json:"merged_trace_events"`
	TraceLanes        int  `json:"trace_lanes"`

	// The micro lane times the per-segment spend-collection pattern (reading
	// every budget counter into a totals struct, the work behind provenance
	// and reconciliation) against the bare instrumented loop from BENCH_5.
	// One collection per 4096 hot iterations is still far more frequent than
	// reality — provenance is collected once per request, and a request runs
	// at least tens of thousands of solver iterations.
	MicroIters           int     `json:"micro_iters"`
	MicroBatch           int     `json:"micro_batch"`
	MicroBareNs          int64   `json:"micro_bare_ns"`
	MicroTelemetryNs     int64   `json:"micro_telemetry_ns"`
	DisabledOverheadPct  float64 `json:"disabled_overhead_pct"`
	DisabledOverheadGate float64 `json:"disabled_overhead_gate_pct"`

	GoroutineLeaks int `json:"goroutine_leaks"`
}

// telemetryLane boots the daemon in-process with deterministic tracers on
// both sides, runs the corpus head plain and again with -explain, scrapes
// the Prometheus exposition, merges the client and server traces, and gates
// the whole provenance surface: zero drift, reconciled provenance whose
// attempt spends partition the totals, a valid scrape, a valid merged
// trace, and disabled-mode micro overhead within the PR 5 bar.
func telemetryLane(a laneArgs) {
	reqsPerPhase := 24
	if a.short {
		reqsPerPhase = 8
	}

	serverTracer := obs.NewDeterministic()
	clientTracer := obs.NewDeterministic()
	m := obs.NewMetrics()
	cfg := service.Config{
		MaxInFlight: runtime.GOMAXPROCS(0),
		QueueDepth:  64,
		Metrics:     m,
		Tracer:      serverTracer,
		Overload:    service.OverloadPolicy{Disable: true},
	}
	srv := service.New(cfg)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fatal("telemetry lane listen: %v", err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	httpDone := make(chan error, 1)
	go func() { httpDone <- httpSrv.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}}

	loops := loopdb.Corpus()[:6]
	cl := &service.Client{Base: base, HTTP: hc, Seed: 1, ClientID: "bench-telemetry", Tracer: clientTracer}
	ctx := context.Background()

	rep := telemetryReport{
		Benchmark:            "BenchmarkTelemetry",
		GoVersion:            runtime.Version(),
		DisabledOverheadGate: 2.0,
	}

	phase := func(explain bool) (nsPerOp int64) {
		start := time.Now()
		for i := 0; i < reqsPerPhase; i++ {
			l := loops[i%len(loops)]
			resp, err := cl.Summarize(ctx, service.Request{
				Source: l.Source, Func: l.FuncName, Explain: explain,
			})
			rep.Requests++
			if err != nil {
				fatal("telemetry lane request: %v", err)
			}
			rep.Completed++
			if !explain {
				if resp.Provenance != nil {
					fatal("telemetry lane: plain request carried provenance")
				}
				continue
			}
			rep.Explained++
			p := resp.Provenance
			if p == nil {
				fatal("telemetry lane: explain request returned no provenance")
			}
			if !p.Reconciled {
				rep.ProvenanceReconciled = false
				continue
			}
			var sum engine.Spend
			for _, a := range p.Attempts {
				if a.Spend != nil {
					sum.Add(*a.Spend)
				}
			}
			if sum != p.Totals {
				rep.SpendPartitionExact = false
			}
		}
		return int64(time.Since(start)) / int64(reqsPerPhase)
	}
	rep.ProvenanceReconciled = true
	rep.SpendPartitionExact = true
	rep.PlainNsPerOp = phase(false)
	rep.ExplainNsPerOp = phase(true)
	rep.NsRatioExplainOverPlain = ratio(rep.ExplainNsPerOp, rep.PlainNsPerOp)

	// Prometheus scrape through the real endpoint, validated like CI does.
	scrapeStart := time.Now()
	resp, err := hc.Get(base + "/metrics?format=prom")
	if err != nil {
		fatal("telemetry lane scrape: %v", err)
	}
	prom, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rep.PromScrapeNs = int64(time.Since(scrapeStart))
	if err != nil {
		fatal("telemetry lane scrape read: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		fatal("telemetry lane scrape: status %d", resp.StatusCode)
	}
	rep.PromValid = obs.ValidatePrometheus(prom) == nil
	rep.PromSeries = strings.Count(string(prom), "# TYPE ")

	sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
	httpSrv.Shutdown(sctx)
	scancel()
	<-httpDone
	hc.CloseIdleConnections()

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
	rep.MergedTraceValid = obs.ValidateChromeTrace(merged) == nil
	rep.MergedTraceEvents, rep.TraceLanes = countMergedTrace(merged)

	snap := m.Snapshot()
	rep.ReconcileDrift = snap.Counters[service.MSvcReconcileDrift]

	// Micro gate: the spend-collection pattern against the bare instrumented
	// loop, best-of-3 like the BENCH_5 lane.
	iters := 50_000_000
	if a.short {
		iters = 5_000_000
	}
	const batch = 4096
	rep.MicroIters, rep.MicroBatch = iters, batch
	rep.MicroBareNs = bestOf(3, func() int64 {
		return hotPathBudget(iters, batch, engine.NewBudget(nil, engine.Limits{}))
	})
	rep.MicroTelemetryNs = bestOf(3, func() int64 {
		return hotPathSpendCollect(iters, batch, engine.NewBudget(nil, engine.Limits{}))
	})
	rep.DisabledOverheadPct = 100 * (float64(rep.MicroTelemetryNs)/float64(rep.MicroBareNs) - 1)

	tb := &benchTB{}
	leakcheck.CheckWithin(tb, 10*time.Second)
	rep.GoroutineLeaks = tb.leaks

	writeReport(rep, a.out)

	if a.check {
		if rep.ReconcileDrift != 0 {
			fatal("telemetry check failed: %d requests with budget<->metrics drift", rep.ReconcileDrift)
		}
		if !rep.ProvenanceReconciled {
			fatal("telemetry check failed: explain responses came back unreconciled")
		}
		if !rep.SpendPartitionExact {
			fatal("telemetry check failed: per-attempt spends do not partition the totals")
		}
		if !rep.PromValid {
			fatal("telemetry check failed: /metrics?format=prom is not valid exposition format")
		}
		if !rep.MergedTraceValid || rep.MergedTraceEvents == 0 {
			fatal("telemetry check failed: merged client+server trace invalid or empty")
		}
		if rep.TraceLanes < len(loops) {
			fatal("telemetry check failed: %d trace lanes for %d distinct requests", rep.TraceLanes, rep.Requests)
		}
		if rep.DisabledOverheadPct > rep.DisabledOverheadGate {
			fatal("telemetry check failed: disabled-mode spend-collection overhead %.2f%% > %.1f%%",
				rep.DisabledOverheadPct, rep.DisabledOverheadGate)
		}
		if rep.GoroutineLeaks != 0 {
			fatal("telemetry check failed: %d leaked goroutines", rep.GoroutineLeaks)
		}
		fmt.Printf("telemetry check ok: %d requests (%d explained), drift 0, %d prom series, %d merged events on %d lanes, overhead %.2f%%\n",
			rep.Requests, rep.Explained, rep.PromSeries, rep.MergedTraceEvents, rep.TraceLanes, rep.DisabledOverheadPct)
	}
}

// hotPathSpendCollect is hotPathBudget plus one full spend collection per
// segment — every budget counter read into a totals struct and folded, the
// exact work the server does once per request to build provenance and
// reconcile it. The gate says this stays within the BENCH_5 bar even at a
// per-segment (not per-request) cadence.
func hotPathSpendCollect(iters, batch int, budget *engine.Budget) int64 {
	var acc int64
	var fold engine.Spend
	start := time.Now()
	for done := 0; done < iters; done += batch {
		var local int64
		for i := 0; i < batch && done+i < iters; i++ {
			acc += acc>>1 ^ int64(done+i)
			local++
		}
		acc += local
		budget.Add(engine.Propagations, local)
		fold.Add(budget.Spend())
	}
	sink = acc + fold.Propagations
	return int64(time.Since(start))
}

// countMergedTrace returns the merged trace's duration-event count and the
// number of distinct (pid, tid) lanes carrying them.
func countMergedTrace(data []byte) (events, lanes int) {
	var tr struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			PID int    `json:"pid"`
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
