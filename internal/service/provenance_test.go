package service

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"stringloops/internal/engine"
	"stringloops/internal/loopdb"
	"stringloops/internal/obs"
)

func newExplainServer(t *testing.T) (*Server, *httptest.Server, *obs.Metrics) {
	t.Helper()
	m := obs.NewMetrics()
	s := New(Config{
		MaxInFlight: 2,
		Overload:    OverloadPolicy{Disable: true},
		Metrics:     m,
		Tracer:      obs.NewDeterministic(),
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, m
}

// TestExplainProvenance: an explain request returns a provenance record
// whose totals reconcile 1:1 with the per-attempt budget spend, whose trace
// id echoes the propagated header, and whose policy inputs explain the
// chosen rung. A non-explain request must carry no provenance.
func TestExplainProvenance(t *testing.T) {
	_, ts, m := newExplainServer(t)
	l := loopdb.Corpus()[0]
	cl := &Client{Base: ts.URL, Seed: 7}

	resp, err := cl.Summarize(context.Background(),
		Request{Source: l.Source, Func: l.FuncName, Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	p := resp.Provenance
	if p == nil {
		t.Fatal("explain request returned no provenance")
	}
	if !p.Reconciled {
		t.Error("provenance not reconciled against engine.Budget")
	}
	if got := m.Counter(MSvcReconcileDrift).Value(); got != 0 {
		t.Errorf("reconcile drift = %d, want 0", got)
	}
	wantTrace := obs.DeriveTraceContext(7, 1).TraceIDString()
	if p.TraceID != wantTrace {
		t.Errorf("provenance trace id = %q, want propagated %q", p.TraceID, wantTrace)
	}
	if p.StartRung != "full" || !p.PolicyDisabled {
		t.Errorf("policy half wrong: start=%s disabled=%v", p.StartRung, p.PolicyDisabled)
	}
	if p.FinalRung != resp.Rung {
		t.Errorf("final rung %s != response rung %s", p.FinalRung, resp.Rung)
	}
	if len(p.Attempts) != resp.Attempts {
		t.Errorf("%d attempt records, response says %d attempts", len(p.Attempts), resp.Attempts)
	}

	// Per-phase spend must sum to the totals: the per-attempt records are a
	// partition of the same budget truth, not a separate estimate.
	var sum engine.Spend
	for _, a := range p.Attempts {
		if a.Spend != nil {
			sum.Add(*a.Spend)
		}
	}
	if sum != p.Totals {
		t.Errorf("attempt spend sum %+v != totals %+v", sum, p.Totals)
	}
	if p.Totals.Nodes == 0 {
		t.Error("totals show zero bv nodes for a full summarization — spend not captured")
	}

	// Explain off → no provenance on the wire.
	plain, err := cl.Summarize(context.Background(), Request{Source: l.Source, Func: l.FuncName})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Provenance != nil {
		t.Error("non-explain request carried provenance")
	}
	if plain.VerdictKey() != resp.VerdictKey() {
		t.Error("explain changed the verdict")
	}
}

// TestMetricsEndpointFormats: /metrics serves the same snapshot as JSON
// (default) and Prometheus exposition (?format=prom), with correct
// Content-Type, HEAD support, runtime health gauges, and a 400 on unknown
// formats.
func TestMetricsEndpointFormats(t *testing.T) {
	_, ts, _ := newExplainServer(t)
	l := loopdb.Corpus()[0]
	cl := &Client{Base: ts.URL}
	if _, err := cl.Summarize(context.Background(), Request{Source: l.Source, Func: l.FuncName}); err != nil {
		t.Fatal(err)
	}

	get := func(path string) (*http.Response, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var b strings.Builder
		if _, err := io.Copy(&b, resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp, b.String()
	}

	resp, body := get("/metrics")
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("JSON Content-Type = %q", ct)
	}
	if !strings.Contains(body, `"`+MSvcCompleted+`"`) {
		t.Error("JSON snapshot missing service counters")
	}
	if !strings.Contains(body, `"`+obs.MRuntimeGoroutines+`"`) {
		t.Error("JSON snapshot missing runtime health gauges")
	}

	resp, body = get("/metrics?format=prom")
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("prom Content-Type = %q", ct)
	}
	if err := obs.ValidatePrometheus([]byte(body)); err != nil {
		t.Errorf("exposition output invalid: %v", err)
	}
	for _, want := range []string{
		"loopsum_service_completed_total 1",
		"# TYPE loopsum_service_latency_ns histogram",
		"loopsum_service_latency_ns_bucket{le=\"+Inf\"} 1",
		"loopsum_runtime_goroutines",
		"loopsum_runtime_heap_bytes",
		"loopsum_runtime_gc_pause_total_ns",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition output missing %q", want)
		}
	}

	head, err := http.Head(ts.URL + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	head.Body.Close()
	if head.StatusCode != http.StatusOK || head.ContentLength > 0 {
		t.Errorf("HEAD /metrics: status %d, length %d, want 200 with no body", head.StatusCode, head.ContentLength)
	}

	if resp, _ := get("/metrics?format=xml"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown format: status %d, want 400", resp.StatusCode)
	}
}

// TestHealthzSchema: /healthz is the typed Health struct, not ad-hoc keys.
func TestHealthzSchema(t *testing.T) {
	s, ts, _ := newExplainServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var b strings.Builder
	if _, err := io.Copy(&b, resp.Body); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"status":"ok"`, `"inflight":0`, `"start_rung":"full"`, `"p99_ns":0`, `"load_fraction":0`} {
		if !strings.Contains(b.String(), key) {
			t.Errorf("healthz missing %s in %s", key, b.String())
		}
	}
	h := s.Health()
	if h.Status != "ok" || h.Draining {
		t.Errorf("Health() = %+v, want ok/not draining", h)
	}
}
