package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"stringloops/internal/core"
	"stringloops/internal/diskcache"
	"stringloops/internal/engine"
	"stringloops/internal/faultpoint"
	"stringloops/internal/obs"
	"stringloops/internal/supervise"
	"stringloops/internal/symex"
)

// Service-level metric names, alongside the solver-stack names in obs.
const (
	MSvcRequests       = "service.requests"        // POST /summarize seen
	MSvcCompleted      = "service.completed"       // answered with a verdict
	MSvcShedQueueFull  = "service.shed.queue_full" // 429: waiting line full
	MSvcShedRateLimit  = "service.shed.rate_limit" // 429: client over budget
	MSvcShedDraining   = "service.shed.draining"   // 503: drain in progress
	MSvcShedInjected   = "service.shed.injected"   // 503: ServerAdmit fired
	MSvcQueueTimeout   = "service.queue_timeout"   // deadline died in queue
	MSvcMalformed      = "service.malformed"       // 400
	MSvcOversized      = "service.oversized"       // 413
	MSvcUnsummarizable = "service.unsummarizable"  // 422: RungFailed
	MSvcEncodeFailed   = "service.encode_failed"   // 500: encode path
	MSvcPanics         = "service.panics"          // 500: guarded panic
	MSvcCancelled      = "service.cancelled"       // client gone mid-pipeline
	MSvcReconcileDrift = "service.reconcile_drift" // budget↔metrics mismatch
	MSvcLatencyNs      = "service.latency_ns"
	MSvcQueueWaitNs    = "service.queue_wait_ns"
	MSvcTraced         = "service.traced"        // requests with a trace header
	MSvcExplained      = "service.explained"     // requests asking for provenance
	MSvcInFlight       = "service.inflight"      // gauge
	MSvcQueued         = "service.queued"        // gauge
	MSvcStartRung      = "service.start_rung"    // gauge: last policy verdict
	MSvcLoadPermille   = "service.load_permille" // gauge: load fraction ×1000
	MSvcP99Signal      = "service.p99_signal_ns" // gauge: overload window p99
	MSvcDraining       = "service.draining"      // gauge: 1 while draining
	MSvcRungPrefix     = "service.rung."         // counter per reached rung
	MSvcStartPrefix    = "service.start_rung."   // counter per starting rung
)

// Config configures a Server. The zero value serves with sane defaults:
// one slot per CPU, an 8×-deep queue, 30s request timeout, 1 MiB source
// cap, rate limiting off, overload policy at the default thresholds, and an
// in-memory result memo.
type Config struct {
	// MaxInFlight bounds requests running the pipeline concurrently
	// (default: GOMAXPROCS).
	MaxInFlight int
	// QueueDepth bounds requests waiting for a slot beyond MaxInFlight
	// (default: 8×MaxInFlight). Queue-full requests get 429 + Retry-After.
	QueueDepth int
	// MaxSourceBytes caps the request body (default 1 MiB). Larger bodies
	// get 413 before any parsing.
	MaxSourceBytes int64
	// RequestTimeout is each request's total deadline, queue wait
	// included (default 30s).
	RequestTimeout time.Duration
	// GlobalLimits is the server-wide resource envelope; each admitted
	// request runs under GlobalLimits / MaxInFlight (zero fields stay
	// unlimited — the request context still bounds wall time).
	GlobalLimits engine.Limits
	// RatePerSec/Burst configure the per-client token bucket; RatePerSec
	// <= 0 disables rate limiting.
	RatePerSec float64
	Burst      float64
	// Overload is the degradation policy (see OverloadPolicy).
	Overload OverloadPolicy
	// StartRung floors every request's starting rung: the overload policy
	// can only move below it. The chaos soak pins RungMemoryless with the
	// policy disabled so verdicts stay offline-comparable.
	StartRung core.Rung
	// Pipeline configures every request's pipeline, as -merge and
	// -cache-dir do for the CLI drivers; Drain flushes (Closes) its Disk
	// tier. A nil Disk gets a memory-only memo tier
	// (diskcache.MemoryTier), so the server answers a loop it has already
	// summarised from memory for its whole lifetime; a -cache-dir tier's
	// memo store plays that role and persists it. A tier with nil stores
	// (&diskcache.Tier{}) runs every request live.
	Pipeline symex.Config
	// Vocabulary is the default gadget vocabulary of requests naming none.
	Vocabulary string
	// Faults arms the server's own injection sites, ServerAdmit and
	// ServerEncode. It is not forwarded to the pipeline.
	Faults *faultpoint.Registry
	// Tracer/Metrics receive server and pipeline observability. Nil
	// Metrics gets a fresh registry (the server always meters itself);
	// nil Tracer disables tracing.
	Tracer  *obs.Tracer
	Metrics *obs.Metrics
}

// maxAttempts bounds supervised attempts per rung: a server prefers
// degrading to retry-burning.
const maxAttempts = 2

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 8 * c.MaxInFlight
	}
	if c.MaxSourceBytes <= 0 {
		c.MaxSourceBytes = 1 << 20
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.Metrics == nil {
		c.Metrics = obs.NewMetrics()
	}
	if c.StartRung < core.RungFull || c.StartRung > core.RungSmoke {
		c.StartRung = core.RungFull
	}
	if c.Pipeline.Disk == nil {
		c.Pipeline.Disk = diskcache.MemoryTier(c.Pipeline.Faults)
	}
	return c
}

// perRequestLimits carves the global envelope evenly across the slots.
// Zero global fields stay unlimited; non-zero fields never carve below 1.
func (c Config) perRequestLimits() engine.Limits {
	carve := func(v int64) int64 {
		if v == 0 {
			return 0
		}
		if v /= int64(c.MaxInFlight); v < 1 {
			return 1
		}
		return v
	}
	return engine.Limits{
		Conflicts: carve(c.GlobalLimits.Conflicts),
		Forks:     carve(c.GlobalLimits.Forks),
		Nodes:     carve(c.GlobalLimits.Nodes),
	}
}

// Server is the summarization daemon's request machinery: admission,
// rate limiting, overload degradation, per-request budgets, and drain.
// Attach Handler() to any http.Server.
type Server struct {
	cfg    Config
	limits engine.Limits
	adm    *admitter
	rl     *rateLimiter
	ovl    *overload
	m      *obs.Metrics

	mu       sync.Mutex // guards draining flip vs in-flight registration
	draining bool
	wg       sync.WaitGroup
}

// New builds a Server from cfg.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	return &Server{
		cfg:    cfg,
		limits: cfg.perRequestLimits(),
		adm:    newAdmitter(cfg.MaxInFlight, cfg.QueueDepth),
		rl:     newRateLimiter(cfg.RatePerSec, cfg.Burst, 0, time.Now),
		ovl:    newOverload(cfg.Overload, overloadWindow),
		m:      cfg.Metrics,
	}
}

// Handler is the daemon's HTTP surface: POST /summarize, GET /healthz,
// GET /metrics, GET /trace.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/summarize", s.handleSummarize)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/trace", s.handleTrace)
	return mux
}

// Draining reports whether Drain has started.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// enter registers one request against drain. It fails once draining has
// started; on success the caller must call the returned done function.
// The mutex makes the draining check and the WaitGroup add atomic, so
// Drain's Wait can never miss a request it should have counted.
func (s *Server) enter() (func(), bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, false
	}
	s.wg.Add(1)
	return s.wg.Done, true
}

// Drain gracefully stops the server: new requests are refused with 503,
// requests still waiting for a slot run at the concrete smoke floor
// (down-laddered, answered, never dropped), and once the last in-flight
// request finishes the persistent cache tier is flushed. The context
// bounds the wait; on expiry the remaining requests keep their
// connections (the HTTP server's own shutdown handles them) but the
// cache flush still runs.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	s.mu.Unlock()
	if already {
		return nil
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var waitErr error
	select {
	case <-done:
	case <-ctx.Done():
		waitErr = fmt.Errorf("service: drain deadline with %d in flight, %d queued: %w",
			s.adm.inFlight(), s.adm.waiting(), ctx.Err())
	}
	if err := s.cfg.Pipeline.Disk.Close(); err != nil && waitErr == nil {
		waitErr = fmt.Errorf("service: drain cache flush: %w", err)
	}
	return waitErr
}

// rungDecision is one evaluation of the start-rung policy together with
// the inputs that produced it — the overload half of a provenance record.
type rungDecision struct {
	rung     core.Rung
	loadFrac float64
	p99      time.Duration
	draining bool
}

// decideStartRung combines the config floor, the overload policy, and
// drain: drain forces the smoke floor (queued work is answered cheaply),
// the policy moves below the configured floor under pressure. The returned
// decision carries the policy inputs so an explain response can show not
// just the chosen rung but why.
func (s *Server) decideStartRung() rungDecision {
	d := rungDecision{
		loadFrac: s.adm.loadFraction(),
		p99:      s.ovl.p99(),
		draining: s.Draining(),
	}
	if d.draining {
		d.rung = core.RungSmoke
		return d
	}
	d.rung = s.ovl.startRung(d.loadFrac)
	if d.rung < s.cfg.StartRung {
		d.rung = s.cfg.StartRung
	}
	return d
}

// retryAfterSec estimates when retrying is worthwhile: roughly one
// queue's worth of recent p99, clamped to [1, 30] seconds.
func (s *Server) retryAfterSec() int {
	p99 := s.ovl.p99()
	if p99 <= 0 {
		return 1
	}
	est := int(p99/time.Second) + 1
	if est > 30 {
		est = 30
	}
	return est
}

func (s *Server) handleSummarize(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeError(w, http.StatusMethodNotAllowed, "POST only", 0)
		return
	}
	s.m.Counter(MSvcRequests).Inc()
	began := time.Now()

	// Propagated trace context: a malformed or absent header degrades to
	// an untraced request, never a rejection.
	var traceID string
	if h := r.Header.Get(obs.TraceHeader); h != "" {
		if tc, err := obs.ParseTraceParent(h); err == nil {
			traceID = tc.TraceIDString()
			s.m.Counter(MSvcTraced).Inc()
		}
	}

	if s.Draining() {
		s.m.Counter(MSvcShedDraining).Inc()
		s.writeError(w, http.StatusServiceUnavailable, "draining", s.retryAfterSec())
		return
	}
	// The ServerAdmit faultpoint sheds the request with a clean retryable
	// response — the degraded outcome a poisoned admission path would
	// produce — before any pipeline state exists, so it is skip-safe.
	if s.cfg.Faults.Fire(faultpoint.ServerAdmit) {
		s.m.Counter(MSvcShedInjected).Inc()
		s.writeError(w, http.StatusServiceUnavailable, "injected admission fault", 1)
		return
	}
	if ok, wait := s.rl.allow(clientKey(r)); !ok {
		s.m.Counter(MSvcShedRateLimit).Inc()
		sec := int(wait/time.Second) + 1
		s.writeError(w, http.StatusTooManyRequests, "client rate limit exceeded", sec)
		return
	}

	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxSourceBytes)
	var req Request
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.m.Counter(MSvcOversized).Inc()
			s.writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body over %d bytes", s.cfg.MaxSourceBytes), 0)
			return
		}
		s.m.Counter(MSvcMalformed).Inc()
		s.writeError(w, http.StatusBadRequest, "malformed request: "+err.Error(), 0)
		return
	}
	if req.Source == "" {
		s.m.Counter(MSvcMalformed).Inc()
		s.writeError(w, http.StatusBadRequest, "empty source", 0)
		return
	}

	// One deadline covers queue wait and pipeline both; a client
	// disconnect cancels the request context, which unwinds the pipeline
	// mid-solve through the budget it rooted.
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()

	done, ok := s.enter()
	if !ok { // drain began between the check above and here
		s.m.Counter(MSvcShedDraining).Inc()
		s.writeError(w, http.StatusServiceUnavailable, "draining", s.retryAfterSec())
		return
	}
	defer done()

	queueStart := time.Now()
	s.m.Gauge(MSvcQueued).Set(s.adm.waiting() + 1)
	release, err := s.adm.admit(ctx)
	if err != nil {
		if errors.Is(err, ErrQueueFull) {
			s.m.Counter(MSvcShedQueueFull).Inc()
			s.writeError(w, http.StatusTooManyRequests, "queue full", s.retryAfterSec())
			return
		}
		s.m.Counter(MSvcQueueTimeout).Inc()
		s.writeError(w, http.StatusServiceUnavailable, err.Error(), s.retryAfterSec())
		return
	}
	defer release()
	queueWait := time.Now().Sub(queueStart)
	s.m.Histogram(MSvcQueueWaitNs).Observe(int64(queueWait))
	s.m.Gauge(MSvcInFlight).Set(s.adm.inFlight())
	s.m.Gauge(MSvcQueued).Set(s.adm.waiting())

	dec := s.decideStartRung()
	start := dec.rung
	s.m.Gauge(MSvcStartRung).Set(int64(start))
	s.m.Counter(MSvcStartPrefix + start.String()).Inc()

	// The request's spans root under the propagated parent: a traced
	// request gets its own child tracer stamped with the trace id (and,
	// under a deterministic session tracer, a private logical clock — see
	// obs.Tracer.RequestTracer), so the coordinator can join the client's
	// and this server's view of one request by id alone.
	tracer := s.cfg.Tracer
	if traceID != "" {
		tracer = s.cfg.Tracer.RequestTracer(traceID, 0)
	}
	reqSpan := tracer.Start("server/summarize")
	reqSpan.SetAttr("start_rung", start.String())

	// Per-request observability: the pipeline meters into a private
	// registry so its spend reconciles 1:1 against the request's budgets;
	// drift is a server bug and is counted. Its counters are then folded
	// into the server's registry, so /metrics shows the pipeline's work and
	// the ladder's supervise.* and faultpoint.fired.* counters.
	reqMetrics := obs.NewMetrics()
	var out core.Outcome
	err = supervise.Guard(func() error {
		out = core.SummarizeResilient(req.Source, req.Func, core.ResilientOptions{
			Options: core.Options{
				Vocabulary:        firstNonEmpty(req.Vocabulary, s.cfg.Vocabulary),
				MaxProgramSize:    req.MaxProgramSize,
				MaxSetSize:        req.MaxSetSize,
				MaxExampleLength:  req.MaxExampleLength,
				RequireMemoryless: req.RequireMemoryless,
				Timeout:           s.cfg.RequestTimeout,
				Pipeline:          s.cfg.Pipeline,
			},
			Ctx:         ctx,
			StartRung:   start,
			Limits:      s.limits,
			MaxLimits:   s.limits, // the carve is the ceiling: no escalation past it
			MaxAttempts: maxAttempts,
			Tracer:      tracer,
			Metrics:     reqMetrics,
		})
		return nil
	})
	reqCounters := reqMetrics.Snapshot().Counters
	for name, v := range reqCounters {
		s.m.Counter(name).Add(v)
	}
	if err != nil {
		// The ladder guards its own rungs; a panic here means the service
		// plumbing itself blew up. Isolate it to this request.
		reqSpan.SetAttr("panic", err.Error())
		reqSpan.End()
		s.m.Counter(MSvcPanics).Inc()
		s.writeError(w, http.StatusInternalServerError, "internal panic: "+err.Error(), 0)
		return
	}
	// The request's private registry must match the summed spend of its
	// attempts counter for counter — the same identity loopsum -corpus
	// enforces offline. The totals are also what an explain response
	// reports, so a drift-free request's provenance is the budget truth by
	// construction.
	totals := out.Spend()
	reconciled := totals.Reconcile(reqCounters) == nil
	if !reconciled {
		s.m.Counter(MSvcReconcileDrift).Inc()
	}
	reqSpan.SetAttr("rung", out.Rung.String())
	reqSpan.SetInt("attempts", int64(len(out.Attempts)))
	reqSpan.End()

	elapsed := time.Now().Sub(began)
	s.ovl.observe(elapsed)
	s.m.Histogram(MSvcLatencyNs).Observe(int64(elapsed))
	s.m.Gauge(MSvcP99Signal).Set(int64(s.ovl.p99()))

	if ctx.Err() != nil && r.Context().Err() != nil {
		// Client gone: the pipeline was cancelled mid-solve. The write
		// below fails silently; count the cancellation for the books.
		s.m.Counter(MSvcCancelled).Inc()
	}

	if out.Rung == core.RungFailed {
		msg := "summarization failed"
		if out.Err != nil {
			msg = out.Err.Error()
		}
		s.m.Counter(MSvcUnsummarizable).Inc()
		s.m.Counter(MSvcRungPrefix + core.RungFailed.String()).Inc()
		s.writeError(w, http.StatusUnprocessableEntity, msg, 0)
		return
	}

	resp := fromOutcome(out, start)
	resp.ElapsedNs = int64(elapsed)
	resp.QueueWaitNs = int64(queueWait)
	if req.Explain {
		s.m.Counter(MSvcExplained).Inc()
		resp.Provenance = &Provenance{
			TraceID:        traceID,
			StartRung:      start.String(),
			FinalRung:      out.Rung.String(),
			FloorRung:      s.cfg.StartRung.String(),
			PolicyDisabled: s.cfg.Overload.Disable,
			Draining:       dec.draining,
			LoadFraction:   dec.loadFrac,
			P99SignalNs:    int64(dec.p99),
			Attempts:       attemptProvenance(out.Attempts),
			Totals:         totals,
			Reconciled:     reconciled,
		}
	}
	s.m.Counter(MSvcRungPrefix + out.Rung.String()).Inc()
	s.m.Counter(MSvcCompleted).Inc()
	s.writeJSON(w, http.StatusOK, resp)
}

// Health is the typed body of GET /healthz — one struct instead of the
// ad-hoc key/value assembly it replaced, so the JSON surface is a schema
// clients can rely on and the same numbers feed the health gauges the
// Prometheus path scrapes.
type Health struct {
	Status       string  `json:"status"`
	InFlight     int64   `json:"inflight"`
	Queued       int64   `json:"queued"`
	StartRung    string  `json:"start_rung"`
	P99Ns        int64   `json:"p99_ns"`
	LoadFraction float64 `json:"load_fraction"`
	Draining     bool    `json:"draining,omitempty"`
}

// Health snapshots the server's admission state.
func (s *Server) Health() Health {
	dec := s.decideStartRung()
	h := Health{
		Status:       "ok",
		InFlight:     s.adm.inFlight(),
		Queued:       s.adm.waiting(),
		StartRung:    dec.rung.String(),
		P99Ns:        int64(dec.p99),
		LoadFraction: dec.loadFrac,
		Draining:     dec.draining,
	}
	if h.Draining {
		h.Status = "draining"
	}
	return h
}

// syncHealthGauges mirrors the health snapshot into the metrics registry,
// so the JSON and Prometheus views of /metrics expose the same admission
// state a /healthz probe sees.
func (s *Server) syncHealthGauges(h Health) {
	s.m.Gauge(MSvcInFlight).Set(h.InFlight)
	s.m.Gauge(MSvcQueued).Set(h.Queued)
	s.m.Gauge(MSvcLoadPermille).Set(int64(h.LoadFraction * 1000))
	s.m.Gauge(MSvcP99Signal).Set(h.P99Ns)
	var draining int64
	if h.Draining {
		draining = 1
	}
	s.m.Gauge(MSvcDraining).Set(draining)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := s.Health()
	code := http.StatusOK
	if h.Draining {
		code = http.StatusServiceUnavailable
	}
	s.writeJSON(w, code, h)
}

// handleMetrics serves the registry snapshot: JSON by default,
// ?format=prom for Prometheus text exposition. Both views render the same
// obs.Snapshot (plus the runtime health gauges captured at scrape time);
// HEAD answers with headers only.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		s.writeError(w, http.StatusMethodNotAllowed, "GET or HEAD only", 0)
		return
	}
	s.syncHealthGauges(s.Health())
	obs.CaptureRuntime(s.m)
	snap := s.m.Snapshot()
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		if r.Method == http.MethodHead {
			w.Header().Set("Content-Type", "application/json")
			return
		}
		s.writeJSON(w, http.StatusOK, snap)
	case "prom", "prometheus":
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if r.Method == http.MethodHead {
			return
		}
		if err := snap.WritePrometheus(w); err != nil {
			s.m.Counter(MSvcEncodeFailed).Inc()
		}
	default:
		s.writeError(w, http.StatusBadRequest, "unknown format "+strconv.Quote(format)+" (want json or prom)", 0)
	}
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Tracer == nil {
		s.writeError(w, http.StatusNotFound, "tracing disabled (start the daemon with -trace)", 0)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := s.cfg.Tracer.WriteChromeTrace(w); err != nil {
		// Headers are gone; nothing to do but count it.
		s.m.Counter(MSvcEncodeFailed).Inc()
	}
}

// writeJSON encodes v, consulting the ServerEncode faultpoint first: a
// firing simulates a response-encoding failure after the pipeline work
// completed (and was cached where applicable), so a client retry is cheap.
func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	if s.cfg.Faults.Fire(faultpoint.ServerEncode) {
		s.m.Counter(MSvcEncodeFailed).Inc()
		writeRawError(w, http.StatusInternalServerError, "injected encode fault", 1)
		return
	}
	body, err := json.Marshal(v)
	if err != nil {
		s.m.Counter(MSvcEncodeFailed).Inc()
		writeRawError(w, http.StatusInternalServerError, "response encoding failed: "+err.Error(), 0)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(body, '\n'))
}

func (s *Server) writeError(w http.ResponseWriter, code int, msg string, retryAfterSec int) {
	writeRawError(w, code, msg, retryAfterSec)
}

func writeRawError(w http.ResponseWriter, code int, msg string, retryAfterSec int) {
	body, _ := json.Marshal(ErrorBody{Error: msg, RetryAfterSec: retryAfterSec})
	w.Header().Set("Content-Type", "application/json")
	if retryAfterSec > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSec))
	}
	w.WriteHeader(code)
	w.Write(append(body, '\n'))
}

// clientKey identifies a client for rate limiting: the X-Loopsum-Client
// header when present (trusted deployments), else the remote host.
func clientKey(r *http.Request) string {
	if k := r.Header.Get("X-Loopsum-Client"); k != "" {
		return k
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

func firstNonEmpty(a, b string) string {
	if a != "" {
		return a
	}
	return b
}
