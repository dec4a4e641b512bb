package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"stringloops/internal/cc"
	"stringloops/internal/core"
	"stringloops/internal/diskcache"
	"stringloops/internal/engine"
	"stringloops/internal/faultpoint"
	"stringloops/internal/leakcheck"
	"stringloops/internal/loopdb"
	"stringloops/internal/obs"
	"stringloops/internal/symex"
)

// figure1Src is the paper's Figure 1 loop — the canonical happy-path
// request.
const figure1Src = `
#define whitespace(c) (((c) == ' ') || ((c) == '\t'))
char* loopFunction(char* line) {
  char *p;
  for (p = line; p && *p && whitespace (*p); p++)
    ;
  return p;
}`

// hardSrc is a four-letter span loop. At MaxExampleLength well past the
// default the symbolic path enumeration is far too large to finish inside
// a test, which makes it the probe for "a client disconnect cancels the
// pipeline mid-solve".
const hardSrc = `
char* loopFunction(char* s) {
  while (*s == 'a' || *s == 'b' || *s == 'c' || *s == 'd') s++;
  return s;
}`

// newTestServer builds a Server plus an httptest front end and a
// dedicated HTTP client whose transport the test owns (so leakcheck can
// hold the whole test to zero leaked goroutines).
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server, *http.Client) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	hc := &http.Client{Transport: &http.Transport{}}
	t.Cleanup(func() {
		ts.Close()
		hc.CloseIdleConnections()
	})
	return s, ts, hc
}

// postJSON posts body to url and returns the status code and raw body.
func postJSON(t *testing.T, hc *http.Client, url string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := hc.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading response: %v", err)
	}
	return resp.StatusCode, raw
}

func mustRequest(t *testing.T, src string) []byte {
	t.Helper()
	body, err := json.Marshal(Request{Source: src})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func decodeResponse(t *testing.T, raw []byte) *Response {
	t.Helper()
	var r Response
	if err := json.Unmarshal(raw, &r); err != nil {
		t.Fatalf("decoding response %q: %v", raw, err)
	}
	return &r
}

// TestServerSummarizeFigure1: the happy path end to end over HTTP — a
// full-rung summary, a healthy start rung, and a request whose budget
// spend reconciles exactly against its private metric registry.
func TestServerSummarizeFigure1(t *testing.T) {
	m := obs.NewMetrics()
	_, ts, hc := newTestServer(t, Config{Metrics: m})

	code, raw := postJSON(t, hc, ts.URL+"/summarize", mustRequest(t, figure1Src))
	if code != http.StatusOK {
		t.Fatalf("status = %d, body %s", code, raw)
	}
	resp := decodeResponse(t, raw)
	if resp.Rung != "full" || resp.StartRung != "full" {
		t.Fatalf("rung = %q start = %q, want full/full", resp.Rung, resp.StartRung)
	}
	if resp.Summary == nil || resp.Summary.Encoded == "" {
		t.Fatalf("full rung without a summary payload: %+v", resp)
	}
	if got := m.Counter(MSvcReconcileDrift).Value(); got != 0 {
		t.Errorf("reconcile drift = %d, want 0", got)
	}
	if got := m.Counter(MSvcCompleted).Value(); got != 1 {
		t.Errorf("completed = %d, want 1", got)
	}
}

// TestServerSmokeWithoutPayloadIs422: a loop with undefined behaviour on
// every smoke input gives the smoke floor no payload, so the ladder fails
// and the daemon answers 422 instead of an empty smoke verdict.
func TestServerSmokeWithoutPayloadIs422(t *testing.T) {
	m := obs.NewMetrics()
	_, ts, hc := newTestServer(t, Config{Metrics: m, StartRung: core.RungSmoke})
	src := `char *f(char *s) { while (*s != '#') s++; return s; }`
	code, raw := postJSON(t, hc, ts.URL+"/summarize", mustRequest(t, src))
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, body %s, want 422", code, raw)
	}
	if got := m.Counter(MSvcUnsummarizable).Value(); got != 1 {
		t.Errorf("unsummarizable = %d, want 1", got)
	}
}

// TestServerMacroBombIs422: a source whose macros double thirty times
// (2^30 tokens in full), and a 100k-token argument in 250 nested macro
// calls (copied at every level, 25M tokens), each end in the preprocessor's typed error. The daemon answers 422,
// not a panic, with a bounded allocation.
func TestServerMacroBombIs422(t *testing.T) {
	var chain strings.Builder
	for i := 1; i <= 30; i++ {
		fmt.Fprintf(&chain, "#define m%d m%d m%d\n", i, i-1, i-1)
	}
	chain.WriteString("char *f(char *s) { int v = m30; while (*s == ' ') s++; return s; }\n")
	nested := "#define id(a) a\nchar *f(char *s) { int v = " + strings.Repeat("id(", 250) +
		strings.Repeat("1+", 50_000) + "1" + strings.Repeat(")", 250) +
		"; while (*s == ' ') s++; return s; }\n"
	for name, src := range map[string]string{"doubling chain": chain.String(), "nested argument": nested} {
		m := obs.NewMetrics()
		_, ts, hc := newTestServer(t, Config{Metrics: m})
		body := mustRequest(t, src)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		code, raw := postJSON(t, hc, ts.URL+"/summarize", body)
		runtime.ReadMemStats(&after)
		// Each bound costs tens of MB; without them either source would
		// allocate many GB.
		if n := after.TotalAlloc - before.TotalAlloc; n > 512<<20 {
			t.Errorf("%s: allocated %d MB", name, n>>20)
		}
		if code != http.StatusUnprocessableEntity {
			t.Fatalf("%s: status = %d, body %.200s, want 422", name, code, raw)
		}
		if !strings.Contains(string(raw), cc.ErrExpansionTooLarge.Error()) {
			t.Errorf("%s: body %.200s does not name the expansion bound", name, raw)
		}
		if got := m.Counter(MSvcPanics).Value(); got != 0 {
			t.Errorf("%s: panics = %d, want 0", name, got)
		}
	}
}

// TestServerDeepNestingIs422: a source nested 100,000 parentheses deep
// ends in the parser's typed error, and the daemon answers 422 instead of
// growing a request goroutine's stack until the process dies.
func TestServerDeepNestingIs422(t *testing.T) {
	m := obs.NewMetrics()
	_, ts, hc := newTestServer(t, Config{Metrics: m})
	src := "char *f(char *s) { int v = " + strings.Repeat("(", 100_000) + "1" + strings.Repeat(")", 100_000) +
		"; while (*s == ' ') s++; return s; }\n"
	code, raw := postJSON(t, hc, ts.URL+"/summarize", mustRequest(t, src))
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, body %.200s, want 422", code, raw)
	}
	if !strings.Contains(string(raw), cc.ErrNestingTooDeep.Error()) {
		t.Errorf("body %.200s does not name the nesting bound", raw)
	}
	if got := m.Counter(MSvcPanics).Value(); got != 0 {
		t.Errorf("panics = %d, want 0", got)
	}
}

// TestServerMixedSmoke50 is the daemon smoke: 50 concurrent requests —
// valid corpus loops, malformed JSON, oversized bodies, empty sources,
// wrong methods, and clients that hang up mid-body — every one answered,
// per-request reconciliation clean across all of them, a clean drain,
// and zero goroutine leaks afterwards.
func TestServerMixedSmoke50(t *testing.T) {
	dir := t.TempDir()
	tier, err := diskcache.OpenSized(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := obs.NewMetrics()
	s, ts, hc := newTestServer(t, Config{
		MaxInFlight:    4,
		QueueDepth:     64,
		MaxSourceBytes: 16 << 10,
		GlobalLimits:   engine.Limits{Conflicts: 20000, Forks: 80000, Nodes: 2000000},
		Pipeline:       symex.Config{Disk: tier},
		Metrics:        m,
	})

	corpus := loopdb.Corpus()[:12]
	type verdict struct {
		kind string
		code int
	}
	results := make(chan verdict, 50)
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			switch {
			case i < 35: // valid corpus loops
				l := corpus[i%len(corpus)]
				body, _ := json.Marshal(Request{Source: l.Source, Func: l.FuncName})
				code, _ := postJSON(t, hc, ts.URL+"/summarize", body)
				results <- verdict{"valid", code}
			case i < 40: // malformed JSON
				code, _ := postJSON(t, hc, ts.URL+"/summarize", []byte("{not json"))
				results <- verdict{"malformed", code}
			case i < 43: // oversized body
				big, _ := json.Marshal(Request{Source: strings.Repeat("x", 32<<10)})
				code, _ := postJSON(t, hc, ts.URL+"/summarize", big)
				results <- verdict{"oversized", code}
			case i < 46: // empty source
				code, _ := postJSON(t, hc, ts.URL+"/summarize", []byte("{}"))
				results <- verdict{"empty", code}
			case i < 48: // wrong method
				resp, err := hc.Get(ts.URL + "/summarize")
				if err != nil {
					t.Errorf("GET: %v", err)
					results <- verdict{"method", 0}
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				results <- verdict{"method", resp.StatusCode}
			default: // slow client hanging up mid-body
				conn, err := net.Dial("tcp", ts.Listener.Addr().String())
				if err != nil {
					t.Errorf("dial: %v", err)
					results <- verdict{"hangup", 0}
					return
				}
				fmt.Fprintf(conn, "POST /summarize HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\nContent-Length: 512\r\n\r\n{\"source\": \"partial")
				time.Sleep(30 * time.Millisecond)
				conn.Close()
				results <- verdict{"hangup", -1}
			}
		}(i)
	}
	wg.Wait()
	close(results)

	want := map[string]int{"valid": http.StatusOK, "malformed": http.StatusBadRequest,
		"oversized": http.StatusRequestEntityTooLarge, "empty": http.StatusBadRequest,
		"method": http.StatusMethodNotAllowed, "hangup": -1}
	answered := 0
	for v := range results {
		answered++
		if v.code != want[v.kind] {
			t.Errorf("%s request answered %d, want %d", v.kind, v.code, want[v.kind])
		}
	}
	if answered != 50 {
		t.Fatalf("answered %d of 50 requests", answered)
	}

	if got := m.Counter(MSvcReconcileDrift).Value(); got != 0 {
		t.Errorf("reconcile drift = %d across the smoke, want 0", got)
	}
	if got := m.Counter(MSvcCompleted).Value(); got != 35 {
		t.Errorf("completed = %d, want 35", got)
	}
	if got := m.Counter(MSvcOversized).Value(); got != 3 {
		t.Errorf("oversized = %d, want 3", got)
	}
	// 5 malformed + 3 empty-source + 2 mid-body hangups all land in the
	// malformed bucket: the decoder sees a truncated body as bad JSON. The
	// server counts a hangup when it reads the closed connection, which may
	// come after the client's goroutine has returned.
	waitFor(t, func() bool { return m.Counter(MSvcMalformed).Value() >= 10 })
	if got := m.Counter(MSvcMalformed).Value(); got != 10 {
		t.Errorf("malformed = %d, want 10", got)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain after smoke: %v", err)
	}
	ts.Close()
	hc.CloseIdleConnections()
	leakcheck.Check(t)
}

// TestServerQueueFull429: with the only slot held and the waiting line
// full, the next request is shed with 429 + Retry-After — and the queued
// request is still answered once capacity frees up.
func TestServerQueueFull429(t *testing.T) {
	m := obs.NewMetrics()
	s, ts, hc := newTestServer(t, Config{MaxInFlight: 1, QueueDepth: 1, Metrics: m,
		StartRung: core.RungSmoke})

	s.adm.slots <- struct{}{} // hold the only slot
	queued := make(chan int, 1)
	go func() {
		code, _ := postJSON(t, hc, ts.URL+"/summarize", mustRequest(t, figure1Src))
		queued <- code
	}()
	waitFor(t, func() bool { return s.adm.waiting() == 1 })

	resp, err := hc.Post(ts.URL+"/summarize", "application/json", bytes.NewReader(mustRequest(t, figure1Src)))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow status = %d, body %s", resp.StatusCode, raw)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without a Retry-After header")
	}
	var eb ErrorBody
	if json.Unmarshal(raw, &eb) != nil || !strings.Contains(eb.Error, "queue full") {
		t.Errorf("429 body = %s, want a queue-full error", raw)
	}
	if got := m.Counter(MSvcShedQueueFull).Value(); got != 1 {
		t.Errorf("queue-full sheds = %d, want 1", got)
	}

	<-s.adm.slots // free the slot: the queued request must complete
	if code := <-queued; code != http.StatusOK {
		t.Fatalf("queued request answered %d, want 200", code)
	}
}

// TestServerQueueWaitBurnsRequestDeadline: a request whose deadline dies
// while waiting for a slot is answered 503 — the queue never holds a
// request past its own budget.
func TestServerQueueWaitBurnsRequestDeadline(t *testing.T) {
	m := obs.NewMetrics()
	s, ts, hc := newTestServer(t, Config{MaxInFlight: 1, QueueDepth: 4,
		RequestTimeout: 150 * time.Millisecond, Metrics: m})

	s.adm.slots <- struct{}{}
	defer func() { <-s.adm.slots }()

	code, raw := postJSON(t, hc, ts.URL+"/summarize", mustRequest(t, figure1Src))
	if code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, body %s", code, raw)
	}
	if !strings.Contains(string(raw), "queue") {
		t.Errorf("body %s does not mention the queue", raw)
	}
	if got := m.Counter(MSvcQueueTimeout).Value(); got != 1 {
		t.Errorf("queue timeouts = %d, want 1", got)
	}
	if got := s.adm.waiting(); got != 0 {
		t.Errorf("waiting = %d after queue timeout, want 0", got)
	}
}

// TestServerOverloadDegradesStartRung: queue pressure moves the starting
// rung down the ladder — the server sheds work per request before it
// sheds requests — and the response reports where it started.
func TestServerOverloadDegradesStartRung(t *testing.T) {
	s, ts, hc := newTestServer(t, Config{MaxInFlight: 2, QueueDepth: 2})

	// Idle: full pipeline.
	code, raw := postJSON(t, hc, ts.URL+"/summarize", mustRequest(t, figure1Src))
	if code != http.StatusOK {
		t.Fatalf("idle status = %d, body %s", code, raw)
	}
	if resp := decodeResponse(t, raw); resp.StartRung != "full" {
		t.Fatalf("idle start rung = %q, want full", resp.StartRung)
	}

	// Hold one slot: the next admitted request sees 2/4 capacity occupied,
	// which is the memoryless threshold.
	s.adm.slots <- struct{}{}
	code, raw = postJSON(t, hc, ts.URL+"/summarize", mustRequest(t, figure1Src))
	<-s.adm.slots
	if code != http.StatusOK {
		t.Fatalf("loaded status = %d, body %s", code, raw)
	}
	resp := decodeResponse(t, raw)
	if resp.StartRung != "memoryless" {
		t.Fatalf("loaded start rung = %q, want memoryless", resp.StartRung)
	}
	if resp.Rung != "memoryless" {
		t.Errorf("loaded rung = %q, want memoryless (ladder started there)", resp.Rung)
	}
	if resp.Memoryless == nil || !resp.Memoryless.Memoryless {
		t.Errorf("memoryless payload = %+v, want a positive verdict for Figure 1", resp.Memoryless)
	}
}

// TestServerStartRungFloor: the configured floor caps how much work any
// request gets even when the server is idle.
func TestServerStartRungFloor(t *testing.T) {
	_, ts, hc := newTestServer(t, Config{StartRung: core.RungCovering})
	code, raw := postJSON(t, hc, ts.URL+"/summarize", mustRequest(t, figure1Src))
	if code != http.StatusOK {
		t.Fatalf("status = %d, body %s", code, raw)
	}
	resp := decodeResponse(t, raw)
	if resp.StartRung != "covering" || resp.Rung != "covering" {
		t.Fatalf("start/rung = %q/%q, want covering/covering", resp.StartRung, resp.Rung)
	}
	if len(resp.Covering) == 0 {
		t.Error("covering rung with no covering inputs")
	}
}

// TestServerRateLimit: a client over its token bucket gets 429 with a
// retry hint; other clients are unaffected.
func TestServerRateLimit(t *testing.T) {
	m := obs.NewMetrics()
	_, ts, hc := newTestServer(t, Config{RatePerSec: 0.001, Burst: 1, Metrics: m,
		StartRung: core.RungSmoke})

	post := func(client string) (int, string) {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/summarize", bytes.NewReader(mustRequest(t, figure1Src)))
		req.Header.Set("X-Loopsum-Client", client)
		resp, err := hc.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, resp.Header.Get("Retry-After")
	}

	if code, _ := post("alice"); code != http.StatusOK {
		t.Fatalf("first request = %d, want 200", code)
	}
	code, retry := post("alice")
	if code != http.StatusTooManyRequests {
		t.Fatalf("second request = %d, want 429", code)
	}
	if retry == "" {
		t.Error("rate-limit 429 without Retry-After")
	}
	if code, _ := post("bob"); code != http.StatusOK {
		t.Fatalf("bob throttled by alice's bucket: %d", code)
	}
	if got := m.Counter(MSvcShedRateLimit).Value(); got != 1 {
		t.Errorf("rate-limit sheds = %d, want 1", got)
	}
}

// TestServerDrainUnderLoad pins the graceful-drain contract
// deterministically: with every slot held and six requests parked in the
// queue, Drain stops new admissions (503 + Retry-After), the queued
// requests are all still answered — down-laddered to the smoke floor,
// never dropped — the cache tier is flushed, and nothing leaks.
func TestServerDrainUnderLoad(t *testing.T) {
	dir := t.TempDir()
	tier, err := diskcache.OpenSized(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := obs.NewMetrics()
	s, ts, hc := newTestServer(t, Config{MaxInFlight: 2, QueueDepth: 16,
		Pipeline: symex.Config{Disk: tier}, Metrics: m})
	tier.Queries.Put(nil, "drain-flush-probe", []byte("v"))

	s.adm.slots <- struct{}{}
	s.adm.slots <- struct{}{}

	const parked = 6
	codes := make(chan int, parked)
	starts := make(chan string, parked)
	for i := 0; i < parked; i++ {
		go func() {
			code, raw := postJSON(t, hc, ts.URL+"/summarize", mustRequest(t, figure1Src))
			codes <- code
			if code == http.StatusOK {
				starts <- decodeResponse(t, raw).StartRung
			} else {
				starts <- ""
			}
		}()
	}
	waitFor(t, func() bool { return s.adm.waiting() == parked })

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()
	waitFor(t, s.Draining)

	// New work is refused while the parked requests are still owed answers.
	resp, err := hc.Post(ts.URL+"/summarize", "application/json", bytes.NewReader(mustRequest(t, figure1Src)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("during drain: status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("drain 503 without Retry-After")
	}

	hresp, err := hc.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, hresp.Body)
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz during drain = %d, want 503", hresp.StatusCode)
	}

	// Free the slots: every parked request must be answered at the smoke
	// floor, and the drain must then complete.
	<-s.adm.slots
	<-s.adm.slots
	for i := 0; i < parked; i++ {
		if code := <-codes; code != http.StatusOK {
			t.Errorf("parked request %d answered %d, want 200", i, code)
		}
		if sr := <-starts; sr != "" && sr != "smoke" {
			t.Errorf("parked request started at %q, want the smoke floor", sr)
		}
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "queries.cache")); err != nil {
		t.Errorf("drain did not flush the cache tier: %v", err)
	}

	ts.Close()
	hc.CloseIdleConnections()
	leakcheck.Check(t)
}

// TestServerCancelMidSolveReleasesEverything is the PR-7 flight-leak
// class at the HTTP layer: a client disconnect mid-solve must unwind the
// pipeline promptly and give back every resource the request held — the
// admission slot, the drain registration, and the cache tier's
// singleflight registrations — leaving the server healthy for the next
// request.
func TestServerCancelMidSolveReleasesEverything(t *testing.T) {
	dir := t.TempDir()
	tier, err := diskcache.OpenSized(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := obs.NewMetrics()
	s, ts, hc := newTestServer(t, Config{MaxInFlight: 1, QueueDepth: 4,
		Pipeline: symex.Config{Disk: tier}, Metrics: m})

	body, _ := json.Marshal(Request{Source: hardSrc, MaxExampleLength: 14})
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/summarize", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")

	errc := make(chan error, 1)
	go func() {
		resp, err := hc.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		errc <- err
	}()

	// Wait until the request holds the slot (it is mid-solve), then hang up.
	waitFor(t, func() bool { return s.adm.inFlight() == 1 })
	time.Sleep(100 * time.Millisecond) // let it get properly stuck in symex
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("cancelled request returned without error")
	}

	// The pipeline must unwind promptly and release everything.
	waitFor(t, func() bool { return s.adm.inFlight() == 0 })
	waitFor(t, func() bool { return m.Counter(MSvcCancelled).Value() == 1 })
	waitFor(t, func() bool { return tier.Queries.InFlight() == 0 && tier.Memo.InFlight() == 0 })

	// The server is healthy: the next request gets the slot and completes.
	code, raw := postJSON(t, hc, ts.URL+"/summarize", mustRequest(t, figure1Src))
	if code != http.StatusOK {
		t.Fatalf("request after cancellation answered %d, body %s", code, raw)
	}

	dctx, dcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer dcancel()
	if err := s.Drain(dctx); err != nil {
		t.Fatalf("drain after cancellation: %v", err)
	}
	ts.Close()
	hc.CloseIdleConnections()
	leakcheck.Check(t)
}

// TestServerInjectedFaults: the ServerAdmit site sheds with a clean
// retryable 503 before any pipeline state exists; the ServerEncode site
// fails only the response encoding, with Retry-After 1 because the
// pipeline work is done and cached.
func TestServerInjectedFaults(t *testing.T) {
	admitReg := faultpoint.New(faultpoint.Config{Seed: 1,
		Rates: map[faultpoint.Site]float64{faultpoint.ServerAdmit: 1}})
	m := obs.NewMetrics()
	_, ts, hc := newTestServer(t, Config{Faults: admitReg, Metrics: m})
	code, raw := postJSON(t, hc, ts.URL+"/summarize", mustRequest(t, figure1Src))
	if code != http.StatusServiceUnavailable || !strings.Contains(string(raw), "injected admission fault") {
		t.Fatalf("armed ServerAdmit: status %d body %s", code, raw)
	}
	if got := m.Counter(MSvcShedInjected).Value(); got != 1 {
		t.Errorf("injected sheds = %d, want 1", got)
	}

	encReg := faultpoint.New(faultpoint.Config{Seed: 1,
		Rates: map[faultpoint.Site]float64{faultpoint.ServerEncode: 1}})
	m2 := obs.NewMetrics()
	_, ts2, hc2 := newTestServer(t, Config{Faults: encReg, Metrics: m2,
		StartRung: core.RungSmoke})
	resp, err := hc2.Post(ts2.URL+"/summarize", "application/json", bytes.NewReader(mustRequest(t, figure1Src)))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(raw), "injected encode fault") {
		t.Fatalf("armed ServerEncode: status %d body %s", resp.StatusCode, raw)
	}
	if resp.Header.Get("Retry-After") != "1" {
		t.Errorf("encode-fault Retry-After = %q, want 1 (work is cached, retry is cheap)", resp.Header.Get("Retry-After"))
	}
	if got := m2.Counter(MSvcEncodeFailed).Value(); got != 1 {
		t.Errorf("encode failures = %d, want 1", got)
	}
}

// TestServerMetricsShowLadderCounters: the ladder meters each request into
// a private registry, and the server's registry must show what it counted
// there: the supervisor's attempts and the pipeline faults that fired, over
// two requests that share the server's fault registry.
func TestServerMetricsShowLadderCounters(t *testing.T) {
	reg := faultpoint.New(faultpoint.Config{Seed: 1,
		Rates: map[faultpoint.Site]float64{faultpoint.QCacheMiss: 1}})
	m := obs.NewMetrics()
	_, ts, hc := newTestServer(t, Config{Metrics: m,
		Pipeline: symex.Config{Faults: reg, Disk: &diskcache.Tier{}}})
	for i := 0; i < 2; i++ {
		code, raw := postJSON(t, hc, ts.URL+"/summarize", mustRequest(t, figure1Src))
		if code != http.StatusOK {
			t.Fatalf("request %d: status = %d, body %s", i, code, raw)
		}
	}
	snap := m.Snapshot()
	if got := snap.Counters[obs.MSupAttempts]; got < 2 {
		t.Errorf("%s = %d in the server's metrics, want >= 2", obs.MSupAttempts, got)
	}
	fired := obs.MFaultPrefix + faultpoint.QCacheMiss.String()
	if want := int64(reg.Fired(faultpoint.QCacheMiss)); want == 0 || snap.Counters[fired] != want {
		t.Errorf("%s = %d in the server's metrics, the registry fired %d", fired, snap.Counters[fired], want)
	}
}

// TestServerEndpoints: healthz reports live admission state, metrics
// exposes the service counters, and trace is 404 without a tracer but
// serves Chrome-trace JSON with one.
func TestServerEndpoints(t *testing.T) {
	tracer := obs.New()
	m := obs.NewMetrics()
	_, ts, hc := newTestServer(t, Config{Tracer: tracer, Metrics: m,
		StartRung: core.RungSmoke})

	postJSON(t, hc, ts.URL+"/summarize", mustRequest(t, figure1Src))

	resp, err := hc.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatalf("healthz decode: %v", err)
	}
	resp.Body.Close()
	if health["status"] != "ok" {
		t.Errorf("healthz status = %v, want ok", health["status"])
	}

	resp, err = hc.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mraw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Contains(mraw, []byte(MSvcRequests)) {
		t.Errorf("metrics body lacks %q: %s", MSvcRequests, mraw)
	}

	resp, err = hc.Get(ts.URL + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	traw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace with tracer = %d", resp.StatusCode)
	}
	var events any
	if err := json.Unmarshal(traw, &events); err != nil {
		t.Errorf("trace body is not JSON: %v", err)
	}

	_, ts2, hc2 := newTestServer(t, Config{})
	resp, err = hc2.Get(ts2.URL + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("trace without tracer = %d, want 404", resp.StatusCode)
	}
}

// TestServerSustains200Concurrent: 200 concurrent clients against 8
// slots — every request admitted, answered, and accounted for, then a
// clean drain with zero goroutine leaks.
func TestServerSustains200Concurrent(t *testing.T) {
	m := obs.NewMetrics()
	s, ts, hc := newTestServer(t, Config{MaxInFlight: 8, QueueDepth: 256,
		StartRung: core.RungSmoke, Metrics: m})

	const n = 200
	codes := make(chan int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, _ := postJSON(t, hc, ts.URL+"/summarize", mustRequest(t, figure1Src))
			codes <- code
		}()
	}
	wg.Wait()
	close(codes)
	for code := range codes {
		if code != http.StatusOK {
			t.Errorf("request answered %d, want 200", code)
		}
	}
	if got := m.Counter(MSvcCompleted).Value(); got != n {
		t.Errorf("completed = %d, want %d", got, n)
	}
	if got := m.Counter(MSvcReconcileDrift).Value(); got != 0 {
		t.Errorf("reconcile drift = %d, want 0", got)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	ts.Close()
	hc.CloseIdleConnections()
	leakcheck.Check(t)
}
