package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"sync"
	"testing"
	"time"

	"stringloops/internal/core"
	"stringloops/internal/diskcache"
	"stringloops/internal/leakcheck"
	"stringloops/internal/obs"
	"stringloops/internal/symex"
)

// midSrc has no summary within a small program size and is not
// memoryless, so its full rung fails and the ladder answers at the
// memoryless rung with a counterexample.
const midSrc = `
char *mid(char *s) {
  int n = 0;
  while (s[n]) n++;
  return s + n / 2;
}`

// memoOff is the pipeline config of a server that runs every request live:
// a tier whose stores are nil.
var memoOff = symex.Config{Disk: &diskcache.Tier{}}

// summarize posts one explained request and decodes the 200 response.
func summarize(t *testing.T, hc *http.Client, url string, req Request) *Response {
	t.Helper()
	resp, err := explained(hc, url, req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// explained is summarize for goroutines other than the test's own.
func explained(hc *http.Client, url string, req Request) (*Response, error) {
	req.Explain = true
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	hr, err := hc.Post(url+"/summarize", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer hr.Body.Close()
	raw, err := io.ReadAll(hr.Body)
	if err != nil {
		return nil, err
	}
	if hr.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status = %d, body %s", hr.StatusCode, raw)
	}
	var resp Response
	if err := json.Unmarshal(raw, &resp); err != nil {
		return nil, fmt.Errorf("decoding response %q: %w", raw, err)
	}
	if resp.Provenance == nil {
		return nil, errors.New("explained request returned no provenance")
	}
	return &resp, nil
}

// payload is the response without its timings and provenance: what a
// memo hit must reproduce exactly.
func payload(r *Response) Response {
	p := *r
	p.ElapsedNs, p.QueueWaitNs, p.Provenance = 0, 0, nil
	return p
}

// TestServerMemoRepeatMatchesLive: a repeated request is answered from the
// daemon's memo with the verdict and payload a memo-less server computes,
// and is charged the memo hit. The first request of a refuted loop already
// hits: its memoryless rung reuses the check its failed full rung ran.
func TestServerMemoRepeatMatchesLive(t *testing.T) {
	_, liveTS, liveHC := newTestServer(t, Config{Pipeline: memoOff})
	_, memoTS, memoHC := newTestServer(t, Config{})
	for _, tc := range []struct {
		name string
		req  Request
		rung string
	}{
		{"figure1", Request{Source: figure1Src}, "full"},
		{"mid", Request{Source: midSrc, MaxProgramSize: 3}, "memoryless"},
	} {
		live := summarize(t, liveHC, liveTS.URL, tc.req)
		if live.Rung != tc.rung {
			t.Fatalf("%s: live rung %q, want %q", tc.name, live.Rung, tc.rung)
		}
		if live.Provenance.Totals.DiskHits != 0 {
			t.Errorf("%s: memo-less server charged %d memo hits", tc.name, live.Provenance.Totals.DiskHits)
		}
		first := summarize(t, memoHC, memoTS.URL, tc.req)
		second := summarize(t, memoHC, memoTS.URL, tc.req)
		for i, got := range []*Response{first, second} {
			if got.VerdictKey() != live.VerdictKey() {
				t.Errorf("%s request %d: verdict %s, live %s", tc.name, i+1, got.VerdictKey(), live.VerdictKey())
			}
			if !reflect.DeepEqual(payload(got), payload(live)) {
				t.Errorf("%s request %d: payload %+v, live %+v", tc.name, i+1, payload(got), payload(live))
			}
		}
		if second.Provenance.Totals.DiskHits == 0 {
			t.Errorf("%s: repeated request was not charged a memo hit", tc.name)
		}
		if second.Provenance.Totals.Nodes != 0 {
			t.Errorf("%s: repeated request interned %d nodes; a hit runs no pipeline", tc.name, second.Provenance.Totals.Nodes)
		}
		if tc.rung == "memoryless" && first.Provenance.Totals.DiskHits == 0 {
			t.Errorf("%s: the memoryless rung did not reuse the full rung's check", tc.name)
		}
	}
}

// TestServerMemoConcurrentComputesOnce: identical requests arriving
// together collapse through the memo's singleflight, so the pipeline runs
// for exactly one of them and every response carries its verdict.
func TestServerMemoConcurrentComputesOnce(t *testing.T) {
	const n = 8
	s, ts, hc := newTestServer(t, Config{MaxInFlight: n})
	resps := make([]*Response, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range resps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resps[i], errs[i] = explained(hc, ts.URL, Request{Source: figure1Src})
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	computed := 0
	for i, r := range resps {
		if r.VerdictKey() != resps[0].VerdictKey() {
			t.Errorf("response %d: verdict %s, want %s", i, r.VerdictKey(), resps[0].VerdictKey())
		}
		if r.Provenance.Totals.Nodes > 0 {
			computed++
		} else if r.Provenance.Totals.DiskHits == 0 {
			t.Errorf("response %d ran no pipeline and hit no memo", i)
		}
	}
	if computed != 1 {
		t.Errorf("%d of %d identical requests ran the pipeline, want 1", computed, n)
	}
	if got := s.cfg.Pipeline.Disk.Memo.InFlight(); got != 0 {
		t.Errorf("memo flights = %d after every request returned, want 0", got)
	}
}

// TestServerMemoCancelledStoresNothing: a request cancelled mid-solve
// leaves nothing in the memo, so the next identical request computes live
// (it is still solving when it is cancelled in turn) instead of being
// answered from a frozen budget failure.
func TestServerMemoCancelledStoresNothing(t *testing.T) {
	m := obs.NewMetrics()
	s, ts, hc := newTestServer(t, Config{MaxInFlight: 1, QueueDepth: 4, Metrics: m})
	memo := s.cfg.Pipeline.Disk.Memo
	body, _ := json.Marshal(Request{Source: hardSrc, MaxExampleLength: 14})

	for round := 1; round <= 2; round++ {
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
		waitFor(t, func() bool { return s.adm.inFlight() == 1 })
		time.Sleep(100 * time.Millisecond)
		select {
		case err := <-errc:
			t.Fatalf("round %d answered before its cancellation (err %v): the memo froze a result", round, err)
		default:
		}
		cancel()
		if err := <-errc; err == nil {
			t.Fatalf("round %d: cancelled request returned without error", round)
		}
		waitFor(t, func() bool { return s.adm.inFlight() == 0 })
		waitFor(t, func() bool { return m.Counter(MSvcCancelled).Value() == int64(round) })
		if got := memo.Len(); got != 0 {
			t.Fatalf("round %d: cancelled request stored %d memo entries", round, got)
		}
		if got := memo.InFlight(); got != 0 {
			t.Fatalf("round %d: %d memo flights left behind", round, got)
		}
	}

	dctx, dcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer dcancel()
	if err := s.Drain(dctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	ts.Close()
	hc.CloseIdleConnections()
	leakcheck.Check(t)
}

// TestServerMemoHitsReconcile: requests answered wholly or partly from the
// memo still reconcile their budget spend against their private registry,
// hit counts included.
func TestServerMemoHitsReconcile(t *testing.T) {
	m := obs.NewMetrics()
	_, ts, hc := newTestServer(t, Config{Metrics: m})
	var hits int64
	for round := 0; round < 2; round++ {
		for _, req := range []Request{{Source: figure1Src}, {Source: midSrc, MaxProgramSize: 3}} {
			r := summarize(t, hc, ts.URL, req)
			if !r.Provenance.Reconciled {
				t.Errorf("round %d: provenance not reconciled: %+v", round, r.Provenance.Totals)
			}
			hits += r.Provenance.Totals.DiskHits
		}
	}
	if hits == 0 {
		t.Fatal("no request hit the memo: the test exercised nothing")
	}
	if got := m.Counter(MSvcReconcileDrift).Value(); got != 0 {
		t.Errorf("reconcile drift = %d with memo hits, want 0", got)
	}
}

// TestServerDegradedSaysWhy: a loop whose full rung is refuted is answered
// at the memoryless rung with the full rung's failure in Degraded, live and
// from the memo alike, and its verdict key is the one it had before the
// response carried the reason.
func TestServerDegradedSaysWhy(t *testing.T) {
	const wantKey = `rung=memoryless;mem=false||bounded check failed on "\x81\x01\x02\x00"`
	_, liveTS, liveHC := newTestServer(t, Config{Pipeline: memoOff})
	_, memoTS, memoHC := newTestServer(t, Config{})
	req := Request{Source: midSrc, MaxProgramSize: 3}
	for i, resp := range []*Response{
		summarize(t, liveHC, liveTS.URL, req),
		summarize(t, memoHC, memoTS.URL, req),
		summarize(t, memoHC, memoTS.URL, req),
	} {
		if resp.Rung != "memoryless" || resp.Degraded != core.ErrNotFound.Error() {
			t.Errorf("response %d: rung %q, degraded %q; want memoryless, %q", i, resp.Rung, resp.Degraded, core.ErrNotFound)
		}
		if key := resp.VerdictKey(); key != wantKey {
			t.Errorf("response %d: verdict key %s, want %s", i, key, wantKey)
		}
	}
}
