package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"stringloops/internal/core"
	"stringloops/internal/leakcheck"
	"stringloops/internal/loopdb"
	"stringloops/internal/obs"
	"stringloops/internal/symex"
)

// TestMergedTraceReplay is the cross-process analogue of core's
// TestChaosTraceReplay: deterministic tracers on both sides of the HTTP
// boundary, a propagated trace id per request, and the merged client+server
// Chrome trace must come out byte-identical at any server worker count.
// Per-request logical clocks (obs.Tracer.RequestTracer) make each request's
// event stream a pure function of its code path, and the merge canonicalizes
// lane assignment and ordering — so scheduling may interleave requests
// however it likes without perturbing a single byte of the merged timeline.
// The server runs without a memo: with one, whether a request hits depends
// on arrival order (TestMergedTraceReplayMemo covers that server).
func TestMergedTraceReplay(t *testing.T) {
	var want []byte
	for _, workers := range []int{1, 8} {
		merged, _ := mergedTraceRun(t, workers, memoOff)
		if want == nil {
			want = merged
		} else if !bytes.Equal(want, merged) {
			t.Errorf("merged trace differs across worker counts (%d bytes vs %d bytes)",
				len(want), len(merged))
		}
	}
}

// TestMergedTraceReplayMemo is TestMergedTraceReplay on a server with its
// default memo. Which requests hit depends on arrival order, so the bytes
// may differ across worker counts; the verdicts must equal the memo-less
// server's, and the merged trace must stay valid with one lane per request.
func TestMergedTraceReplayMemo(t *testing.T) {
	for _, workers := range []int{1, 8} {
		_, live := mergedTraceRun(t, workers, memoOff)
		_, memo := mergedTraceRun(t, workers, symex.Config{})
		for name, v := range live {
			if memo[name] != v {
				t.Errorf("workers=%d %s: verdict %s with the memo, %s without", workers, name, memo[name], v)
			}
		}
	}
}

// mergedTraceRun serves the corpus head to three traced clients under
// deterministic tracers on both sides, and returns the validated merged
// trace and each loop's verdict key (which every client must agree on).
func mergedTraceRun(t *testing.T, workers int, pipe symex.Config) ([]byte, map[string]string) {
	t.Helper()
	loops := loopdb.Corpus()[:4]
	serverTracer := obs.NewDeterministic()
	clientTracer := obs.NewDeterministic()

	s := New(Config{
		MaxInFlight: workers,
		QueueDepth:  64,
		StartRung:   core.RungMemoryless,
		Overload:    OverloadPolicy{Disable: true},
		Pipeline:    pipe,
		Tracer:      serverTracer,
		Metrics:     obs.NewMetrics(),
	})
	ts := httptest.NewServer(s.Handler())
	hc := &http.Client{Transport: &http.Transport{}}

	const clients = 3
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		verdicts = map[string]string{}
	)
	errs := make(chan error, clients*len(loops))
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := &Client{
				Base:     ts.URL,
				HTTP:     hc,
				Seed:     uint64(c + 1),
				ClientID: fmt.Sprintf("trace-%d", c),
				Tracer:   clientTracer,
			}
			for _, l := range loops {
				resp, err := cl.Summarize(context.Background(),
					Request{Source: l.Source, Func: l.FuncName})
				if err != nil {
					errs <- fmt.Errorf("client %d %s: %w", c, l.Name, err)
					continue
				}
				mu.Lock()
				if v, seen := verdicts[l.Name]; seen && v != resp.VerdictKey() {
					errs <- fmt.Errorf("client %d %s: verdict %s, another client got %s", c, l.Name, resp.VerdictKey(), v)
				}
				verdicts[l.Name] = resp.VerdictKey()
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	var clientTrace, serverTrace bytes.Buffer
	if err := clientTracer.WriteChromeTrace(&clientTrace); err != nil {
		t.Fatal(err)
	}
	if err := serverTracer.WriteChromeTrace(&serverTrace); err != nil {
		t.Fatal(err)
	}
	merged, err := obs.MergeChromeTraces(clientTrace.Bytes(), serverTrace.Bytes())
	if err != nil {
		t.Fatalf("workers=%d: merge: %v", workers, err)
	}
	if err := obs.ValidateChromeTrace(merged); err != nil {
		t.Fatalf("workers=%d: merged trace invalid: %v", workers, err)
	}
	assertBothSides(t, merged, clients*len(loops))

	ts.Close()
	hc.CloseIdleConnections()
	leakcheck.Check(t)
	return merged, verdicts
}

// assertBothSides checks the merged trace actually joined the two
// processes: duration events on both pid 1 (client) and pid 2 (server),
// and one lane per expected request.
func assertBothSides(t *testing.T, merged []byte, requests int) {
	t.Helper()
	var tr struct {
		TraceEvents []struct {
			Ph   string         `json:"ph"`
			PID  int            `json:"pid"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(merged, &tr); err != nil {
		t.Fatal(err)
	}
	byPID := map[int]int{}
	lanes := map[int]bool{}
	traces := map[string]bool{}
	for _, ev := range tr.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		byPID[ev.PID]++
		lanes[ev.TID] = true
		if id, _ := ev.Args["trace"].(string); id != "" {
			traces[id] = true
		}
	}
	if byPID[1] == 0 || byPID[2] == 0 {
		t.Fatalf("merged trace is one-sided: %d client events, %d server events", byPID[1], byPID[2])
	}
	if len(traces) != requests {
		t.Errorf("merged trace has %d distinct trace ids, want %d", len(traces), requests)
	}
	if len(lanes) != requests {
		t.Errorf("merged trace has %d lanes, want %d (one per request)", len(lanes), requests)
	}
}
