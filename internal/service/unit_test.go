package service

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"stringloops/internal/core"
)

// doneCh adapts a bare channel to the admitter's context slice.
type doneCh chan struct{}

func (d doneCh) Done() <-chan struct{} { return d }
func (d doneCh) Err() error {
	select {
	case <-d:
		return context.Canceled
	default:
		return nil
	}
}

// TestAdmitterBoundsQueue: slots fill first, then the waiting line, then
// ErrQueueFull — and giving up in the queue releases the position.
func TestAdmitterBoundsQueue(t *testing.T) {
	a := newAdmitter(2, 1)
	ctx := make(doneCh)

	rel1, err := a.admit(ctx)
	if err != nil {
		t.Fatalf("slot 1: %v", err)
	}
	rel2, err := a.admit(ctx)
	if err != nil {
		t.Fatalf("slot 2: %v", err)
	}
	if got := a.inFlight(); got != 2 {
		t.Fatalf("inFlight = %d, want 2", got)
	}

	// Third request queues; admit blocks, so run it in a goroutine.
	queued := make(chan error, 1)
	go func() {
		rel, err := a.admit(ctx)
		if err == nil {
			rel()
		}
		queued <- err
	}()
	waitFor(t, func() bool { return a.waiting() == 1 })

	// Fourth overflows the waiting line: immediate ErrQueueFull.
	if _, err := a.admit(ctx); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow admit err = %v, want ErrQueueFull", err)
	}

	// A released slot admits the queued waiter.
	rel1()
	if err := <-queued; err != nil {
		t.Fatalf("queued waiter: %v", err)
	}
	rel2()
	waitFor(t, func() bool { return a.inFlight() == 0 && a.waiting() == 0 })
}

// TestAdmitterQueueWaitHonorsDeadline: a waiter whose context dies in the
// queue gets a deadline error and frees its position.
func TestAdmitterQueueWaitHonorsDeadline(t *testing.T) {
	a := newAdmitter(1, 2)
	open := make(doneCh)
	rel, err := a.admit(open)
	if err != nil {
		t.Fatal(err)
	}
	dead := make(doneCh)
	close(dead)
	if _, err := a.admit(dead); err == nil || errors.Is(err, ErrQueueFull) {
		t.Fatalf("dead-context admit err = %v, want deadline error", err)
	}
	if got := a.waiting(); got != 0 {
		t.Fatalf("waiting = %d after dead waiter, want 0 (position leaked)", got)
	}
	rel()
}

// TestRateLimiterBucket: burst tokens spend 1:1, refill follows the
// clock, and clients are isolated.
func TestRateLimiterBucket(t *testing.T) {
	now := time.Unix(1000, 0)
	rl := newRateLimiter(1, 2, 0, func() time.Time { return now })
	for i := 0; i < 2; i++ {
		if ok, _ := rl.allow("alice"); !ok {
			t.Fatalf("burst token %d refused", i)
		}
	}
	ok, retry := rl.allow("alice")
	if ok {
		t.Fatal("third immediate request allowed past burst 2")
	}
	if retry <= 0 || retry > 2*time.Second {
		t.Fatalf("retry hint = %v, want (0, 2s]", retry)
	}
	if ok, _ := rl.allow("bob"); !ok {
		t.Fatal("bob throttled by alice's bucket")
	}
	now = now.Add(1500 * time.Millisecond) // 1.5 tokens refilled
	if ok, _ := rl.allow("alice"); !ok {
		t.Fatal("refilled token refused")
	}
	if ok, _ := rl.allow("alice"); ok {
		t.Fatal("half-refilled token granted")
	}
}

// TestRateLimiterEviction: the bucket map stays bounded, evicting the
// stalest client.
func TestRateLimiterEviction(t *testing.T) {
	now := time.Unix(1000, 0)
	rl := newRateLimiter(1, 1, 2, func() time.Time { return now })
	rl.allow("a")
	now = now.Add(time.Second)
	rl.allow("b")
	now = now.Add(time.Second)
	rl.allow("c") // evicts a, the stalest
	if len(rl.buckets) != 2 {
		t.Fatalf("buckets = %d, want 2 (bounded)", len(rl.buckets))
	}
	if _, ok := rl.buckets["a"]; ok {
		t.Fatal("stalest bucket survived eviction")
	}
}

// TestOverloadLadderMapping: load fractions map onto starting rungs at
// the documented thresholds, and the p99 signal degrades one extra rung.
func TestOverloadLadderMapping(t *testing.T) {
	o := newOverload(OverloadPolicy{}, overloadWindow)
	for _, c := range []struct {
		frac float64
		want core.Rung
	}{
		{0.0, core.RungFull}, {0.49, core.RungFull},
		{0.50, core.RungMemoryless}, {0.74, core.RungMemoryless},
		{0.75, core.RungCovering}, {0.89, core.RungCovering},
		{0.90, core.RungSmoke}, {1.0, core.RungSmoke},
	} {
		if got := o.startRung(c.frac); got != c.want {
			t.Errorf("startRung(%.2f) = %v, want %v", c.frac, got, c.want)
		}
	}

	slow := newOverload(OverloadPolicy{TargetP99: time.Millisecond}, overloadWindow)
	for i := 0; i < 10; i++ {
		slow.observe(5 * time.Millisecond)
	}
	if got := slow.startRung(0.0); got != core.RungMemoryless {
		t.Errorf("p99 over target at idle load: startRung = %v, want memoryless", got)
	}
	if got := slow.startRung(0.95); got != core.RungSmoke {
		t.Errorf("p99 cannot push below the floor: got %v, want smoke", got)
	}

	off := newOverload(OverloadPolicy{Disable: true}, overloadWindow)
	if got := off.startRung(1.0); got != core.RungFull {
		t.Errorf("disabled policy degraded to %v", got)
	}
}

// TestOverloadP99: the windowed histogram's p99 tracks the tail, not the
// median. The read is a log2 bucket upper bound, so it lands in [tail, 2×tail).
func TestOverloadP99(t *testing.T) {
	o := newOverload(OverloadPolicy{}, 100)
	for i := 0; i < 99; i++ {
		o.observe(time.Millisecond)
	}
	o.observe(time.Second)
	if got := o.p99(); got < time.Second || got >= 2*time.Second {
		t.Errorf("p99 = %v, want the 1s tail's bucket bound in [1s, 2s)", got)
	}
}

// TestVerdictKeyDeterministic: keys depend on payload, not on timings or
// attempt counts, and input order does not matter.
func TestVerdictKeyDeterministic(t *testing.T) {
	a := &Response{Rung: "covering", Covering: []core.TestInput{{Input: "x", Offset: 1}, {Input: "a"}},
		ElapsedNs: 123, Attempts: 2}
	b := &Response{Rung: "covering", Covering: []core.TestInput{{Input: "a"}, {Input: "x", Offset: 1}},
		ElapsedNs: 999, QueueWaitNs: 55, Attempts: 7}
	if a.VerdictKey() != b.VerdictKey() {
		t.Errorf("keys differ on timing/order-only changes:\n%s\n%s", a.VerdictKey(), b.VerdictKey())
	}
	c := &Response{Rung: "covering", Covering: []core.TestInput{{Input: "a", Null: true}, {Input: "x", Offset: 1}}}
	if a.VerdictKey() == c.VerdictKey() {
		t.Error("keys equal across different payloads")
	}
}

// TestClientBackoffHonorsRetryAfter: the client retries 429/5xx with
// capped exponential backoff and never sleeps less than the server's
// Retry-After hint.
func TestClientBackoffHonorsRetryAfter(t *testing.T) {
	var mu sync.Mutex
	var calls int
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		calls++
		n := calls
		mu.Unlock()
		switch n {
		case 1:
			w.Header().Set("Retry-After", "2")
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(ErrorBody{Error: "queue full", RetryAfterSec: 2})
		case 2:
			w.WriteHeader(http.StatusInternalServerError)
			json.NewEncoder(w).Encode(ErrorBody{Error: "transient"})
		default:
			json.NewEncoder(w).Encode(Response{Rung: "smoke"})
		}
	}))
	defer ts.Close()

	var sleeps []time.Duration
	c := &Client{
		Base: ts.URL,
		Sleep: func(_ context.Context, d time.Duration) error {
			sleeps = append(sleeps, d)
			return nil
		},
	}
	resp, err := c.Summarize(context.Background(), Request{Source: "x"})
	if err != nil {
		t.Fatalf("summarize: %v", err)
	}
	if resp.Rung != "smoke" {
		t.Fatalf("rung = %q", resp.Rung)
	}
	if len(sleeps) != 2 {
		t.Fatalf("sleeps = %v, want 2 retries", sleeps)
	}
	if sleeps[0] < 2*time.Second {
		t.Errorf("first sleep %v under the server's Retry-After of 2s", sleeps[0])
	}
	if sleeps[1] < 100*time.Millisecond || sleeps[1] > 5*time.Second {
		t.Errorf("second sleep %v outside the capped backoff envelope", sleeps[1])
	}
	c.httpClient().CloseIdleConnections()
}

// TestClientBackoffDeterministicJitter: same seed, same schedule.
func TestClientBackoffDeterministicJitter(t *testing.T) {
	a := &Client{Seed: 42}
	b := &Client{Seed: 42}
	other := &Client{Seed: 43}
	same, diff := true, true
	for n := 1; n <= 4; n++ {
		if a.backoff(n, 0) != b.backoff(n, 0) {
			same = false
		}
		if a.backoff(n, 0) != other.backoff(n, 0) {
			diff = false
		}
	}
	if !same {
		t.Error("same-seed backoff schedules differ")
	}
	if diff {
		t.Error("different seeds produced identical jitter everywhere")
	}
}

// TestClientNonRetryable: 4xx other than 429 fails immediately, no
// retries, typed error.
func TestClientNonRetryable(t *testing.T) {
	var calls int
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		w.WriteHeader(http.StatusUnprocessableEntity)
		json.NewEncoder(w).Encode(ErrorBody{Error: "no loop function"})
	}))
	defer ts.Close()
	c := &Client{Base: ts.URL, Sleep: func(context.Context, time.Duration) error { return nil }}
	_, err := c.Summarize(context.Background(), Request{Source: "x"})
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusUnprocessableEntity {
		t.Fatalf("err = %v, want StatusError 422", err)
	}
	if calls != 1 {
		t.Fatalf("calls = %d, want 1 (no retries on 422)", calls)
	}
	c.httpClient().CloseIdleConnections()
}

// TestClientRetriesExhausted: a daemon that never recovers yields
// ErrRetriesExhausted wrapping the last status.
func TestClientRetriesExhausted(t *testing.T) {
	var calls int
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(ErrorBody{Error: "draining"})
	}))
	defer ts.Close()
	c := &Client{Base: ts.URL, MaxRetries: 2, Sleep: func(context.Context, time.Duration) error { return nil }}
	_, err := c.Summarize(context.Background(), Request{Source: "x"})
	if !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("err = %v, want ErrRetriesExhausted", err)
	}
	if calls != 3 {
		t.Fatalf("calls = %d, want 3 (1 try + 2 retries)", calls)
	}
	c.httpClient().CloseIdleConnections()
}

// waitFor polls cond for up to 5 seconds.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(time.Millisecond)
	}
}
