package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"stringloops/internal/obs"
)

// Client is the daemon's HTTP client: POST /summarize with capped
// exponential backoff plus deterministic jitter on retryable statuses
// (429, 5xx, transport errors), honoring Retry-After when the server
// sends one. The CLI's -server mode and the load harness both ride it,
// so the daemon has exactly one front door.
type Client struct {
	// Base is the daemon address, e.g. "http://localhost:8419".
	Base string
	// HTTP is the transport (default http.DefaultClient).
	HTTP *http.Client
	// MaxRetries bounds retries after the first try (default 4).
	MaxRetries int
	// Seed drives the deterministic jitter (same splitmix64 discipline as
	// faultpoint, so test schedules replay).
	Seed uint64
	// ClientID, when set, is sent as X-Loopsum-Client for rate limiting.
	ClientID string
	// Tracer, when set, records client-side spans: one request span per
	// Summarize call (its own lane under a deterministic tracer) plus one
	// child span per HTTP attempt. The same trace id is stamped on the
	// X-Loopsum-Trace header, so tracecheck -merge can join this trace
	// with the server's /trace dump into one timeline.
	Tracer *obs.Tracer
	// Sleep is swapped by tests (default time.Sleep, ctx-aware).
	Sleep func(context.Context, time.Duration) error

	// ord numbers Summarize calls; with Seed it mints each request's
	// deterministic trace id.
	ord atomic.Uint64
}

// StatusError is a terminal non-2xx answer from the daemon (after
// retries for retryable statuses).
type StatusError struct {
	Code int
	Body ErrorBody
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("service: daemon answered %d: %s", e.Code, e.Body.Error)
}

// ErrRetriesExhausted wraps the last failure when every retry burned.
var ErrRetriesExhausted = errors.New("service: retries exhausted")

func (c *Client) maxRetries() int {
	if c.MaxRetries < 0 {
		return 0
	}
	if c.MaxRetries == 0 {
		return 4
	}
	return c.MaxRetries
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

func (c *Client) sleep(ctx context.Context, d time.Duration) error {
	if c.Sleep != nil {
		return c.Sleep(ctx, d)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// The exponential wait between retries starts at baseBackoff and doubles up
// to maxBackoff.
const (
	baseBackoff = 100 * time.Millisecond
	maxBackoff  = 5 * time.Second
)

// backoff computes the wait before retry n (1-based): capped exponential
// with full deterministic jitter in [base/2, base], then raised to any
// Retry-After the server sent — the server's hint is a floor, not a cap.
func (c *Client) backoff(n int, retryAfter time.Duration) time.Duration {
	d := baseBackoff << (n - 1)
	if d > maxBackoff || d <= 0 {
		d = maxBackoff
	}
	// Jitter: uniform in [d/2, d], derived from (seed, attempt).
	h := splitmix64(c.Seed ^ splitmix64(uint64(n)))
	d = d/2 + time.Duration(h%uint64(d/2+1))
	if retryAfter > d {
		d = retryAfter
	}
	return d
}

// Summarize posts one request and returns the daemon's response,
// retrying retryable failures until MaxRetries or ctx death. Every call
// mints a deterministic trace context from (Seed, call ordinal) and stamps
// it on X-Loopsum-Trace — retries reuse the same trace id, because they
// are the same logical request.
func (c *Client) Summarize(ctx context.Context, req Request) (*Response, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("service: encoding request: %w", err)
	}
	tc := obs.DeriveTraceContext(c.Seed, c.ord.Add(1))
	rt := c.Tracer.RequestTracer(tc.TraceIDString(), 0)
	span := rt.Start("client/summarize")
	var lastErr error
	for n := 0; ; n++ {
		if n > 0 {
			if n > c.maxRetries() {
				span.SetAttr("status", "retries_exhausted")
				span.End()
				return nil, fmt.Errorf("%w after %d tries: %w", ErrRetriesExhausted, n, lastErr)
			}
			if err := c.sleep(ctx, c.backoff(n, retryAfterOf(lastErr))); err != nil {
				span.SetAttr("status", "cancelled")
				span.End()
				return nil, fmt.Errorf("service: %w (last failure: %w)", err, lastErr)
			}
		}
		attempt := rt.Start("client/attempt")
		resp, err := c.once(ctx, body, tc)
		if err == nil {
			attempt.End()
			span.SetAttr("status", "ok")
			span.SetInt("attempts", int64(n+1))
			span.End()
			return resp, nil
		}
		attempt.SetAttr("err", err.Error())
		attempt.End()
		if ctx.Err() != nil {
			span.SetAttr("status", "cancelled")
			span.End()
			return nil, fmt.Errorf("service: %w (last failure: %w)", ctx.Err(), err)
		}
		if !retryable(err) {
			span.SetAttr("status", "failed")
			span.End()
			return nil, err
		}
		lastErr = err
	}
}

func (c *Client) once(ctx context.Context, body []byte, tc obs.TraceContext) (*Response, error) {
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Base+"/summarize", bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("service: building request: %w", err)
	}
	hr.Header.Set("Content-Type", "application/json")
	hr.Header.Set(obs.TraceHeader, tc.String())
	if c.ClientID != "" {
		hr.Header.Set("X-Loopsum-Client", c.ClientID)
	}
	resp, err := c.httpClient().Do(hr)
	if err != nil {
		return nil, &transportError{err: err}
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return nil, &transportError{err: fmt.Errorf("reading response: %w", err)}
	}
	if resp.StatusCode != http.StatusOK {
		se := &StatusError{Code: resp.StatusCode}
		if json.Unmarshal(raw, &se.Body) != nil || se.Body.Error == "" {
			se.Body.Error = string(raw)
		}
		if se.Body.RetryAfterSec == 0 {
			if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil {
				se.Body.RetryAfterSec = ra
			}
		}
		return nil, se
	}
	var out Response
	if err := json.Unmarshal(raw, &out); err != nil {
		return nil, fmt.Errorf("service: malformed daemon response: %w", err)
	}
	return &out, nil
}

// transportError marks connection-level failures (always retryable).
type transportError struct{ err error }

func (e *transportError) Error() string { return "service: transport: " + e.err.Error() }
func (e *transportError) Unwrap() error { return e.err }

// retryable classifies failures worth another try: transport errors,
// 429, and every 5xx. 4xx (other than 429) means the request itself is
// wrong and retrying cannot help.
func retryable(err error) bool {
	var te *transportError
	if errors.As(err, &te) {
		return true
	}
	var se *StatusError
	if errors.As(err, &se) {
		return se.Code == http.StatusTooManyRequests || se.Code >= 500
	}
	return false
}

// retryAfterOf extracts the server's Retry-After hint from a failure.
func retryAfterOf(err error) time.Duration {
	var se *StatusError
	if errors.As(err, &se) && se.Body.RetryAfterSec > 0 {
		return time.Duration(se.Body.RetryAfterSec) * time.Second
	}
	return 0
}

// splitmix64 mirrors faultpoint's jitter mix (kept local: the client is
// importable without arming fault injection).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
