package service

import (
	"testing"
	"time"
)

// ringP99 is the overload policy's previous implementation — an exact
// k-th-largest scan over a latency ring — kept here as the reference the
// windowed histogram must agree with.
func ringP99(samples []time.Duration, window int) time.Duration {
	if len(samples) > window {
		samples = samples[len(samples)-window:]
	}
	n := len(samples)
	if n == 0 {
		return 0
	}
	k := (n + 99) / 100
	top := make([]time.Duration, 0, k)
	for i := 0; i < n; i++ {
		v := samples[i]
		pos := len(top)
		for pos > 0 && top[pos-1] < v {
			pos--
		}
		if pos < k {
			if len(top) < k {
				top = append(top, 0)
			}
			copy(top[pos+1:], top[pos:])
			top[pos] = v
		}
	}
	return top[len(top)-1]
}

// TestOverloadHistAgreesWithRing feeds identical inputs to the windowed
// histogram and the old exact ring. The histogram reads a log2 bucket
// upper bound, so agreement means: at least the exact p99, and within 2×
// of it — tight enough that the degradation thresholds behave the same.
// The histogram's window is approximate (between window and 2×window
// samples), so the ring reference is evaluated at both window widths and
// the histogram must sit within the bounds they span.
func TestOverloadHistAgreesWithRing(t *testing.T) {
	const window = 128
	schedules := map[string][]time.Duration{
		"uniform": genLatencies(300, func(i int) time.Duration { return time.Millisecond }),
		"ramp":    genLatencies(300, func(i int) time.Duration { return time.Duration(i+1) * time.Millisecond }),
		"heavy tail": genLatencies(300, func(i int) time.Duration {
			if i%50 == 49 {
				return time.Second
			}
			return 2 * time.Millisecond
		}),
		"short": genLatencies(7, func(i int) time.Duration { return time.Duration(i+1) * 10 * time.Millisecond }),
	}
	for name, samples := range schedules {
		o := newOverload(OverloadPolicy{}, window)
		for _, d := range samples {
			o.observe(d)
		}
		got := o.p99()
		// Exact reference over the narrow and wide interpretations of the
		// rotating two-histogram window.
		lo := ringP99(samples, window)
		hi := ringP99(samples, 2*window)
		if hi < lo {
			lo, hi = hi, lo
		}
		if got < lo {
			t.Errorf("%s: hist p99 %v below exact ring p99 %v (upper bound must not undershoot)", name, got, lo)
		}
		if got > 2*hi {
			t.Errorf("%s: hist p99 %v over 2× exact ring p99 %v (log2 bucket bound violated)", name, got, hi)
		}
	}

	// Empty window agrees on zero.
	if got := newOverload(OverloadPolicy{}, window).p99(); got != 0 {
		t.Errorf("empty window p99 = %v, want 0", got)
	}
}

func genLatencies(n int, f func(int) time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = f(i)
	}
	return out
}

// TestOverloadWindowRotates: old samples age out after two window widths,
// so a past latency spike stops degrading new requests.
func TestOverloadWindowRotates(t *testing.T) {
	o := newOverload(OverloadPolicy{}, 16)
	for i := 0; i < 16; i++ {
		o.observe(time.Second)
	}
	if got := o.p99(); got < time.Second {
		t.Fatalf("p99 = %v right after the spike, want >= 1s", got)
	}
	for i := 0; i < 32; i++ {
		o.observe(time.Millisecond)
	}
	if got := o.p99(); got >= time.Second {
		t.Errorf("p99 = %v two windows after the spike, want the spike aged out", got)
	}
}
