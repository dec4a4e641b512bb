package obs

import (
	"strings"
	"testing"
)

func TestTraceContextRoundTrip(t *testing.T) {
	tc := DeriveTraceContext(42, 1)
	if !tc.Valid() {
		t.Fatal("derived context invalid")
	}
	s := tc.String()
	if !strings.HasPrefix(s, "lt1-") || len(s) != len("lt1-")+16+1+16+1+2 {
		t.Fatalf("header form %q has wrong shape", s)
	}
	back, err := ParseTraceParent(s)
	if err != nil {
		t.Fatal(err)
	}
	if back != tc {
		t.Fatalf("round trip: %+v != %+v", back, tc)
	}
	if got := tc.TraceIDString(); len(got) != 16 || !strings.Contains(s, got) {
		t.Errorf("TraceIDString %q not embedded in header %q", got, s)
	}
}

func TestDeriveTraceContextDeterministicAndDistinct(t *testing.T) {
	a := DeriveTraceContext(7, 1)
	if b := DeriveTraceContext(7, 1); a != b {
		t.Error("same (seed, ordinal) gave different contexts")
	}
	seen := map[uint64]bool{}
	for seed := uint64(1); seed <= 4; seed++ {
		for ord := uint64(1); ord <= 64; ord++ {
			id := DeriveTraceContext(seed, ord).TraceID
			if seen[id] {
				t.Fatalf("trace id collision at seed=%d ord=%d", seed, ord)
			}
			seen[id] = true
		}
	}
}

func TestParseTraceParentRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"",
		"lt1",
		"lt2-0123456789abcdef-0123456789abcdef-01", // wrong version
		"lt1-0123456789abcdef-0123456789abcdef",    // missing flags
		"lt1-0123-0123456789abcdef-01",             // short trace id
		"lt1-0123456789abcdeZ-0123456789abcdef-01", // non-hex
		"lt1-0000000000000000-0123456789abcdef-01", // zero trace id
		"lt1-0123456789abcdef-0123456789abcdef-zz", // bad flags
	} {
		if _, err := ParseTraceParent(bad); err == nil {
			t.Errorf("ParseTraceParent(%q) accepted malformed input", bad)
		}
	}
}

// TestRequestTracerStampsAndIsolates: request tracers stamp their trace id
// on every span, aggregate into the parent's Events, and — under a
// deterministic parent — run private logical clocks, so one request's
// stream does not depend on how other requests interleave.
func TestRequestTracerStampsAndIsolates(t *testing.T) {
	parent := NewDeterministic()
	// Interleave two request tracers' spans.
	a := parent.RequestTracer("aaaa", 0)
	b := parent.RequestTracer("bbbb", 0)
	sa := a.Start("work")
	sb := b.Start("work")
	sa.End()
	sb.End()

	evs := parent.Events()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	for _, ev := range evs {
		if ev.Trace != "aaaa" && ev.Trace != "bbbb" {
			t.Errorf("event %q missing trace id (got %q)", ev.Name, ev.Trace)
		}
		// Private clocks: both requests' spans start at the first tick,
		// independent of the interleaving above.
		if ev.Start != 1000 {
			t.Errorf("request span start = %d, want 1000 (private clock)", ev.Start)
		}
	}

	// Wall-clock parents share their clock (one timeline) but still stamp.
	wall := New()
	w := wall.RequestTracer("cccc", 3)
	s := w.Start("work")
	s.End()
	wevs := wall.Events()
	if len(wevs) != 1 || wevs[0].Trace != "cccc" || wevs[0].Worker != 3 {
		t.Fatalf("wall request tracer events = %+v", wevs)
	}
}
