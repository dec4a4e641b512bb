package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// Spans opened inside one another are flat: each event's flame path is
// its own name, and ancestry shows only in the nested intervals.
func TestSpanNestingBuildsPaths(t *testing.T) {
	tr := NewDeterministic()
	outer := tr.Start("phase/symex", Attr{Key: "func", Val: "f"})
	inner := tr.Start("solve")
	inner.SetInt("queries", 3)
	inner.End()
	outer.End()

	evs := tr.Events()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	byName := map[string]Event{}
	for _, ev := range evs {
		byName[ev.Name] = ev
	}
	if a := byName["solve"].Attrs; len(a) != 1 || a[0].Key != "queries" || a[0].Val != "3" {
		t.Errorf("inner attrs = %+v", a)
	}
	if a := byName["phase/symex"].Attrs; len(a) != 1 || a[0].Key != "func" || a[0].Val != "f" {
		t.Errorf("outer attrs = %+v", a)
	}
	o, i := byName["phase/symex"], byName["solve"]
	if o.Start > i.Start || o.Start+o.Dur < i.Start+i.Dur {
		t.Errorf("outer span %+v does not contain the inner %+v", o, i)
	}
	var sb strings.Builder
	tr.FlameSummary(&sb)
	if out := sb.String(); strings.Contains(out, "phase/symex/solve") || !strings.Contains(out, "  solve\n") {
		t.Errorf("flame summary does not key the inner span by its own name:\n%s", out)
	}
}

func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	s := tr.Start("x")
	if s != nil {
		t.Error("nil tracer started a span")
	}
	s.SetAttr("k", "v")
	s.SetInt("n", 1)
	s.End()
	tr.Start("y").End()
	if tr.Child(3) != nil {
		t.Error("nil tracer produced a child")
	}
	if tr.Events() != nil || tr.Dropped() != 0 {
		t.Error("nil tracer recorded something")
	}
}

func TestChildWorkersShareTimeline(t *testing.T) {
	tr := NewDeterministic()
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := tr.Child(w)
			for i := 0; i < 5; i++ {
				c.Start("work").End()
			}
		}(w)
	}
	wg.Wait()
	evs := tr.Events()
	if len(evs) != 15 {
		t.Fatalf("got %d events, want 15", len(evs))
	}
	workers := map[int]int{}
	for i, ev := range evs {
		workers[ev.Worker]++
		if i > 0 && evs[i-1].Start > ev.Start {
			t.Fatal("events not sorted by start time")
		}
	}
	for w := 0; w < 3; w++ {
		if workers[w] != 5 {
			t.Errorf("worker %d has %d events, want 5", w, workers[w])
		}
	}
}

// TestDeterministicReplay pins the property the chaos soak depends on: with
// the logical clock, the serialized event stream is a pure function of the
// instrumented code path — two runs of the same work are bit-identical.
func TestDeterministicReplay(t *testing.T) {
	run := func() []byte {
		tr := NewDeterministic()
		outer := tr.Start("phase/cegis")
		for i := 0; i < 4; i++ {
			s := tr.Start("candidate")
			s.SetInt("i", int64(i))
			s.End()
		}
		outer.SetAttr("outcome", "found")
		outer.End()
		data, err := json.Marshal(tr.Events())
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	if a, b := run(), run(); !bytes.Equal(a, b) {
		t.Errorf("deterministic streams differ:\n%s\n%s", a, b)
	}
}

func TestChromeTraceRoundTrip(t *testing.T) {
	tr := NewDeterministic()
	tr.Child(0).Start("phase/parse").End()
	c1 := tr.Child(1)
	outer := c1.Start("phase/symex")
	inner := c1.Start("solve")
	inner.End()
	outer.End()

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("exported trace fails validation: %v\n%s", err, buf.String())
	}

	var parsed struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatal(err)
	}
	var meta, complete int
	tids := map[float64]bool{}
	for _, ev := range parsed.TraceEvents {
		switch ev["ph"] {
		case "M":
			meta++
		case "X":
			complete++
			tids[ev["tid"].(float64)] = true
		}
	}
	if meta != 2 {
		t.Errorf("got %d thread-metadata events, want one per worker (2)", meta)
	}
	if complete != 3 {
		t.Errorf("got %d complete events, want 3", complete)
	}
	if !tids[0] || !tids[1] {
		t.Errorf("worker ids not preserved as tids: %v", tids)
	}
}

func TestValidateChromeTraceRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"not json",
		`{"traceEvents":[]}`,
		`{"traceEvents":[{"ph":"X","name":"","ts":0,"dur":1}]}`,
		`{"traceEvents":[{"ph":"Q","name":"x","ts":0,"dur":1}]}`,
		`{"traceEvents":[{"ph":"X","name":"x","ts":-5,"dur":1}]}`,
	} {
		if err := ValidateChromeTrace([]byte(bad)); err == nil {
			t.Errorf("ValidateChromeTrace accepted %q", bad)
		}
	}
}

func TestFlameSummaryAggregatesByPath(t *testing.T) {
	tr := NewDeterministic()
	outer := tr.Start("rung/full")
	for i := 0; i < 3; i++ {
		tr.Start("phase/symex").End()
	}
	outer.End()
	var sb strings.Builder
	tr.FlameSummary(&sb)
	out := sb.String()
	if !strings.Contains(out, "phase/symex") {
		t.Errorf("flame summary missing aggregated path:\n%s", out)
	}
	if !strings.Contains(out, "3") {
		t.Errorf("flame summary missing count:\n%s", out)
	}
}

func TestContextThreading(t *testing.T) {
	tr, m := New(), NewMetrics()
	ctx := NewContext(nil, tr, m)
	if TracerFrom(ctx) != tr || MetricsFrom(ctx) != m {
		t.Error("NewContext/From round trip failed")
	}
	if TracerFrom(nil) != nil || MetricsFrom(nil) != nil {
		t.Error("From(nil ctx) not nil")
	}
	if TracerFrom(ctx).Child(5).Start("x").End(); len(tr.Events()) != 1 || tr.Events()[0].Worker != 5 {
		t.Errorf("span did not inherit worker id from its tracer: %+v", tr.Events())
	}
}
