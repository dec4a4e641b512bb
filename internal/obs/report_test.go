package obs

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func itemTrace() (*Tracer, *Metrics) {
	tr := NewDeterministic()
	m := NewMetrics()
	for _, phase := range []string{"phase/parse", "phase/lower", "phase/symex", "phase/symex"} {
		tr.Start(phase).End()
	}
	m.Counter(MSatConflicts).Add(40)
	m.Counter(MQCacheHits).Add(30)
	m.Counter(MQCacheMisses).Add(10)
	return tr, m
}

func TestBuildLoopRow(t *testing.T) {
	tr, m := itemTrace()
	row := BuildLoopRow("bash/skip_ws", "bash", "ok", tr, m.Snapshot(), 5*time.Millisecond)
	if row.Phases["symex"].Count != 2 {
		t.Errorf("symex phase count = %d, want 2 (aggregated)", row.Phases["symex"].Count)
	}
	if row.Phases["parse"].Count != 1 || row.Phases["lower"].Count != 1 {
		t.Errorf("phases = %+v", row.Phases)
	}
	if row.Counters[MSatConflicts] != 40 {
		t.Errorf("counters = %+v", row.Counters)
	}
	if row.TotalNs != int64(5*time.Millisecond) {
		t.Errorf("total = %d", row.TotalNs)
	}
}

func TestReportTableAndTotals(t *testing.T) {
	r := &Report{}
	for _, name := range []string{"b/two", "a/one"} {
		tr, m := itemTrace()
		r.Add(BuildLoopRow(name, "p", "ok", tr, m.Snapshot(), time.Millisecond))
	}
	rows := r.Rows()
	if len(rows) != 2 || rows[0].Loop != "a/one" {
		t.Fatalf("rows not sorted: %+v", rows)
	}
	_, totals := r.Totals()
	if totals[MSatConflicts] != 80 {
		t.Errorf("total conflicts = %d, want 80", totals[MSatConflicts])
	}

	var sb strings.Builder
	r.WriteTable(&sb)
	out := sb.String()
	for _, want := range []string{"a/one", "b/two", "TOTAL", "Conflicts", "Hit%", "75.0", "symex"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

func TestReportJSON(t *testing.T) {
	r := &Report{}
	tr, m := itemTrace()
	r.Add(BuildLoopRow("x", "p", "ok", tr, m.Snapshot(), time.Millisecond))
	data, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		Rows          []LoopRow        `json:"rows"`
		TotalCounters map[string]int64 `json:"total_counters"`
	}
	if err := json.Unmarshal(data, &parsed); err != nil {
		t.Fatal(err)
	}
	if len(parsed.Rows) != 1 || parsed.Rows[0].Loop != "x" {
		t.Errorf("rows = %+v", parsed.Rows)
	}
	if parsed.TotalCounters[MQCacheHits] != 30 {
		t.Errorf("totals = %+v", parsed.TotalCounters)
	}
}

// TestNilReportAndItems pins the disabled driver path: nil report, session
// and item are all inert.
func TestNilReportAndItems(t *testing.T) {
	var r *Report
	r.Add(LoopRow{Loop: "x"})
	if r.Rows() != nil {
		t.Error("nil report has rows")
	}

	var sess *Session
	if sess.Item("l", "p", 0) != nil {
		t.Error("nil session produced an item")
	}
	if err := sess.Finish(); err != nil {
		t.Errorf("nil session Finish: %v", err)
	}

	disabled := &Flags{}
	s, err := disabled.Start()
	if err != nil {
		t.Fatal(err)
	}
	if s.Tracer != nil || s.Item("l", "p", 0) != nil {
		t.Error("disabled session allocated collectors")
	}
	var it *Item
	if it.Tracer() != nil || it.Metrics() != nil {
		t.Error("nil item handed out handles")
	}
	it.Finish("ok")
}
