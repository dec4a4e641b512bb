package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeHistogramBasics(t *testing.T) {
	m := NewMetrics()
	c := m.Counter("x.count")
	c.Add(3)
	c.Inc()
	if got := c.Value(); got != 4 {
		t.Errorf("counter = %d, want 4", got)
	}
	if m.Counter("x.count") != c {
		t.Error("Counter is not idempotent per name")
	}

	g := m.Gauge("x.gauge")
	g.Set(7)
	g.SetMax(3)
	if got := g.Value(); got != 7 {
		t.Errorf("gauge after SetMax(3) = %d, want 7", got)
	}
	g.SetMax(11)
	if got := g.Value(); got != 11 {
		t.Errorf("gauge after SetMax(11) = %d, want 11", got)
	}

	h := m.Histogram("x.hist")
	for _, v := range []int64{1, 2, 4, 1024, 1 << 20} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("hist count = %d, want 5", h.Count())
	}
	if h.Sum() != 1+2+4+1024+1<<20 {
		t.Errorf("hist sum = %d", h.Sum())
	}
	// Quantiles are log-bucket upper bounds: monotone and >= the value.
	if p50, p99 := QuantileFromBuckets(h.Buckets(), 0.5), QuantileFromBuckets(h.Buckets(), 0.99); p50 > p99 || p50 < 4 {
		t.Errorf("quantiles p50=%d p99=%d", p50, p99)
	}
}

// TestNilRegistryIsInert pins the disabled mode: a nil registry hands out
// nil instruments and every operation on them is a no-op.
func TestNilRegistryIsInert(t *testing.T) {
	var m *Metrics
	c := m.Counter("a")
	if c != nil {
		t.Fatal("nil registry returned a live counter")
	}
	c.Add(1)
	c.Inc()
	if c.Value() != 0 {
		t.Error("nil counter has a value")
	}
	g := m.Gauge("b")
	g.Set(1)
	g.SetMax(2)
	if g.Value() != 0 {
		t.Error("nil gauge has a value")
	}
	h := m.Histogram("c")
	h.Observe(5)
	if h.Count() != 0 || h.Sum() != 0 || h.Buckets() != nil {
		t.Error("nil histogram recorded something")
	}
	if snap := m.Snapshot(); len(snap.Counters) != 0 {
		t.Error("nil registry snapshot is non-empty")
	}
}

func TestCountersAreRaceFree(t *testing.T) {
	m := NewMetrics()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := m.Counter("shared")
			for i := 0; i < 1000; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := m.Counter("shared").Value(); got != 8000 {
		t.Errorf("shared counter = %d, want 8000", got)
	}
}

func TestDumpMentionsEveryInstrument(t *testing.T) {
	m := NewMetrics()
	m.Counter("sat.conflicts").Add(17)
	m.Gauge("qcache.max_group").Set(4)
	m.Histogram("qcache.solve_ns").Observe(12345)
	var sb strings.Builder
	m.Dump(&sb)
	out := sb.String()
	for _, want := range []string{"sat.conflicts", "17", "qcache.max_group", "qcache.solve_ns"} {
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %q:\n%s", want, out)
		}
	}
}

// The disabled-mode cost gated at 2%: charging nil instruments and nil spans
// must stay within nanoseconds of a bare loop. These stay benchmarks;
// `cmd/bench -lane telemetry -check` gates the budget-flush pattern.

func BenchmarkCounterDisabled(b *testing.B) {
	var c *Counter
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkCounterEnabled(b *testing.B) {
	c := NewMetrics().Counter("bench")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkSpanDisabled(b *testing.B) {
	var tr *Tracer
	for i := 0; i < b.N; i++ {
		tr.Start("bench").End()
	}
}

func BenchmarkSpanEnabled(b *testing.B) {
	tr := New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Start("bench").End()
	}
	if tr.Dropped() == 0 && len(tr.Events()) == 0 {
		b.Fatal("no events recorded")
	}
}
