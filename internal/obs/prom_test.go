package obs

import (
	"bytes"
	"strings"
	"testing"
)

func TestWritePrometheusRendersAllInstrumentKinds(t *testing.T) {
	m := NewMetrics()
	m.Counter("sat.conflicts").Add(12)
	m.Gauge("service.inflight").Set(3)
	h := m.Histogram("service.latency_ns")
	h.Observe(1)    // bucket 1 (le 2)
	h.Observe(3)    // bucket 2 (le 4)
	h.Observe(1000) // bucket 10 (le 1024)

	var b bytes.Buffer
	if err := m.Snapshot().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE loopsum_sat_conflicts_total counter",
		"loopsum_sat_conflicts_total 12",
		"# TYPE loopsum_service_inflight gauge",
		"loopsum_service_inflight 3",
		"# TYPE loopsum_service_latency_ns histogram",
		`loopsum_service_latency_ns_bucket{le="2"} 1`,
		`loopsum_service_latency_ns_bucket{le="4"} 2`,
		`loopsum_service_latency_ns_bucket{le="1024"} 3`,
		`loopsum_service_latency_ns_bucket{le="+Inf"} 3`,
		"loopsum_service_latency_ns_sum 1004",
		"loopsum_service_latency_ns_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	if err := ValidatePrometheus(b.Bytes()); err != nil {
		t.Errorf("own output does not validate: %v", err)
	}
}

func TestWritePrometheusDeterministic(t *testing.T) {
	build := func() string {
		m := NewMetrics()
		for _, n := range []string{"b.two", "a.one", "c.three"} {
			m.Counter(n).Add(1)
			m.Gauge(n + ".g").Set(2)
			m.Histogram(n + ".h").Observe(5)
		}
		var b bytes.Buffer
		if err := m.Snapshot().WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	if build() != build() {
		t.Error("exposition output not deterministic across identical registries")
	}
}

func TestValidatePrometheusRejectsBadInput(t *testing.T) {
	for name, body := range map[string]string{
		"empty":          "",
		"comments only":  "# TYPE x counter\n",
		"no TYPE":        "orphan_metric 1\n",
		"bad name":       "# TYPE 2bad counter\n2bad 1\n",
		"bad value":      "# TYPE x counter\nx pizza\n",
		"unknown type":   "# TYPE x matrix\nx 1\n",
		"non-cumulative": "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n",
		"missing inf":    "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_sum 1\nh_count 5\n",
		"inf != count":   "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 4\nh_sum 1\nh_count 5\n",
		"decreasing le":  "# TYPE h histogram\nh_bucket{le=\"4\"} 1\nh_bucket{le=\"2\"} 2\nh_bucket{le=\"+Inf\"} 2\nh_count 2\n",
	} {
		if err := ValidatePrometheus([]byte(body)); err == nil {
			t.Errorf("%s: validator accepted bad input", name)
		}
	}
	good := "# TYPE x_total counter\nx_total{shard=\"a\",zone=\"eu\"} 1 1700000000\n"
	if err := ValidatePrometheus([]byte(good)); err != nil {
		t.Errorf("validator rejected labeled+timestamped sample: %v", err)
	}
}

// Histogram edge cases (the satellite checklist): empty snapshot, single
// sample, and exact bucket-boundary values.
func TestHistogramEdgeCases(t *testing.T) {
	var empty *Histogram
	if empty.Buckets() != nil || QuantileFromBuckets(empty.Buckets(), 0.99) != 0 {
		t.Error("nil histogram not inert")
	}
	h := &Histogram{}
	if got := h.Buckets(); got != nil {
		t.Errorf("empty histogram buckets = %v, want nil", got)
	}
	if QuantileFromBuckets(h.Buckets(), 0.5) != 0 || h.Count() != 0 {
		t.Error("empty histogram quantile/count not zero")
	}

	h.Observe(7)
	if got := QuantileFromBuckets(h.Buckets(), 0.99); got != 8 {
		t.Errorf("single sample 7: q99 = %d, want bucket bound 8", got)
	}
	if got := QuantileFromBuckets(h.Buckets(), 0); got != 8 {
		t.Errorf("single sample: q0 = %d, want 8 (only bucket)", got)
	}

	// Boundary values: 2^k lands in bucket k+1 (bit length k+1), so its
	// upper bound is 2^(k+1); 2^k - 1 lands in bucket k with bound 2^k.
	for _, k := range []uint{1, 4, 10, 31, 62} {
		b := &Histogram{}
		b.Observe(1 << k)
		if got, want := QuantileFromBuckets(b.Buckets(), 1), int64(1)<<(k+1); got != want {
			t.Errorf("2^%d: bound %d, want %d", k, got, want)
		}
		b2 := &Histogram{}
		b2.Observe(1<<k - 1)
		if got, want := QuantileFromBuckets(b2.Buckets(), 1), int64(1)<<k; got != want {
			t.Errorf("2^%d-1: bound %d, want %d", k, got, want)
		}
	}

	// Non-positive observations land in bucket 0, whose bound is 0.
	z := &Histogram{}
	z.Observe(0)
	z.Observe(-5)
	if got := QuantileFromBuckets(z.Buckets(), 1); got != 0 {
		t.Errorf("non-positive samples: bound %d, want 0", got)
	}
	if got := z.Buckets(); len(got) != 1 || got[0] != 2 {
		t.Errorf("non-positive samples: buckets %v, want [2]", got)
	}
}
