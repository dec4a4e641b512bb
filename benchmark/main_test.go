package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"regexp"
	"runtime/pprof"
	"sort"
	"strings"
	"testing"
	"time"

	"stringloops/internal/obs"
	"stringloops/internal/vocab"
)

// smokeItems is how many items of each workload a smoke pass runs.
const smokeItems = 5

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// benchmarkJSON is the part of BENCHMARK.json the tests compare.
type benchmarkJSON struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// smoke runs the first smokeItems items of a workload in this process.
func smoke(t *testing.T, workload string, seed int64, traced bool) passResult {
	t.Helper()
	w, ok := lookupWorkload(workload)
	if !ok {
		t.Fatalf("unknown workload %q", workload)
	}
	p := newPass(passSpec{Workload: workload, Seed: seed, Traced: traced, Items: smokeItems})
	p.out = io.Discard
	if err := w.run(p); err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	res := p.finish()
	for _, it := range res.Items {
		if it.Err != "" {
			t.Errorf("%s: %s: %s", workload, it.Key, it.Err)
		}
	}
	if len(res.Items) != smokeItems {
		t.Errorf("%s: ran %d items, want %d", workload, len(res.Items), smokeItems)
	}
	return res
}

// TestDeclaredMetrics holds BENCHMARK.json and the metrics the program
// prints equal, name for name, with units and directions.
func TestDeclaredMetrics(t *testing.T) {
	b := readBenchmarkJSON(t)
	var e2e, layer []metricDef
	for _, m := range b.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range b.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit, m.Better})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end = %v, program prints %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer = %v, program prints %v", layer, perLayer)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads = %v, program runs %v", names, want)
	}
	seen := map[string]bool{}
	for _, n := range append(names, metricNames(endToEnd, perLayer)...) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
}

func metricNames(lists ...[]metricDef) []string {
	var out []string
	for _, l := range lists {
		for _, d := range l {
			out = append(out, d.name)
		}
	}
	return out
}

// TestTracedSmoke runs a traced smoke pass of every workload: verdicts must
// match the oracle, every layer metric a pass produces must be declared,
// CPU shares must sum to 100, and the Chrome trace must validate.
func TestTracedSmoke(t *testing.T) {
	or, err := newOracle(1)
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for _, d := range perLayer {
		declared[d.name] = true
	}
	for _, w := range workloads {
		res := smoke(t, w.name, 1, true)
		if bad := or.wrongVerdicts(w.name, res.Items); len(bad) > 0 {
			t.Errorf("%s: verdict mismatches: %v", w.name, bad)
		}
		if res.TraceErr != "" {
			t.Errorf("%s: trace: %s", w.name, res.TraceErr)
		}
		var undeclared []string
		cpu := 0.0
		for name, v := range res.Layers {
			if !declared[name] {
				undeclared = append(undeclared, name)
			}
			if strings.HasPrefix(name, "cpu.") {
				cpu += v
			}
		}
		sort.Strings(undeclared)
		if len(undeclared) > 0 {
			t.Errorf("%s: undeclared layer metrics %v", w.name, undeclared)
		}
		if cpu != 0 && (cpu < 99 || cpu > 101) {
			t.Errorf("%s: CPU shares sum to %.2f%%", w.name, cpu)
		}
	}
}

// TestSeedPermutesOnly holds the order a function of the seed and the
// counts independent of it.
func TestSeedPermutesOnly(t *testing.T) {
	p1 := newPass(passSpec{Workload: "table3", Seed: 1})
	p2 := newPass(passSpec{Workload: "table3", Seed: 2})
	a, b, c := p1.order(115), p1.order(115), p2.order(115)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave two orders")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("two seeds gave the same order")
	}
	for _, w := range workloads {
		r1, r2 := smoke(t, w.name, 1, false), smoke(t, w.name, 2, false)
		if !reflect.DeepEqual(r1.Counts, r2.Counts) {
			t.Errorf("%s: seed 1 counts %v, seed 2 counts %v", w.name, r1.Counts, r2.Counts)
		}
	}
}

// TestSelfTimes pins the span arithmetic: a span's self time excludes its
// direct children, and spans of another lane or request are not children.
func TestSelfTimes(t *testing.T) {
	got := selfTimes([]obs.Event{
		{Name: "cegis/new", Start: 0, Dur: 100},
		{Name: "phase/symex", Start: 10, Dur: 60},
		{Name: "cegis/synthesize", Start: 100, Dur: 50},
		{Name: "phase/cegis", Start: 100, Dur: 50},
		{Name: "phase/symex", Worker: 1, Start: 20, Dur: 30},
		{Name: "phase/parse", Trace: "t1", Start: 5, Dur: 10},
	})
	want := map[string]float64{"cegis/new": 40, "phase/symex": 90, "cegis/synthesize": 0, "phase/cegis": 50, "phase/parse": 10}
	if len(got) != len(want) {
		t.Fatalf("selfTimes = %v, want %v ns", got, want)
	}
	for name, ns := range want {
		if math.Abs(got[name]*1e9-ns) > 1e-6 {
			t.Errorf("self time of %s = %v s, want %v ns", name, got[name], ns)
		}
	}
}

// TestCPUShares profiles a loop that spends its time in the vocab
// interpreter and checks the decoded profile charges it there.
func TestCPUShares(t *testing.T) {
	prog, err := vocab.Decode("P\t \x00F")
	if err != nil {
		t.Fatal(err)
	}
	buf := []byte("\t \t \t \t \t \t \t \t \t \t \t \t x\x00")
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			vocab.Run(prog, buf)
		}
	}
	pprof.StopCPUProfile()
	shares, err := cpuShares(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, v := range shares {
		sum += v
	}
	if math.Abs(sum-100) > 1e-6 || shares["vocab"] < 50 {
		t.Errorf("shares %v: want a sum of 100 and most of it in vocab", shares)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, med, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
}
