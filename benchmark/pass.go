package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"time"

	"stringloops/internal/engine"
	"stringloops/internal/obs"
)

// passSpec tells a child process which pass to run; the parent hands it
// over in the passEnv environment variable.
type passSpec struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// Pass numbers the passes of a run; each pass has its own seeded
	// order, so order effects average out within a run.
	Pass   int  `json:"pass"`
	Traced bool `json:"traced"`
	// Chrome asks for the pass's Chrome trace in the result.
	Chrome bool `json:"chrome,omitempty"`
	// SetupOnly ends the pass at its ready line: a set-up sample.
	SetupOnly bool `json:"setup_only,omitempty"`
	// Items, when positive, keeps only the workload's first Items items
	// (in corpus order, then seeded): the tests' smoke passes.
	Items int `json:"items,omitempty"`
}

// errSetupOnly unwinds a workload whose pass ends after set-up.
var errSetupOnly = errors.New("set-up only")

// itemResult is one measured item: a loop (or loop and length, or request)
// with its latency and the verdict the oracle checks.
type itemResult struct {
	Key     string  `json:"key"`
	Ms      float64 `json:"ms"`
	Verdict string  `json:"verdict,omitempty"`
	Err     string  `json:"err,omitempty"`
}

// passResult is what a child reports for one pass.
type passResult struct {
	WallS float64      `json:"wall_s"`
	Items []itemResult `json:"items"`
	// Counts are exact work and verdict counts that do not depend on the
	// machine; every pass of a run must report the same ones.
	Counts map[string]int64 `json:"counts"`
	// Layers holds the per-layer metrics of a traced pass.
	Layers   map[string]float64 `json:"layers,omitempty"`
	Chrome   json.RawMessage    `json:"chrome,omitempty"`
	TraceErr string             `json:"trace_err,omitempty"`
}

// pass is the child-side state of one pass: the observability handles of a
// traced pass, the clock, and the items measured so far.
type pass struct {
	spec passSpec
	out  io.Writer // where the ready line goes

	ctx     context.Context // carries the tracer and registry when traced
	tracer  *obs.Tracer     // nil when untraced
	metrics *obs.Metrics    // nil when untraced
	prof    bytes.Buffer
	mem0    runtime.MemStats
	start   time.Time // the ready line
	end     time.Time // the last item's end: teardown is not measured

	mu     sync.Mutex
	items  []itemResult
	counts map[string]int64
	layers map[string]float64
}

func newPass(spec passSpec) *pass {
	p := &pass{spec: spec, out: os.Stdout, ctx: context.Background(), counts: map[string]int64{}, layers: map[string]float64{}}
	if spec.Traced {
		p.tracer, p.metrics = obs.New(), obs.NewMetrics()
		p.ctx = obs.NewContext(p.ctx, p.tracer, p.metrics)
	}
	return p
}

// ready ends set-up: it tells the parent, which times set-up up to this
// line, and starts the pass clock (and, when traced, the CPU profile). It
// returns errSetupOnly when the pass is only a set-up sample.
func (p *pass) ready() error {
	if _, err := fmt.Fprintln(p.out, readyLine); err != nil {
		return err
	}
	if p.spec.SetupOnly {
		return errSetupOnly
	}
	if p.spec.Traced {
		runtime.ReadMemStats(&p.mem0)
		if err := pprof.StartCPUProfile(&p.prof); err != nil {
			return err
		}
	}
	p.start = time.Now()
	return nil
}

// order is the seeded order of the pass's n items: a permutation that
// depends only on the seed, the workload's name and the pass number.
func (p *pass) order(n int) []int {
	if p.spec.Items > 0 && p.spec.Items < n {
		n = p.spec.Items
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d/%d", p.spec.Workload, p.spec.Seed, p.spec.Pass)
	return rand.New(rand.NewSource(int64(h.Sum64()))).Perm(n)
}

// budget is an unlimited budget for one public call; a traced pass's budget
// carries the tracer and registry into every layer below.
func (p *pass) budget() *engine.Budget { return engine.NewBudget(p.ctx, engine.Limits{}) }

// span opens one of the benchmark's own spans on lane t and returns its end.
func span(t *obs.Tracer, name string) func() { return t.Start(name).End }

// item runs and times one item. It is safe for concurrent use.
func (p *pass) item(key string, run func() (string, error)) {
	t0 := time.Now()
	verdict, err := run()
	t1 := time.Now()
	r := itemResult{Key: key, Ms: float64(t1.Sub(t0)) / 1e6, Verdict: verdict}
	if err != nil {
		r.Err = err.Error()
	}
	p.mu.Lock()
	p.items = append(p.items, r)
	if t1.After(p.end) {
		p.end = t1
	}
	p.mu.Unlock()
}

// count adds to an exact count. It is safe for concurrent use.
func (p *pass) count(name string, v int64) {
	p.mu.Lock()
	p.counts[name] += v
	p.mu.Unlock()
}

// layer adds to a per-layer metric the registry does not carry. It is safe
// for concurrent use.
func (p *pass) layer(name string, v float64) {
	p.mu.Lock()
	p.layers[name] += v
	p.mu.Unlock()
}

// finish stops the clock and, for a traced pass, attributes the pass to the
// layers: span self times, registry counters, CPU shares and allocation.
func (p *pass) finish() passResult {
	res := passResult{WallS: p.end.Sub(p.start).Seconds(), Items: p.items, Counts: p.counts}
	if !p.spec.Traced {
		return res
	}
	pprof.StopCPUProfile()
	var mem1 runtime.MemStats
	runtime.ReadMemStats(&mem1)

	layers := p.layers
	for name, s := range selfTimes(p.tracer.Events()) {
		if m, ok := spanLayers[name]; ok {
			layers[m] += s
		}
	}
	snap := p.metrics.Snapshot()
	for _, name := range registryCounters {
		layers[name] += float64(snap.Counters[name])
	}
	layers["qcache.solve_s"] += float64(snap.Hists[obs.MQCacheSolveNs].Sum) / 1e9
	if q := layers[obs.MQCacheHits] + layers[obs.MQCacheMisses]; q > 0 {
		layers["qcache.hit_rate"] = layers[obs.MQCacheHits] / q
	}
	layers["runtime.alloc_mb"] = float64(mem1.TotalAlloc-p.mem0.TotalAlloc) / (1 << 20)
	layers["runtime.gc_cycles"] = float64(mem1.NumGC - p.mem0.NumGC)
	shares, err := cpuShares(p.prof.Bytes())
	if err != nil {
		res.TraceErr = err.Error()
	}
	for l, v := range shares {
		layers["cpu."+l+"_pct"] = v
	}
	res.Layers = layers

	var chrome bytes.Buffer
	if err := p.tracer.WriteChromeTrace(&chrome); err != nil {
		res.TraceErr = err.Error()
	} else if err := obs.ValidateChromeTrace(chrome.Bytes()); err != nil {
		res.TraceErr = err.Error()
	} else if p.spec.Chrome {
		res.Chrome = chrome.Bytes()
	}
	return res
}

// selfTimes sums, per span name, each span's duration minus the part of it
// its direct child spans cover, in seconds. Spans nest by time within one
// lane (worker) of one request (trace id); concurrent requests on a shared
// lane stay apart because each carries its own trace id.
func selfTimes(events []obs.Event) map[string]float64 {
	type lane struct {
		worker int
		trace  string
	}
	lanes := map[lane][]obs.Event{}
	for _, ev := range events {
		k := lane{ev.Worker, ev.Trace}
		lanes[k] = append(lanes[k], ev)
	}
	self := map[string]float64{}
	for _, evs := range lanes {
		sort.SliceStable(evs, func(i, j int) bool {
			if evs[i].Start != evs[j].Start {
				return evs[i].Start < evs[j].Start
			}
			return evs[i].Dur > evs[j].Dur
		})
		covered := make([]int64, len(evs))
		var open []int // indices of enclosing spans, innermost last
		for i, ev := range evs {
			for len(open) > 0 {
				top := evs[open[len(open)-1]]
				if top.Start+top.Dur > ev.Start {
					break
				}
				open = open[:len(open)-1]
			}
			if len(open) > 0 {
				parent := open[len(open)-1]
				end := min(ev.Start+ev.Dur, evs[parent].Start+evs[parent].Dur)
				covered[parent] += end - ev.Start
			}
			open = append(open, i)
		}
		for i, ev := range evs {
			self[ev.Name] += float64(ev.Dur-covered[i]) / 1e9
		}
	}
	return self
}
