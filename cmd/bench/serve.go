package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"stringloops/internal/engine"
	"stringloops/internal/leakcheck"
	"stringloops/internal/loopdb"
	"stringloops/internal/obs"
	"stringloops/internal/service"
)

// daemon is a service.Server running in-process on a loopback listener,
// with an HTTP client pooled for the lane's concurrency.
type daemon struct {
	srv  *service.Server
	base string
	hc   *http.Client
	http *http.Server
	done chan error
}

func startDaemon(cfg service.Config, conns int) *daemon {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fatal("listen: %v", err)
	}
	d := &daemon{
		srv:  service.New(cfg),
		base: "http://" + ln.Addr().String(),
		hc:   &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: conns}},
		done: make(chan error, 1),
	}
	d.http = &http.Server{Handler: d.srv.Handler()}
	go func() { d.done <- d.http.Serve(ln) }()
	return d
}

// stop shuts the HTTP server down and drops the client's idle connections.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	d.http.Shutdown(ctx)
	<-d.done
	d.hc.CloseIdleConnections()
}

// benchTB adapts leakcheck's TB to the harness: each failure prints and
// counts as one leak.
type benchTB struct{ leaks int }

func (b *benchTB) Helper() {}
func (b *benchTB) Errorf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	b.leaks++
}

// goroutineLeaks counts the goroutines still alive once a stopped daemon's
// grace window has passed.
func goroutineLeaks() int {
	tb := &benchTB{}
	leakcheck.CheckWithin(tb, 10*time.Second)
	return tb.leaks
}

// serveLane writes BENCH_9.json: it boots the daemon in-process, sustains
// `concurrency` outstanding requests over the corpus, then triggers a drain
// while a second wave of clients is still firing — the SIGTERM-under-full-
// load scenario. Its counts are invariants that hold at any size (CI gates a
// -short run against the full file); with check it also gates the high-water
// mark and the drain deadline.
func serveLane(a laneArgs) {
	const concurrency = 200
	requests := int64(a.pick(1500, 600))
	cfg := service.Config{
		MaxInFlight:  runtime.GOMAXPROCS(0),
		QueueDepth:   256,
		GlobalLimits: engine.Limits{Conflicts: 5000, Forks: 20000, Nodes: 500000},
		Metrics:      obs.NewMetrics(),
	}
	cfg.GlobalLimits.Conflicts *= int64(cfg.MaxInFlight)
	cfg.GlobalLimits.Forks *= int64(cfg.MaxInFlight)
	cfg.GlobalLimits.Nodes *= int64(cfg.MaxInFlight)
	d := startDaemon(cfg, concurrency)

	reqs := make([]service.Request, 0, 12)
	for _, l := range loopdb.Corpus()[:12] {
		reqs = append(reqs, service.Request{Source: l.Source, Func: l.FuncName})
	}

	// Load phase: `concurrency` workers keep one request outstanding each,
	// retrying sheds through the service client so every logical request
	// eventually completes.
	var next, outstanding, highWater, answered, completed, retries atomic.Int64
	latencies := make([][]time.Duration, concurrency)
	var wg sync.WaitGroup
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lat := make([]time.Duration, 0, int(requests)/concurrency+1)
			cl := &service.Client{
				Base: d.base, HTTP: d.hc, MaxRetries: 8, Seed: uint64(w + 1),
				ClientID: fmt.Sprintf("bench-%d", w%16),
				Sleep: func(ctx context.Context, wait time.Duration) error {
					retries.Add(1)
					time.Sleep(min(wait, 10*time.Millisecond))
					return nil
				},
			}
			for {
				i := next.Add(1)
				if i > requests {
					latencies[w] = lat
					return
				}
				if o := outstanding.Add(1); o > highWater.Load() {
					highWater.Store(o)
				}
				began := time.Now()
				_, err := cl.Summarize(context.Background(), reqs[int(i)%len(reqs)])
				lat = append(lat, time.Since(began))
				outstanding.Add(-1)
				answered.Add(1)
				if err == nil {
					completed.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	var all []time.Duration
	for _, l := range latencies {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })

	// Drain phase: a second wave keeps firing while Drain runs. Every
	// request in flight when the drain begins must be answered — at a
	// lower rung or with a clean retryable 503, never a broken connection.
	stop := make(chan struct{})
	var drainFired, drainAnswered atomic.Int64
	var wave sync.WaitGroup
	for w := 0; w < concurrency; w++ {
		wave.Add(1)
		go func(w int) {
			defer wave.Done()
			body, err := json.Marshal(reqs[w%len(reqs)])
			if err != nil {
				fatal("serve lane request encode: %v", err)
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				drainFired.Add(1)
				resp, err := d.hc.Post(d.base+"/summarize", "application/json", bytes.NewReader(body))
				if err != nil {
					continue // a broken connection stays unanswered
				}
				resp.Body.Close()
				drainAnswered.Add(1)
			}
		}(w)
	}
	time.Sleep(50 * time.Millisecond)
	const drainDeadline = 60 * time.Second
	dctx, dcancel := context.WithTimeout(context.Background(), drainDeadline)
	drainStart := time.Now()
	drainErr := d.srv.Drain(dctx)
	drainTime := time.Since(drainStart)
	dcancel()
	close(stop)
	wave.Wait()
	d.stop()

	snap := cfg.Metrics.Snapshot()
	rungs, startRungs := map[string]int64{}, map[string]int64{}
	for name, v := range snap.Counters {
		if r, ok := strings.CutPrefix(name, service.MSvcRungPrefix); ok {
			rungs[r] = v
		}
		if r, ok := strings.CutPrefix(name, service.MSvcStartPrefix); ok {
			startRungs[r] = v
		}
	}
	shed := snap.Counters[service.MSvcShedQueueFull] + snap.Counters[service.MSvcShedRateLimit] +
		snap.Counters[service.MSvcShedDraining] + snap.Counters[service.MSvcShedInjected]
	shedRate := 0.0
	if total := snap.Counters[service.MSvcRequests]; total > 0 {
		shedRate = float64(shed) / float64(total)
	}
	var p50, p99 time.Duration
	if len(all) > 0 {
		p50, p99 = all[len(all)/2], all[len(all)*99/100]
	}

	unanswered, incomplete := requests-answered.Load(), requests-completed.Load()
	drainUnanswered := drainFired.Load() - drainAnswered.Load()
	drift, leaks := snap.Counters[service.MSvcReconcileDrift], goroutineLeaks()

	report{Benchmark: "BenchmarkServeDaemon", Counts: map[string]any{
		"unanswered": unanswered, "incomplete": incomplete, "drain_unanswered": drainUnanswered,
		"drain_clean": drainErr == nil, "reconcile_drift": drift, "goroutine_leaks": leaks,
	}, Metrics: map[string]any{
		"max_inflight": cfg.MaxInFlight, "queue_depth": cfg.QueueDepth, "concurrency": concurrency,
		"requests": requests, "answered": answered.Load(), "completed": completed.Load(),
		"high_water": highWater.Load(), "retries_spent": retries.Load(),
		"p50_ns": p50, "p99_ns": p99, "shed": shed, "shed_rate": shedRate,
		"rung_histogram": rungs, "start_rung_histogram": startRungs,
		"drain_phase_requests": drainFired.Load(), "drain_phase_answered": drainAnswered.Load(),
		"drain_ns": drainTime,
	}}.write(a.out)

	if a.check {
		switch {
		case unanswered != 0:
			fatal("serve check failed: %d of %d load requests answered", answered.Load(), requests)
		case incomplete != 0:
			fatal("serve check failed: %d of %d load requests completed after retries", completed.Load(), requests)
		case highWater.Load() < concurrency*9/10:
			fatal("serve check failed: high-water concurrency %d never approached %d", highWater.Load(), concurrency)
		case drainErr != nil:
			fatal("serve check failed: drain under load: %v", drainErr)
		case drainTime >= drainDeadline:
			fatal("serve check failed: drain took %v (deadline %v)", drainTime, drainDeadline)
		case drainUnanswered != 0:
			fatal("serve check failed: %d of %d drain-phase requests answered (broken connections)",
				drainAnswered.Load(), drainFired.Load())
		case drift != 0:
			fatal("serve check failed: %d requests with budget<->metrics drift", drift)
		case leaks != 0:
			fatal("serve check failed: %d leaked goroutines", leaks)
		}
		fmt.Printf("serve check ok: %d requests, high-water %d, p50 %v, p99 %v, shed rate %.3f, drain %v\n",
			requests, highWater.Load(), p50, p99, shedRate, drainTime)
	}
}
