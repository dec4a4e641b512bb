// Command loopsumd is the summarization daemon: an HTTP/JSON service over
// the loop-summarization pipeline, engineered for overload.
//
//	loopsumd [-addr :8419] [-inflight N] [-queue N] [-req-timeout 30s] ...
//
// POST a C loop to /summarize and get back the best rung of the
// degradation ladder the current load allows — a full summary on a quiet
// server, a memoryless verdict or concrete tests under pressure. The
// admission queue is bounded (429 + Retry-After past capacity), each
// request runs under a budget carved from the global envelope, and
// SIGTERM drains gracefully: stop admitting, answer everything already
// in the door (down-laddered to the smoke floor), flush the persistent
// cache tier, exit. Finished results are memoized in memory for the
// daemon's lifetime, so a repeated loop is answered without running the
// pipeline; -cache-dir makes that memo persistent. See DESIGN.md §14 and the README's "Running the
// daemon" section.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"stringloops/internal/cliflags"
	"stringloops/internal/core"
	"stringloops/internal/engine"
	"stringloops/internal/obs"
	"stringloops/internal/service"
)

func main() {
	os.Exit(run())
}

func run() int {
	addr := flag.String("addr", ":8419", "listen address")
	inflight := flag.Int("inflight", 0, "max requests running the pipeline concurrently (0 = one per CPU)")
	queue := flag.Int("queue", 0, "max requests waiting for a slot (0 = 8x inflight); past it requests get 429")
	reqTimeout := flag.Duration("req-timeout", 30*time.Second, "per-request deadline, queue wait included")
	drainTimeout := flag.Duration("drain-timeout", 60*time.Second, "SIGTERM drain deadline: answer every admitted request within it")
	maxBody := flag.Int64("max-body", 1<<20, "request body cap in bytes (413 past it)")
	conflicts := flag.Int64("conflicts", 0, "global SAT-conflict envelope, carved evenly across inflight slots (0 = unlimited)")
	nodes := flag.Int64("nodes", 0, "global expression-node envelope, carved across slots (0 = unlimited)")
	forks := flag.Int64("forks", 0, "global symbolic-fork envelope, carved across slots (0 = unlimited)")
	rate := flag.Float64("rate", 0, "per-client requests/sec token-bucket rate (0 = no rate limiting)")
	burst := flag.Float64("burst", 10, "per-client token-bucket burst")
	degradeMem := flag.Float64("degrade-memoryless", 0.50, "load fraction at which new requests start at the memoryless rung")
	degradeCov := flag.Float64("degrade-covering", 0.75, "load fraction at which new requests start at covering inputs")
	degradeSmoke := flag.Float64("degrade-smoke", 0.90, "load fraction at which new requests start at the concrete smoke floor")
	targetP99 := flag.Duration("target-p99", 0, "degrade one extra rung while recent p99 exceeds this (0 = load signal only)")
	vocabLetters := flag.String("vocab", "", "restrict the synthesis vocabulary (Table 1 opcode letters)")
	pipeFlags := cliflags.Pipeline()
	trace := flag.String("trace", "", "arm the tracer; GET /trace serves the Chrome trace-event JSON (the value names the shutdown dump file, '-' = no dump)")
	flag.Parse()

	// Drain closes the pipeline's tier, so its close is not kept here.
	pipe, _, err := pipeFlags.Open()
	if err != nil {
		fmt.Fprintf(os.Stderr, "loopsumd: %v\n", err)
		return 1
	}
	var tracer *obs.Tracer
	if *trace != "" {
		tracer = obs.New()
	}
	metrics := obs.NewMetrics()

	srv := service.New(service.Config{
		MaxInFlight:    *inflight,
		QueueDepth:     *queue,
		MaxSourceBytes: *maxBody,
		RequestTimeout: *reqTimeout,
		GlobalLimits:   engine.Limits{Conflicts: *conflicts, Nodes: *nodes, Forks: *forks},
		RatePerSec:     *rate,
		Burst:          *burst,
		Overload: service.OverloadPolicy{
			MemorylessAt: *degradeMem,
			CoveringAt:   *degradeCov,
			SmokeAt:      *degradeSmoke,
			TargetP99:    *targetP99,
		},
		StartRung:  core.RungFull,
		Pipeline:   pipe,
		Vocabulary: *vocabLetters,
		Tracer:     tracer,
		Metrics:    metrics,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "loopsumd: %v\n", err)
		return 1
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	fmt.Printf("loopsumd: listening on %s\n", ln.Addr())

	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-sigCh:
		fmt.Printf("loopsumd: %v: draining (deadline %v)\n", sig, *drainTimeout)
	case err := <-errCh:
		fmt.Fprintf(os.Stderr, "loopsumd: serve: %v\n", err)
		return 1
	}

	// Drain: refuse new work, answer everything admitted (down-laddered to
	// the smoke floor), flush the cache tier — then close the listener.
	// The HTTP shutdown runs after the drain so every answered request
	// gets its bytes onto the wire before connections close.
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	code := 0
	if err := srv.Drain(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "loopsumd: drain: %v\n", err)
		code = 1
	}
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "loopsumd: shutdown: %v\n", err)
		code = 1
	}
	<-errCh // Serve has returned ErrServerClosed
	if tracer != nil && *trace != "-" {
		f, err := os.Create(*trace)
		if err == nil {
			err = tracer.WriteChromeTrace(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "loopsumd: trace dump: %v\n", err)
		}
	}
	fmt.Println("loopsumd: drained")
	return code
}
