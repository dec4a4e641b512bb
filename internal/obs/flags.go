package obs

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers the pprof handlers on DefaultServeMux
	"os"
	"time"
)

// Flags is the shared observability flag surface. Every driver registers it
// once through RegisterFlags, so -trace, -metrics, -report and -pprof mean
// the same thing on loopsum, synth-eval, memverify, bench and diffuzz.
type Flags struct {
	// Trace is the Chrome trace-event JSON output path ("" = off).
	Trace string
	// Flame prints the human-readable flame summary to stderr at exit.
	Flame bool
	// Metrics prints the metrics registry to stderr at exit.
	Metrics bool
	// Report prints the per-loop/per-phase run report table to stdout.
	Report bool
	// ReportJSON writes the run report as JSON to the given path.
	ReportJSON string
	// Pprof serves net/http/pprof on the given address for the lifetime of
	// the run ("" = off) — for profiling the long-running drivers.
	Pprof string
}

// RegisterFlags declares the observability flags on flag.CommandLine and
// returns the destination struct.
func RegisterFlags() *Flags {
	f := &Flags{}
	flag.StringVar(&f.Trace, "trace", "", "write a Chrome trace-event JSON file (open in chrome://tracing)")
	flag.BoolVar(&f.Flame, "flame", false, "print a flame summary of the trace to stderr at exit")
	flag.BoolVar(&f.Metrics, "metrics", false, "print the metrics registry to stderr at exit")
	flag.BoolVar(&f.Report, "report", false, "print the per-loop/per-phase run report table")
	flag.StringVar(&f.ReportJSON, "report-json", "", "write the run report as JSON to this path")
	flag.StringVar(&f.Pprof, "pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	return f
}

// Enabled reports whether any collection is requested (pprof alone does not
// need the tracer or registry).
func (f *Flags) Enabled() bool {
	return f != nil && (f.Trace != "" || f.Flame || f.Metrics || f.Report || f.ReportJSON != "")
}

// Session is one observability-armed run: the tracer, the session metrics
// registry, the report under construction, and the optional pprof listener.
// A disabled session (flags all off) carries nil handles, so drivers wire
// unconditionally and pay nothing.
type Session struct {
	Flags   *Flags
	Tracer  *Tracer
	Metrics *Metrics
	Report  *Report

	epoch   time.Time
	pprofLn net.Listener
}

// Start builds a session from the parsed flags, starting the pprof listener
// when requested. It never fails the run for observability reasons except
// an unusable pprof address, which is a flag error.
func (f *Flags) Start() (*Session, error) {
	s := &Session{Flags: f, epoch: time.Now()}
	if f.Enabled() {
		s.Tracer = New()
		s.Metrics = NewMetrics()
		s.Report = &Report{}
	}
	if f != nil && f.Pprof != "" {
		ln, err := net.Listen("tcp", f.Pprof)
		if err != nil {
			return nil, fmt.Errorf("obs: -pprof %s: %w", f.Pprof, err)
		}
		s.pprofLn = ln
		go http.Serve(ln, nil) //nolint:errcheck // closed by Finish
	}
	return s, nil
}

// Context returns ctx carrying the session's tracer and metrics, for
// threading into engine.NewBudget.
func (s *Session) Context(ctx context.Context) context.Context {
	if s == nil {
		return ctx
	}
	return NewContext(ctx, s.Tracer, s.Metrics)
}

// Item is one corpus item's observability scope: a child tracer on the
// session timeline tagged with the item's worker, and a fresh per-item
// metrics registry so report rows carry per-loop counter deltas. The nil
// Item (disabled session) hands out nil handles.
type Item struct {
	sess    *Session
	loop    string
	program string
	worker  int
	tracer  *Tracer
	metrics *Metrics
	start   time.Time
}

// Item opens an item scope. Safe on a disabled or nil session (returns nil).
func (s *Session) Item(loop, program string, worker int) *Item {
	if s == nil || s.Tracer == nil {
		return nil
	}
	return &Item{
		sess: s, loop: loop, program: program, worker: worker,
		tracer:  s.Tracer.Child(worker),
		metrics: NewMetrics(),
		start:   time.Now(),
	}
}

// Tracer returns the item tracer (nil on a nil item).
func (it *Item) Tracer() *Tracer {
	if it == nil {
		return nil
	}
	return it.tracer
}

// Metrics returns the item registry (nil on a nil item).
func (it *Item) Metrics() *Metrics {
	if it == nil {
		return nil
	}
	return it.metrics
}

// Finish closes the item scope: builds its report row from the item trace
// and metric snapshot and appends it to the session report.
func (it *Item) Finish(outcome string) {
	if it == nil {
		return
	}
	row := BuildLoopRow(it.loop, it.program, outcome, it.tracer, it.metrics.Snapshot(), time.Since(it.start))
	it.sess.Report.Add(row)
}

// Finish writes every requested output: the Chrome trace file, the flame
// summary, the metrics dump, the report table and JSON; then stops pprof.
// Disabled outputs are skipped. The report table goes to stdout, the flame
// summary and metrics dump to stderr.
func (s *Session) Finish() error {
	if s == nil {
		return nil
	}
	if s.pprofLn != nil {
		s.pprofLn.Close()
	}
	f := s.Flags
	if f == nil || !f.Enabled() {
		return nil
	}
	if f.Report {
		s.Report.WriteTable(os.Stdout)
	}
	if f.ReportJSON != "" {
		data, err := s.Report.JSON()
		if err != nil {
			return fmt.Errorf("obs: report JSON: %w", err)
		}
		if err := os.WriteFile(f.ReportJSON, append(data, '\n'), 0o644); err != nil {
			return fmt.Errorf("obs: write %s: %w", f.ReportJSON, err)
		}
	}
	if f.Trace != "" {
		file, err := os.Create(f.Trace)
		if err != nil {
			return fmt.Errorf("obs: write %s: %w", f.Trace, err)
		}
		werr := s.Tracer.WriteChromeTrace(file)
		if cerr := file.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return fmt.Errorf("obs: write %s: %w", f.Trace, werr)
		}
	}
	if f.Flame {
		s.Tracer.FlameSummary(os.Stderr)
	}
	if f.Metrics {
		s.Metrics.Dump(os.Stderr)
	}
	return nil
}
