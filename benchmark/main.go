// Command paperbench is the repository's benchmark: it runs the source
// paper's evaluation workloads through the library's public functions,
// checks every verdict against an oracle that does not use the solver stack,
// and reports end-to-end metrics, or, when traced, attributes the work to the
// library's layers.
//
//	bash benchmark/run.sh --workload table3 --seed 1 --seconds 15 --trace 0
//	bash benchmark/run.sh --seed 1 --seconds 15 --out result.json
//	bash benchmark/run.sh --trace 1 --out trace.json
//
// A run measures each selected workload for at least --seconds seconds in
// whole passes (one pass runs every item of the workload once, in the seeded
// order) and reports medians over the passes. Every pass runs in a child
// process, this binary re-executed, so no heap or cache state carries from
// one pass to the next and peak RSS is the pass's own. With no --workload
// the four workloads take passes in turn, so drift on a shared machine
// spreads over all of them.
//
// With --trace 1, untraced and traced passes alternate: the traced ones carry
// a span tracer, a metrics registry and a CPU profile, and the per-layer
// metrics are medians over them; trace.overhead_pct compares the two kinds.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is 0 only when every
// verdict matched the oracle and no item failed.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
	"time"

	"stringloops/internal/obs"
)

const (
	// passEnv carries a passSpec to a child process.
	passEnv = "PAPERBENCH_PASS"
	// readyLine is the first line a child prints, when its set-up is done.
	readyLine = "ready"
	// runLimit bounds a whole run, so it ends inside three minutes even when
	// a pass takes far longer than usual.
	runLimit = 170 * time.Second
	// setupProbes is how many set-up-only child processes precede each pass.
	// Set-up takes milliseconds, so setup_s needs many samples to be steady.
	setupProbes = 3
)

func main() {
	if spec := os.Getenv(passEnv); spec != "" {
		os.Exit(childMain(spec))
	}
	os.Exit(parentMain(os.Args[1:]))
}

func childMain(specJSON string) int {
	var spec passSpec
	if err := json.Unmarshal([]byte(specJSON), &spec); err != nil {
		fmt.Fprintf(os.Stderr, "paperbench: bad %s: %v\n", passEnv, err)
		return 2
	}
	w, ok := lookupWorkload(spec.Workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "paperbench: unknown workload %q\n", spec.Workload)
		return 2
	}
	p := newPass(spec)
	if err := w.run(p); errors.Is(err, errSetupOnly) {
		return 0
	} else if err != nil {
		fmt.Fprintf(os.Stderr, "paperbench: %s: %v\n", spec.Workload, err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(p.finish()); err != nil {
		fmt.Fprintf(os.Stderr, "paperbench: %v\n", err)
		return 1
	}
	return 0
}

func parentMain(args []string) int {
	fs := flag.NewFlagSet("paperbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: table3, figure3, memverify or serve (default: all four in turn)")
	seed := fs.Int64("seed", 1, "seed of the item order and of the oracle's concrete inputs")
	seconds := fs.Int("seconds", 15, "measure each workload for at least this many seconds, in whole passes")
	trace := fs.Int("trace", 0, "1: alternate untraced and traced passes and report the per-layer metrics")
	out := fs.String("out", "", "write the result report (untraced) or the Chrome trace (traced) to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "paperbench: want --workload NAME --seed N --seconds N --trace 0|1 [--out FILE]")
		return 2
	}
	selected := workloads
	if *name != "" {
		w, ok := lookupWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "paperbench: unknown workload %q\n", *name)
			return 2
		}
		selected = []workload{w}
	}
	traced := *trace == 1

	or, err := newOracle(*seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "paperbench: oracle: %v\n", err)
		return 1
	}
	runs := make([]*workloadRun, len(selected))
	for i, w := range selected {
		runs[i] = &workloadRun{name: w.name}
	}
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()
	minPasses := 3
	if traced {
		minPasses = 4
	}
	budget := time.Duration(*seconds) * time.Second
	for {
		progressed := false
		for _, r := range runs {
			if r.passes >= minPasses && r.spent >= budget {
				continue
			}
			// Start no pass that would likely overrun the run limit.
			if dl, _ := ctx.Deadline(); r.passes > 0 && time.Until(dl) < 2*r.last {
				continue
			}
			progressed = true
			for i := 0; i < setupProbes; i++ {
				po, err := runPass(ctx, passSpec{Workload: r.name, Seed: *seed, SetupOnly: true})
				if err != nil {
					r.errs = append(r.errs, fmt.Sprintf("set-up probe: %v", err))
					continue
				}
				r.setup = append(r.setup, po.setup.Seconds())
			}
			spec := passSpec{Workload: r.name, Seed: *seed, Pass: r.passes, Traced: traced && r.passes%2 == 1}
			spec.Chrome = spec.Traced && *out != "" && r.chrome == nil
			start := time.Now()
			po, err := runPass(ctx, spec)
			r.last = time.Since(start)
			r.spent += r.last
			r.add(spec, po, err, or)
		}
		if !progressed {
			break
		}
	}

	sum := summary{Correct: true, Metrics: map[string]metricValue{}}
	for _, r := range runs {
		prefix := ""
		if len(runs) > 1 {
			prefix = r.name + "."
		}
		sum.Attempted += r.attempted
		sum.Failed += r.failed
		sum.Correct = sum.Correct && r.correct()
		if traced {
			for _, d := range perLayer {
				sum.Metrics[prefix+d.name] = metricValue{Value: r.layerMetric(d.name), Unit: d.unit}
			}
		} else {
			for _, d := range endToEnd {
				sum.Metrics[prefix+d.name] = metricValue{Value: r.spreadOf(d.name).Median, Unit: d.unit}
			}
		}
		for _, e := range r.errs {
			fmt.Fprintf(os.Stderr, "paperbench: %s: %s\n", r.name, e)
		}
	}
	if *out != "" {
		if err := writeOut(*out, runs, *seed, *seconds, traced); err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: %v\n", err)
			sum.Correct = false
		}
	}
	line, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintf(os.Stderr, "paperbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !sum.Correct {
		return 1
	}
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// passOutcome is one pass as the parent sees it.
type passOutcome struct {
	setup time.Duration // child start to its ready line
	rssMB float64       // the child's peak resident set
	res   passResult
}

// runPass runs one pass in a child process and waits for it to exit.
func runPass(ctx context.Context, spec passSpec) (passOutcome, error) {
	exe, err := os.Executable()
	if err != nil {
		return passOutcome{}, err
	}
	raw, err := json.Marshal(spec)
	if err != nil {
		return passOutcome{}, err
	}
	cmd := exec.CommandContext(ctx, exe)
	cmd.Env = append(os.Environ(), passEnv+"="+string(raw))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return passOutcome{}, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return passOutcome{}, err
	}
	rd := bufio.NewReader(stdout)
	first, rerr := rd.ReadString('\n')
	po := passOutcome{setup: time.Since(start)}
	var rest []byte
	if rerr == nil {
		rest, rerr = io.ReadAll(rd)
	}
	if err := cmd.Wait(); err != nil {
		return po, fmt.Errorf("pass process: %w", err)
	}
	if rerr != nil {
		return po, fmt.Errorf("reading pass output: %w", rerr)
	}
	if strings.TrimSpace(first) != readyLine {
		return po, fmt.Errorf("pass process printed %q before its ready line", first)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		po.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	if spec.SetupOnly {
		return po, nil
	}
	if err := json.Unmarshal(rest, &po.res); err != nil {
		return po, fmt.Errorf("pass result: %w", err)
	}
	return po, nil
}

// workloadRun accumulates the passes of one workload.
type workloadRun struct {
	name        string
	passes      int
	spent, last time.Duration
	attempted   int
	failed      int
	mismatches  int
	errs        []string // every failure, mismatch and error: the run is correct when empty
	counts      map[string]int64

	// Untraced passes (and set-up probes, for setup).
	setup, wall, rss []float64
	itemMs           map[string][]float64 // per item key, one latency per pass
	// Traced passes.
	tracedWall []float64
	layers     []map[string]float64
	chrome     json.RawMessage
}

func (r *workloadRun) add(spec passSpec, po passOutcome, err error, or *oracle) {
	r.passes++
	kind := "untraced"
	if spec.Traced {
		kind = "traced"
	}
	if err != nil {
		r.errs = append(r.errs, fmt.Sprintf("pass %d: %v", r.passes, err))
		return
	}
	res := po.res
	failed := 0
	for _, it := range res.Items {
		if it.Err != "" {
			failed++
			r.errs = append(r.errs, fmt.Sprintf("pass %d: %s: %s", r.passes, it.Key, it.Err))
		}
	}
	bad := or.wrongVerdicts(r.name, res.Items)
	bad = append(bad, or.incomplete(r.name, res.Items)...)
	bad = append(bad, checkCounts(r.name, res.Counts)...)
	n := len(bad)
	r.attempted += len(res.Items)
	r.failed += failed
	r.mismatches += n
	r.errs = append(r.errs, bad...)
	if r.counts == nil {
		r.counts = res.Counts
	} else if !maps.Equal(r.counts, res.Counts) {
		r.errs = append(r.errs, fmt.Sprintf("pass %d: counts %v differ from the first pass's %v", r.passes, res.Counts, r.counts))
	}
	if res.TraceErr != "" {
		r.errs = append(r.errs, fmt.Sprintf("pass %d: trace: %s", r.passes, res.TraceErr))
	}
	if spec.Traced {
		r.tracedWall = append(r.tracedWall, res.WallS)
		r.layers = append(r.layers, res.Layers)
		if res.Chrome != nil {
			r.chrome = res.Chrome
		}
	} else {
		r.setup = append(r.setup, po.setup.Seconds())
		r.wall = append(r.wall, res.WallS)
		r.rss = append(r.rss, po.rssMB)
		if r.itemMs == nil {
			r.itemMs = map[string][]float64{}
		}
		for _, it := range res.Items {
			r.itemMs[it.Key] = append(r.itemMs[it.Key], it.Ms)
		}
	}
	fmt.Fprintf(os.Stderr, "paperbench: %-9s pass %2d %-8s setup %.3fs wall %.3fs rss %.0fMB items %d failed %d mismatches %d\n",
		r.name, r.passes, kind, po.setup.Seconds(), res.WallS, po.rssMB, len(res.Items), failed, n)
}

func (r *workloadRun) correct() bool {
	return len(r.wall) > 0 && len(r.errs) == 0
}

// spreadOf is an end-to-end metric's median and quartiles over the untraced
// passes (and set-up probes, for setup_s).
func (r *workloadRun) spreadOf(name string) spread {
	var sp spread
	if pct, ok := map[string]float64{"item_p50_ms": 50, "item_p90_ms": 90}[name]; ok {
		// A latency percentile's spread is the same percentile over each
		// item's first and third quartile.
		sp.Q1, sp.Median, sp.Q3 = r.itemLatency(pct, firstQuartile), r.itemLatency(pct, median), r.itemLatency(pct, thirdQuartile)
		sp.N = len(r.wall)
		return sp
	}
	xs := map[string][]float64{"setup_s": r.setup, "wall_s": r.wall, "peak_rss_mb": r.rss}[name]
	sp.Q1, sp.Median, sp.Q3 = quartiles(xs)
	sp.N = len(xs)
	return sp
}

// layerMetric is a per-layer metric: a median over the traced passes.
func (r *workloadRun) layerMetric(name string) float64 {
	if name == "trace.overhead_pct" {
		if u := median(r.wall); u > 0 {
			return 100 * (median(r.tracedWall)/u - 1)
		}
		return 0
	}
	var vs []float64
	for _, l := range r.layers {
		vs = append(vs, l[name])
	}
	return median(vs)
}

// itemLatency is the p-th percentile, over items, of each item's latency
// across the untraced passes as summarised by of (its median, for the
// reported value). Summarising each item first keeps one garbage-collection
// pause landing on one item in one pass from moving the percentile.
func (r *workloadRun) itemLatency(p float64, of func([]float64) float64) float64 {
	var xs []float64
	for _, ms := range r.itemMs {
		xs = append(xs, of(ms))
	}
	return percentile(xs, p)
}

// report is the --out file of an untraced run, flat enough for cmd/obsdiff:
// workload rows are keyed by name, counts are exact and metrics carry their
// quartiles.
type report struct {
	Benchmark string           `json:"benchmark"`
	Seed      int64            `json:"seed"`
	Seconds   int              `json:"seconds"`
	GoVersion string           `json:"go_version"`
	NumCPU    int              `json:"num_cpu"`
	Workloads []workloadReport `json:"workloads"`
}

type workloadReport struct {
	Name              string            `json:"name"`
	Passes            int               `json:"passes"`
	Attempted         int               `json:"attempted"`
	Failed            int               `json:"failed"`
	FailedFrac        float64           `json:"failed_frac"`
	VerdictMismatches int               `json:"verdict_mismatches"`
	Counts            map[string]int64  `json:"counts"`
	Metrics           map[string]spread `json:"metrics"`
}

type spread struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"` // passes (or set-up samples)
	Unit   string  `json:"unit"`
}

func writeOut(path string, runs []*workloadRun, seed int64, seconds int, traced bool) error {
	var data []byte
	var err error
	if traced {
		data, err = mergeChrome(runs)
	} else {
		rep := report{Benchmark: "paperbench", Seed: seed, Seconds: seconds, GoVersion: runtime.Version(), NumCPU: runtime.NumCPU()}
		for _, r := range runs {
			wr := workloadReport{
				Name: r.name, Passes: r.passes, Attempted: r.attempted, Failed: r.failed,
				VerdictMismatches: r.mismatches, Counts: r.counts, Metrics: map[string]spread{},
			}
			if r.attempted > 0 {
				wr.FailedFrac = float64(r.failed) / float64(r.attempted)
			}
			for _, d := range endToEnd {
				sp := r.spreadOf(d.name)
				sp.Unit = d.unit
				wr.Metrics[d.name] = sp
			}
			rep.Workloads = append(rep.Workloads, wr)
		}
		data, err = json.MarshalIndent(rep, "", "  ")
	}
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// mergeChrome joins the first traced pass of each workload into one Chrome
// trace, one process per workload, and validates the result.
func mergeChrome(runs []*workloadRun) ([]byte, error) {
	var all []map[string]any
	for i, r := range runs {
		if r.chrome == nil {
			continue
		}
		var tr struct {
			TraceEvents []map[string]any `json:"traceEvents"`
		}
		if err := json.Unmarshal(r.chrome, &tr); err != nil {
			return nil, fmt.Errorf("%s trace: %w", r.name, err)
		}
		pid := i + 1
		all = append(all, map[string]any{"name": "process_name", "ph": "M", "pid": pid, "tid": 0, "args": map[string]any{"name": r.name}})
		for _, ev := range tr.TraceEvents {
			ev["pid"] = pid
			all = append(all, ev)
		}
	}
	if all == nil {
		return nil, errors.New("no traced pass recorded a trace")
	}
	data, err := json.Marshal(map[string]any{"traceEvents": all, "displayTimeUnit": "ms"})
	if err != nil {
		return nil, err
	}
	return data, obs.ValidateChromeTrace(data)
}
