// Command loopsum is the refactoring tool of §4.5: it reads a C file,
// summarises a string loop, and prints the equivalent standard-library form
// ready to submit as a patch.
//
//	loopsum [-func name] [-vocab LETTERS] [-timeout 30s] file.c
//
// With -candidates it instead runs the automatic filter pipeline over the
// whole file and reports which loops are worth summarising.
//
// With -corpus it sweeps the built-in loop database instead of a file — the
// observability smoke mode: combined with -trace/-report it produces a
// Chrome trace and a per-loop/per-phase run report, and it cross-checks that
// the report's counter totals reconcile exactly with the per-loop budget
// spend (exiting non-zero on drift).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"stringloops"
	"stringloops/internal/cliflags"
	"stringloops/internal/core"
	"stringloops/internal/engine"
	"stringloops/internal/loopdb"
	"stringloops/internal/obs"
	"stringloops/internal/service"
)

func main() {
	funcName := flag.String("func", "", "function to summarise (default: first char *f(char *))")
	vocabLetters := flag.String("vocab", "", "restrict the vocabulary (Table 1 opcode letters, e.g. MPNIFV)")
	timeout := flag.Duration("timeout", 30*time.Second, "synthesis budget")
	maxSize := flag.Int("maxsize", 9, "maximum encoded program size")
	requireMem := flag.Bool("memoryless", false, "fail unless the loop verifies memoryless (summary then holds for all lengths)")
	resilient := cliflags.Resilient()
	candidates := flag.Bool("candidates", false, "list loop candidates instead of summarising")
	check := flag.String("check", "", "verify a refactoring: 'original,refactored' function names")
	corpus := flag.Bool("corpus", false, "summarise the built-in loop database instead of a file")
	sample := flag.Int("sample", 0, "with -corpus: only the first N loops (0 = all)")
	jobs := cliflags.Jobs(1)
	pipeFlags := cliflags.Pipeline()
	server := cliflags.Server()
	explain := cliflags.Explain()
	obsFlags := obs.RegisterFlags()
	flag.Parse()

	if *corpus {
		os.Exit(runCorpus(*sample, *jobs, *timeout, *maxSize, pipeFlags, obsFlags))
	}

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: loopsum [flags] file.c")
		flag.PrintDefaults()
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "loopsum: %v\n", err)
		os.Exit(1)
	}

	if *check != "" {
		parts := strings.SplitN(*check, ",", 2)
		if len(parts) != 2 {
			fmt.Fprintln(os.Stderr, "loopsum: -check wants 'original,refactored'")
			os.Exit(2)
		}
		ok, cex, err := stringloops.CheckRefactoring(string(src), parts[0], parts[1], 3)
		if err != nil {
			fmt.Fprintf(os.Stderr, "loopsum: %v\n", err)
			os.Exit(1)
		}
		if ok {
			fmt.Printf("%s and %s are equivalent on all bounded strings and NULL\n", parts[0], parts[1])
			return
		}
		fmt.Printf("NOT equivalent: they differ on input %q\n", cex)
		os.Exit(1)
	}

	if *candidates {
		cands, err := stringloops.FindCandidates(string(src))
		if err != nil {
			fmt.Fprintf(os.Stderr, "loopsum: %v\n", err)
			os.Exit(1)
		}
		for _, c := range cands {
			fmt.Printf("%-32s %s\n", c.Function, c.Stage)
		}
		return
	}

	if *server != "" {
		os.Exit(runRemote(*server, string(src), *funcName, *vocabLetters, *maxSize, *requireMem, *explain, obsFlags))
	}

	opts := stringloops.Options{
		Vocabulary:        *vocabLetters,
		MaxProgramSize:    *maxSize,
		Timeout:           *timeout,
		RequireMemoryless: *requireMem,
		Merge:             *pipeFlags.Merge,
		CacheDir:          *pipeFlags.CacheDir,
		CacheMaxBytes:     *pipeFlags.CacheMaxBytes,
	}

	if *resilient {
		runResilient(string(src), *funcName, opts)
		return
	}

	summary, err := stringloops.SummarizeFunc(string(src), *funcName, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "loopsum: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("summary:   %s\n", summary.Readable)
	fmt.Printf("encoded:   %q\n", summary.Encoded)
	if summary.Memoryless {
		fmt.Printf("verified:  memoryless (%s traversal) — equivalent on strings of every length\n", summary.Direction)
	} else {
		fmt.Printf("verified:  equivalent on all strings up to the bounded length\n")
	}
	fmt.Printf("synthesis: %v\n\n", summary.Elapsed.Round(time.Millisecond))
	fmt.Println(summary.C)
}

// runCorpus sweeps the loop database with a per-loop budget carrying the
// session's observability handles, then reconciles the report's counter
// totals against the summed budget spend: both sides count through the same
// engine.Budget mirrors, so any drift means an instrumentation bug.
func runCorpus(sample, jobs int, timeout time.Duration, maxSize int, pipeFlags *cliflags.PipelineFlags, obsFlags *obs.Flags) int {
	sess, err := obsFlags.Start()
	if err != nil {
		fmt.Fprintf(os.Stderr, "loopsum: %v\n", err)
		return 2
	}
	pipe, closePipe, err := pipeFlags.Open()
	if err != nil {
		fmt.Fprintf(os.Stderr, "loopsum: %v\n", err)
		return 2
	}
	loops := loopdb.Corpus()
	if sample > 0 && sample < len(loops) {
		loops = loops[:sample]
	}
	budgets := make([]*engine.Budget, len(loops))
	outcomes := make([]string, len(loops))
	engine.MapWorker(engine.Workers(jobs, len(loops)), len(loops), func(worker, i int) {
		l := loops[i]
		item := sess.Item(l.Name, l.Program, worker)
		budget := engine.NewBudget(nil, engine.Limits{Timeout: timeout}).
			SetObs(item.Tracer(), item.Metrics())
		budgets[i] = budget
		_, err := core.Summarize(l.Source, l.FuncName, core.Options{
			MaxProgramSize: maxSize,
			Timeout:        timeout,
			Budget:         budget,
			Pipeline:       pipe,
		})
		switch {
		case err == nil:
			outcomes[i] = "ok"
		case errors.Is(err, core.ErrNotFound):
			outcomes[i] = "notfound"
		default:
			outcomes[i] = "error"
		}
		item.Finish(outcomes[i])
	})

	found := 0
	for _, o := range outcomes {
		if o == "ok" {
			found++
		}
	}
	fmt.Printf("corpus: %d/%d loops summarised\n", found, len(loops))
	if err := closePipe(); err != nil {
		fmt.Fprintf(os.Stderr, "loopsum: cache persist: %v\n", err)
	}
	if err := sess.Finish(); err != nil {
		fmt.Fprintf(os.Stderr, "loopsum: %v\n", err)
		return 1
	}
	if sess.Report != nil {
		if err := reconcile(sess, budgets); err != nil {
			fmt.Fprintf(os.Stderr, "loopsum: reconcile: %v\n", err)
			return 1
		}
		fmt.Println("reconcile: report totals match budget spend")
	}
	return 0
}

// reconcile checks that the report's counter totals equal the summed
// per-loop budget spend, counter by counter.
func reconcile(sess *obs.Session, budgets []*engine.Budget) error {
	var spend engine.Spend
	for _, b := range budgets {
		spend.Add(b.Spend())
	}
	_, totals := sess.Report.Totals()
	return spend.Reconcile(totals)
}

// runResilient walks the degradation ladder and reports the best rung
// reached. Degraded outcomes (any rung above failed) exit zero — only an
// infrastructure failure, where even the concrete floor produced nothing,
// is a process failure.
func runResilient(src, funcName string, opts stringloops.Options) {
	out := stringloops.SummarizeResilient(src, funcName, opts)
	fmt.Printf("rung:      %s\n", out.Rung)
	for i, a := range out.Attempts {
		status := "ok"
		switch {
		case a.Panicked:
			status = "panic: " + a.Err.Error()
		case a.Err != nil:
			status = a.Err.Error()
		}
		fmt.Printf("attempt %d: %-10s %s\n", i+1, a.Rung, status)
	}
	if out.Rung == stringloops.RungFailed {
		fmt.Fprintf(os.Stderr, "loopsum: even the concrete floor failed: %v\n", out.Err)
		os.Exit(1)
	}
	printPayload(out.Summary, out.Memoryless, out.Covering, out.Smoke)
}

// printPayload renders the payload of the rung a ladder reached — the one
// set argument — for both the local ladder and the daemon's answer.
func printPayload(sum *core.Summary, mem *core.MemorylessReport, covering, smoke []core.TestInput) {
	printInputs := func(ins []core.TestInput) {
		for _, ti := range ins {
			fmt.Printf("  %q -> offset %d null=%v\n", ti.Input, ti.Offset, ti.Null)
		}
	}
	switch {
	case sum != nil:
		fmt.Printf("summary:   %s\n", sum.Readable)
		fmt.Printf("encoded:   %q\n\n", sum.Encoded)
		fmt.Println(sum.C)
	case mem != nil:
		fmt.Printf("verdict:   memoryless=%v (%s)\n", mem.Memoryless, mem.Reason)
	case covering != nil:
		fmt.Printf("covering:  %d path-covering inputs\n", len(covering))
		printInputs(covering)
	case smoke != nil:
		fmt.Printf("smoke:     %d concrete runs\n", len(smoke))
		printInputs(smoke)
	}
}

// runRemote posts the source to a running loopsumd daemon (-server mode)
// and renders the daemon's verdict in the resilient-run format. The
// client retries 429/5xx with capped exponential backoff, honoring the
// daemon's Retry-After hints. With -explain it also renders the daemon's
// provenance record; with -trace it writes the client-side spans, which
// tracecheck -merge can join with the daemon's trace.
func runRemote(base, src, funcName, vocab string, maxSize int, requireMem, explain bool, obsFlags *obs.Flags) int {
	sess, err := obsFlags.Start()
	if err != nil {
		fmt.Fprintf(os.Stderr, "loopsum: %v\n", err)
		return 2
	}
	client := &service.Client{Base: base, ClientID: "loopsum-cli", Tracer: sess.Tracer}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	resp, err := client.Summarize(ctx, service.Request{
		Source:            src,
		Func:              funcName,
		Vocabulary:        vocab,
		MaxProgramSize:    maxSize,
		RequireMemoryless: requireMem,
		Explain:           explain,
	})
	if ferr := sess.Finish(); ferr != nil {
		fmt.Fprintf(os.Stderr, "loopsum: %v\n", ferr)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "loopsum: %v\n", err)
		return 1
	}
	fmt.Printf("rung:      %s (started at %s, %d attempts, %v server time)\n",
		resp.Rung, resp.StartRung, resp.Attempts, time.Duration(resp.ElapsedNs).Round(time.Millisecond))
	printPayload(resp.Summary, resp.Memoryless, resp.Covering, resp.Smoke)
	if resp.Degraded != "" {
		fmt.Printf("degraded:  %s\n", resp.Degraded)
	}
	if resp.Provenance != nil {
		printProvenance(resp.Provenance)
	}
	return 0
}

// printProvenance renders the daemon's provenance record: why the request
// started on its rung, what each attempt spent, and whether the spend
// totals reconciled against the engine budgets.
func printProvenance(p *service.Provenance) {
	fmt.Println("\nprovenance:")
	if p.TraceID != "" {
		fmt.Printf("  trace:     %s\n", p.TraceID)
	}
	policy := fmt.Sprintf("load=%.2f p99=%v", p.LoadFraction, time.Duration(p.P99SignalNs).Round(time.Microsecond))
	switch {
	case p.PolicyDisabled:
		policy = "overload policy disabled"
	case p.Draining:
		policy = "draining (floor rung forced)"
	}
	fmt.Printf("  rung:      start=%s final=%s floor=%s (%s)\n", p.StartRung, p.FinalRung, p.FloorRung, policy)
	for i, a := range p.Attempts {
		status := "ok"
		switch {
		case a.Panicked:
			status = "panic: " + a.Err
		case a.Err != "":
			status = a.Err
		}
		fmt.Printf("  attempt %d: %-10s %-24s %v\n", i+1, a.Rung, status,
			time.Duration(a.ElapsedNs).Round(time.Microsecond))
		if a.Spend != nil {
			fmt.Printf("             %s\n", spendLine(*a.Spend))
		}
	}
	fmt.Printf("  totals:    %s\n", spendLine(p.Totals))
	if p.Reconciled {
		fmt.Println("  reconcile: spend totals match engine budgets")
	} else {
		fmt.Println("  reconcile: DRIFT against engine budgets (instrumentation bug)")
	}
}

// spendLine formats the non-zero counters of a spend record, so quiet
// attempts stay one short line instead of a row of zeroes.
func spendLine(s engine.Spend) string {
	if line := s.String(); line != "" {
		return line
	}
	return "(no solver spend)"
}
