// Command synth-eval runs the synthesis evaluation of §4.2: one sweep over
// the 115-loop corpus produces Table 3 (-table3: loops synthesised per
// program with average/median times) and Figure 2 (-figure2: programs
// synthesised as the maximum program size grows, at several timeouts —
// derived from the sweep because iterative deepening visits sizes in order).
//
// The paper's budgets (2h timeout on a KLEE+Z3 stack) scale here to seconds;
// override with -timeout.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"stringloops/internal/cegis"
	"stringloops/internal/cliflags"
	"stringloops/internal/core"
	"stringloops/internal/engine"
	"stringloops/internal/harness"
	"stringloops/internal/loopdb"
	"stringloops/internal/obs"
	"stringloops/internal/symex"
)

func main() {
	table3 := flag.Bool("table3", false, "print Table 3")
	figure2 := flag.Bool("figure2", false, "print Figure 2 series")
	timeout := flag.Duration("timeout", 15*time.Second, "per-loop synthesis budget (paper: 2h)")
	maxSize := flag.Int("maxsize", 9, "maximum encoded program size")
	maxSet := flag.Int("maxset", 3, "maximum strspn-family set size (4 reaches the libosip outliers)")
	verbose := flag.Bool("v", false, "per-loop progress")
	jobs := cliflags.Jobs(1)
	resilient := cliflags.Resilient()
	pipeFlags := cliflags.Pipeline()
	obsFlags := obs.RegisterFlags()
	flag.Parse()
	sess, err := obsFlags.Start()
	if err != nil {
		fmt.Fprintf(os.Stderr, "synth-eval: %v\n", err)
		os.Exit(2)
	}
	pipe, closePipe, err := pipeFlags.Open()
	if err != nil {
		fmt.Fprintf(os.Stderr, "synth-eval: %v\n", err)
		os.Exit(2)
	}
	if *resilient {
		code := resilientSweep(*timeout, *maxSize, *maxSet, *jobs, pipe, sess)
		if err := closePipe(); err != nil {
			fmt.Fprintf(os.Stderr, "synth-eval: cache persist: %v\n", err)
		}
		if err := sess.Finish(); err != nil {
			fmt.Fprintf(os.Stderr, "synth-eval: %v\n", err)
			code = 1
		}
		os.Exit(code)
	}
	if !*table3 && !*figure2 {
		*table3, *figure2 = true, true
	}

	opts := cegis.Options{Timeout: *timeout, MaxProgSize: *maxSize, MaxSetLen: *maxSet, Pipeline: pipe}
	progress := (os.Stdout)
	if !*verbose {
		progress = nil
	}
	fmt.Printf("synthesising %d loops (timeout %v, max size %d, max set %d, %d workers)...\n",
		len(loopdb.Corpus()), *timeout, *maxSize, *maxSet, *jobs)
	start := time.Now()
	records := harness.SynthesizeCorpus(loopdb.Corpus(), opts, progress, *jobs, sess)
	fmt.Printf("sweep finished in %v\n\n", time.Since(start).Round(time.Second))
	defer func() {
		if err := closePipe(); err != nil {
			fmt.Fprintf(os.Stderr, "synth-eval: cache persist: %v\n", err)
		}
		if err := sess.Finish(); err != nil {
			fmt.Fprintf(os.Stderr, "synth-eval: %v\n", err)
			os.Exit(1)
		}
	}()

	if *table3 {
		fmt.Println("Table 3. Successfully synthesised loops per program.")
		fmt.Printf("%-10s %14s %12s %12s\n", "", "% synthesised", "Average (s)", "Median (s)")
		for _, row := range harness.Table3(records) {
			if row.Total == 0 && row.Program != "Total" {
				fmt.Printf("%-10s %10d/%-3d %12s %12s\n", row.Program, row.Synthesised, row.Total, "n/a", "n/a")
				continue
			}
			fmt.Printf("%-10s %10d/%-3d %12.3f %12.3f\n",
				row.Program, row.Synthesised, row.Total, row.AvgSec, row.MedianSec)
		}
		fmt.Println()
	}

	if *table3 {
		// The paper notes which gadgets never appear in synthesised programs
		// (strpbrk, is start and reverse in its 2-hour run).
		used := map[string]int{}
		for _, r := range records {
			if !r.Found {
				continue
			}
			for _, op := range []struct {
				name string
				op   byte
			}{
				{"rawmemchr", 'M'}, {"strchr", 'C'}, {"strrchr", 'R'},
				{"strpbrk", 'B'}, {"strspn", 'P'}, {"strcspn", 'N'},
				{"is nullptr", 'Z'}, {"is start", 'X'}, {"increment", 'I'},
				{"set to end", 'E'}, {"set to start", 'S'}, {"reverse", 'V'},
			} {
				for _, in := range r.Program {
					if byte(in.Op) == op.op {
						used[op.name]++
						break
					}
				}
			}
		}
		fmt.Println("Gadget usage across synthesised programs:")
		var never []string
		for _, name := range []string{"rawmemchr", "strchr", "strrchr", "strpbrk",
			"strspn", "strcspn", "is nullptr", "is start", "increment",
			"set to end", "set to start", "reverse"} {
			if used[name] == 0 {
				never = append(never, name)
				continue
			}
			fmt.Printf("  %-13s %d\n", name, used[name])
		}
		if len(never) > 0 {
			fmt.Printf("  never synthesised: %v (paper: strpbrk, is start, reverse)\n", never)
		}
		fmt.Println()
	}

	if *figure2 {
		timeouts := []time.Duration{
			*timeout / 60, *timeout / 15, *timeout / 4, *timeout,
		}
		fmt.Println("Figure 2. Programs synthesised vs maximum program size.")
		fmt.Printf("(timeouts scaled from the paper's 30s/3min/10min/1h)\n")
		curves := harness.Figure2(records, *maxSize, timeouts)
		fmt.Printf("%-12s", "size")
		for s := 1; s <= *maxSize; s++ {
			fmt.Printf("%6d", s)
		}
		fmt.Println()
		for _, to := range timeouts {
			fmt.Printf("%-12s", to.Round(time.Millisecond))
			for s := 1; s <= *maxSize; s++ {
				fmt.Printf("%6d", curves[to][s])
			}
			fmt.Println()
		}
	}
}

// resilientSweep runs every corpus loop through the degradation ladder and
// prints the rung each loop reached with its attempt count and, when the
// ladder descended, the reason. Degraded loops are expected output, not
// failures: the exit code is non-zero only when a loop fails outright
// (infrastructure failure — even the concrete floor produced nothing).
func resilientSweep(timeout time.Duration, maxSize, maxSet, jobs int, pipe symex.Config, sess *obs.Session) int {
	corpus := loopdb.Corpus()
	fmt.Printf("resilient sweep over %d loops (timeout %v, %d workers)...\n", len(corpus), timeout, jobs)
	start := time.Now()
	outcomes := make([]core.Outcome, len(corpus))
	engine.MapWorker(engine.Workers(jobs, len(corpus)), len(corpus), func(worker, i int) {
		l := corpus[i]
		item := sess.Item(l.Name, l.Program, worker)
		outcomes[i] = core.SummarizeResilient(l.Source, l.FuncName, core.ResilientOptions{
			Options: core.Options{Timeout: timeout, MaxProgramSize: maxSize, MaxSetSize: maxSet, Pipeline: pipe},
			Tracer:  item.Tracer(),
			Metrics: item.Metrics(),
		})
		item.Finish(outcomes[i].Rung.String())
	})
	fmt.Printf("sweep finished in %v\n\n", time.Since(start).Round(time.Second))

	rungCount := map[core.Rung]int{}
	failed := 0
	for i, out := range outcomes {
		rungCount[out.Rung]++
		line := fmt.Sprintf("%-28s %-10s attempts=%d", corpus[i].Name, out.Rung, len(out.Attempts))
		if out.Rung != core.RungFull && out.Err != nil {
			line += fmt.Sprintf("  (%v)", out.Err)
		}
		fmt.Println(line)
		if out.Rung == core.RungFailed {
			failed++
		}
	}
	fmt.Printf("\nrungs: full=%d memoryless=%d covering=%d smoke=%d failed=%d\n",
		rungCount[core.RungFull], rungCount[core.RungMemoryless],
		rungCount[core.RungCovering], rungCount[core.RungSmoke], rungCount[core.RungFailed])
	if failed > 0 {
		return 1
	}
	return 0
}
