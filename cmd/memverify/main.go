// Command memverify reproduces §3.3: bounded verification that each of the
// 115 corpus loops is memoryless (on strings of length <= 3, which the
// small-model theorems of §3 extend to all lengths). The paper proves 85 of
// 115 in under three seconds per loop on average.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"stringloops/internal/cliflags"
	"stringloops/internal/engine"
	"stringloops/internal/loopdb"
	"stringloops/internal/memoryless"
	"stringloops/internal/obs"
)

func main() {
	maxLen := flag.Int("maxlen", 3, "bounded-check string length")
	verbose := flag.Bool("v", false, "per-loop results")
	jobs := cliflags.Jobs(1)
	pipeFlags := cliflags.Pipeline()
	obsFlags := obs.RegisterFlags()
	flag.Parse()
	sess, err := obsFlags.Start()
	if err != nil {
		fmt.Fprintf(os.Stderr, "memverify: %v\n", err)
		os.Exit(2)
	}
	pipe, closePipe, err := pipeFlags.Open()
	if err != nil {
		fmt.Fprintf(os.Stderr, "memverify: %v\n", err)
		os.Exit(2)
	}

	// Verify on a worker pool (each loop builds its own solver pipeline),
	// then aggregate serially in corpus order so the output is stable.
	loops := loopdb.Corpus()
	reports := make([]memoryless.Report, len(loops))
	lowerErrs := make([]error, len(loops))
	engine.MapWorker(engine.Workers(*jobs, len(loops)), len(loops), func(worker, i int) {
		l := loops[i]
		item := sess.Item(l.Name, l.Program, worker)
		f, err := l.Lower()
		if err != nil {
			lowerErrs[i] = err
			item.Finish("lower-error")
			return
		}
		budget := engine.NewBudget(nil, engine.Limits{}).
			SetObs(item.Tracer(), item.Metrics())
		reports[i] = memoryless.VerifyWith(f, memoryless.VerifyOptions{
			MaxLen: *maxLen, Budget: budget, Pipeline: pipe,
		})
		outcome := "rejected"
		if reports[i].Memoryless {
			outcome = "memoryless"
		}
		item.Finish(outcome)
	})

	verified, total := 0, 0
	var elapsed time.Duration
	perProg := map[string][2]int{}
	for i, l := range loops {
		if lowerErrs[i] != nil {
			fmt.Fprintf(os.Stderr, "memverify: %v\n", lowerErrs[i])
			os.Exit(1)
		}
		r := reports[i]
		total++
		elapsed += r.Elapsed
		pp := perProg[l.Program]
		pp[1]++
		if r.Memoryless {
			verified++
			pp[0]++
			if *verbose {
				fmt.Printf("%-32s memoryless (%s spec, %v)\n", l.Name, r.Spec.Dir, r.Elapsed.Round(time.Millisecond))
			}
		} else if *verbose {
			fmt.Printf("%-32s rejected: %s\n", l.Name, r.Reason)
		}
		perProg[l.Program] = pp
	}
	fmt.Println("Memorylessness verification (§3.3):")
	for _, prog := range loopdb.Programs {
		pp := perProg[prog]
		if pp[1] == 0 {
			continue
		}
		fmt.Printf("  %-10s %3d/%d\n", prog, pp[0], pp[1])
	}
	fmt.Printf("verified %d of %d loops; average %.3fs per loop (paper: 85/115, <3s)\n",
		verified, total, elapsed.Seconds()/float64(total))
	if err := closePipe(); err != nil {
		fmt.Fprintf(os.Stderr, "memverify: cache persist: %v\n", err)
	}
	if err := sess.Finish(); err != nil {
		fmt.Fprintf(os.Stderr, "memverify: %v\n", err)
		os.Exit(1)
	}
}
