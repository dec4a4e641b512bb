// Command symex-bench reproduces the symbolic-execution study of §4.3:
// Figure 3 (-figure3: mean time over all summarised loops for str.KLEE vs
// vanilla.KLEE as the symbolic string length grows) and Figure 4 (-figure4:
// per-loop speedup at a fixed length, sorted). Vanilla runs are capped by
// -timeout, mirroring the paper's 240-second cap; capped runs make the
// reported speedups lower bounds.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"stringloops/internal/harness"
	"stringloops/internal/kleebench"
)

func main() {
	figure3 := flag.Bool("figure3", false, "print Figure 3 series")
	figure4 := flag.Bool("figure4", false, "print Figure 4 speedups")
	timeout := flag.Duration("timeout", 5*time.Second, "per-run cap (paper: 240s)")
	minLen := flag.Int("minlen", 4, "smallest symbolic string length")
	maxLen := flag.Int("maxlen", 20, "largest symbolic string length")
	step := flag.Int("step", 2, "length step for Figure 3")
	fig4Len := flag.Int("fig4len", 13, "symbolic length for Figure 4 (paper: 13)")
	sample := flag.Int("sample", 0, "restrict to the first N summarised loops (0 = all 77)")
	flag.Parse()
	if !*figure3 && !*figure4 {
		*figure3, *figure4 = true, true
	}

	loops := harness.SynthesizedCorpus()
	if *sample > 0 && *sample < len(loops) {
		loops = loops[:*sample]
	}
	fmt.Printf("benchmarking %d summarised loops, per-run cap %v\n\n", len(loops), *timeout)

	if *figure3 {
		fmt.Println("Figure 3. Mean time to execute all loops (seconds).")
		fmt.Printf("%8s %14s %14s %10s\n", "length", "vanilla.KLEE", "str.KLEE", "timeouts")
		for n := *minLen; n <= *maxLen; n += *step {
			var vTotal, sTotal time.Duration
			vTimeouts := 0
			for _, l := range loops {
				f, err := l.Lower()
				if err != nil {
					fmt.Fprintf(os.Stderr, "symex-bench: %v\n", err)
					os.Exit(1)
				}
				prog, _ := harness.SummaryFor(l)
				v := kleebench.Vanilla(f, n, *timeout)
				s := kleebench.Str(prog, n, *timeout)
				checkRun(l.Name, v, s)
				vTotal += v.Time
				sTotal += s.Time
				if v.TimedOut {
					vTimeouts++
				}
			}
			fmt.Printf("%8d %14.3f %14.3f %10d\n",
				n,
				vTotal.Seconds()/float64(len(loops)),
				sTotal.Seconds()/float64(len(loops)),
				vTimeouts)
		}
		fmt.Println()
	}

	if *figure4 {
		fmt.Printf("Figure 4. Speedup per loop at symbolic length %d, sorted.\n", *fig4Len)
		type entry struct {
			name    string
			speedup float64
			capped  bool
		}
		var entries []entry
		for _, l := range loops {
			f, err := l.Lower()
			if err != nil {
				fmt.Fprintf(os.Stderr, "symex-bench: %v\n", err)
				os.Exit(1)
			}
			prog, _ := harness.SummaryFor(l)
			v := kleebench.Vanilla(f, *fig4Len, *timeout)
			s := kleebench.Str(prog, *fig4Len, *timeout)
			checkRun(l.Name, v, s)
			entries = append(entries, entry{l.Name, kleebench.Speedup(v, s), v.TimedOut})
		}
		sort.Slice(entries, func(i, j int) bool { return entries[i].speedup > entries[j].speedup })
		var speedups []float64
		for _, e := range entries {
			capped := ""
			if e.capped {
				capped = " (vanilla capped: lower bound)"
			}
			fmt.Printf("  %-32s %10.1fx%s\n", e.name, e.speedup, capped)
			speedups = append(speedups, e.speedup)
		}
		if len(speedups) > 0 {
			median := speedups[len(speedups)/2]
			fmt.Printf("median speedup: %.1fx (paper: 79x)\n", median)
		}
	}
}

// checkRun exits on a measurement that failed for a reason other than its
// budget: its time and counts mean nothing, not even as a lower bound.
func checkRun(name string, ms ...kleebench.Measurement) {
	for _, m := range ms {
		if m.Err != nil {
			fmt.Fprintf(os.Stderr, "symex-bench: %s (%s): %v\n", name, m.Mode, m.Err)
			os.Exit(1)
		}
	}
}
