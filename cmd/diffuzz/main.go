// Command diffuzz runs the differential fuzzer: random string loops in the
// supported C subset, cross-checked on random inputs through the concrete
// interpreter (ground truth), symbolic-execution replay, and the synthesized
// gadget summary. Any disagreement is printed as a minimized, seeded,
// reproducible finding and the exit status is 1.
//
// Usage:
//
//	diffuzz -seeds 500 -j 8
//	diffuzz -seed 123 -seeds 1 -v        # re-check one generator seed
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"stringloops/internal/cliflags"
	"stringloops/internal/diffuzz"
	"stringloops/internal/engine"
	"stringloops/internal/obs"
)

func main() {
	var (
		seeds     = flag.Int("seeds", 500, "number of generated programs")
		base      = flag.Uint64("seed", 1, "first generator seed")
		inputs    = flag.Int("inputs", 8, "random input buffers per program")
		maxlen    = flag.Int("maxlen", 6, "max content bytes per input buffer")
		jobs      = cliflags.Jobs(0)
		synth     = flag.Duration("synth", 300*time.Millisecond, "per-program synthesis budget (<=0 disables the summary stage)")
		maxex     = flag.Int("maxex", 3, "bounded-verification string size (paper max_ex_size)")
		timeout   = flag.Duration("timeout", 0, "overall wall-clock budget (0 = none)")
		nomin     = flag.Bool("nomin", false, "skip finding minimization")
		qcache    = cliflags.QCache()
		pipeFlags = cliflags.Pipeline()
		faults    = flag.Float64("faults", 0, "fault-injection intensity in [0,1]: seeded skip-safe fault storms over the pipeline under test (0 disables)")
		fseed     = flag.Uint64("faultseed", 0, "decorrelate fault schedules from generator seeds")
		verbose   = flag.Bool("v", false, "print per-finding sources even when clean")
	)
	obsFlags := obs.RegisterFlags()
	flag.Parse()
	sess, err := obsFlags.Start()
	if err != nil {
		fmt.Fprintf(os.Stderr, "diffuzz: %v\n", err)
		os.Exit(2)
	}
	pipe, closePipe, err := pipeFlags.Open()
	if err != nil {
		fmt.Fprintf(os.Stderr, "diffuzz: %v\n", err)
		os.Exit(2)
	}

	opts := diffuzz.Options{
		Seeds:        *seeds,
		BaseSeed:     *base,
		Inputs:       *inputs,
		MaxInputLen:  *maxlen,
		Jobs:         *jobs,
		SynthTimeout: *synth,
		MaxExSize:    *maxex,
		NoMinimize:   *nomin,
		QCache:       *qcache,
		Merge:        pipe.Merge,
		Cache:        pipe.Disk,
		FaultRate:    *faults,
		FaultSeed:    *fseed,
	}
	if *synth <= 0 {
		opts.SynthTimeout = -time.Millisecond
	}
	// A session or overall timeout both ride the root budget: per-seed
	// budgets derive from its context, so the obs handles reach every
	// pipeline under test without diffuzz-internal wiring.
	if *timeout > 0 || sess.Tracer != nil {
		opts.Budget = engine.NewBudget(sess.Context(nil), engine.Limits{Timeout: *timeout})
	}

	rep := diffuzz.Run(opts)
	if err := closePipe(); err != nil {
		fmt.Fprintf(os.Stderr, "diffuzz: cache persist: %v\n", err)
	}

	fmt.Printf("diffuzz: %d programs (%d synthesized, %d memoryless), %d checks, %d skipped, %s\n",
		rep.Programs, rep.Synthesized, rep.Memoryless, rep.Checks, rep.Skipped,
		rep.Elapsed.Round(time.Millisecond))

	if err := sess.Finish(); err != nil {
		fmt.Fprintf(os.Stderr, "diffuzz: %v\n", err)
		os.Exit(1)
	}
	if len(rep.Findings) == 0 {
		fmt.Println("diffuzz: no findings")
		if *verbose {
			fmt.Printf("diffuzz: seeds %d..%d clean\n", *base, *base+uint64(*seeds)-1)
		}
		return
	}
	for i, f := range rep.Findings {
		fmt.Printf("\n--- finding %d/%d ---\n%s", i+1, len(rep.Findings), f)
		fmt.Printf("reproduce: diffuzz -seed %d -seeds 1\n", f.Seed)
	}
	os.Exit(1)
}
