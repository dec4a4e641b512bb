// Command vocab-opt reproduces §4.2.3 / Table 4: Gaussian-process
// optimisation of the synthesis vocabulary. The success function s(v) is the
// number of corpus loops synthesised with vocabulary v at a reduced budget
// (the paper: max size 7, 5 minutes per loop; here seconds — override with
// -timeout). The GP proposes vocabularies by expected improvement; the run
// prints every evaluation and the vocabularies that beat the full-vocabulary
// baseline.
package main

import (
	"flag"
	"fmt"
	"sort"
	"time"

	"stringloops/internal/cegis"
	"stringloops/internal/gp"
	"stringloops/internal/harness"
	"stringloops/internal/loopdb"
	"stringloops/internal/vocab"
)

func main() {
	evals := flag.Int("evals", 40, "objective evaluations (paper: 40)")
	timeout := flag.Duration("timeout", time.Second, "per-loop budget inside s(v) (paper: 5min)")
	maxSize := flag.Int("maxsize", 7, "maximum program size inside s(v) (paper: 7)")
	baselineBudget := flag.Duration("baseline", 5*time.Second, "per-loop budget for the full-vocabulary baseline (paper: 2h)")
	seed := flag.Int64("seed", 1, "GP seed")
	jobs := flag.Int("j", 1, "parallel synthesis workers inside s(v) (<1 = one per CPU)")
	flag.Parse()

	loops := loopdb.Corpus()
	// s(v), the success function of §4.2.3: the number of corpus loops
	// synthesised under the given options.
	synthesized := func(opts cegis.Options) int {
		n := 0
		for _, rec := range harness.SynthesizeCorpus(loops, opts, nil, *jobs, nil) {
			if rec.Found && rec.Err == nil {
				n++
			}
		}
		return n
	}
	fmt.Printf("baseline: full vocabulary, max size 9, %v per loop...\n", *baselineBudget)
	baseline := synthesized(cegis.Options{Timeout: *baselineBudget})
	fmt.Printf("baseline synthesises %d/%d loops\n\n", baseline, len(loops))

	eval := 0
	objective := func(bits []bool) float64 {
		v := harness.VocabularyFromBits(bits)
		if !v.Contains(vocab.OpReturn) {
			// Programs must end in return; such vocabularies synthesise
			// nothing, and skipping the sweep keeps the run fast.
			eval++
			fmt.Printf("eval %2d: %-13s -> 0 (no return gadget)\n", eval, v.Letters())
			return 0
		}
		start := time.Now()
		n := synthesized(cegis.Options{Vocabulary: v, Timeout: *timeout, MaxProgSize: *maxSize})
		eval++
		fmt.Printf("eval %2d: %-13s -> %2d loops (%v)\n",
			eval, v.Letters(), n, time.Since(start).Round(time.Second))
		return float64(n)
	}

	best, bestY, history := gp.Maximize(objective, 13, gp.Options{
		Evaluations: *evals,
		Seed:        *seed,
	})

	fmt.Printf("\nTable 4. Vocabularies matching or beating the full-vocabulary baseline (%d loops):\n", baseline)
	type row struct {
		letters string
		size    int
		n       int
	}
	var winners []row
	for _, s := range history {
		if int(s.Y) >= baseline {
			v := harness.VocabularyFromBits(s.X)
			winners = append(winners, row{v.Letters(), v.Size(), int(s.Y)})
		}
	}
	sort.Slice(winners, func(i, j int) bool {
		if winners[i].n != winners[j].n {
			return winners[i].n > winners[j].n
		}
		return winners[i].size < winners[j].size
	})
	if len(winners) == 0 {
		fmt.Println("  (none this run; try more -evals or a larger -timeout)")
	}
	for _, w := range winners {
		fmt.Printf("  %-13s (%2d gadgets) %d loops\n", w.letters, w.size, w.n)
	}
	fmt.Printf("\nbest vocabulary: %s with %d loops\n",
		harness.VocabularyFromBits(best).Letters(), int(bestY))
	fmt.Println("\nNote (see EXPERIMENTS.md): in this implementation candidate programs are")
	fmt.Println("enumerated as concrete skeletons, so solver-query cost does not scale with")
	fmt.Println("vocabulary size; reduced vocabularies match the baseline at a fraction of")
	fmt.Println("the search, but cannot exceed it as in the paper's symbolic-bytes setup.")
}
