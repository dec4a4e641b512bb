// Package harness orchestrates the paper's evaluation experiments over the
// loop database: the Table 3 synthesis sweep, the Figure 2 deepening curves
// derived from it, the Table 4 vocabulary objective, and shared aggregation
// helpers used by the cmd tools and the benchmark suite.
package harness

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"stringloops/internal/cegis"
	"stringloops/internal/engine"
	"stringloops/internal/loopdb"
	"stringloops/internal/obs"
	"stringloops/internal/vocab"
)

// SynthRecord is the outcome of synthesising one corpus loop.
type SynthRecord struct {
	Loop    loopdb.Loop
	Found   bool
	Program vocab.Program
	Size    int
	Elapsed time.Duration
	Err     error
}

// SynthesizeCorpus runs the synthesiser over the given loops on a bounded
// pool of workers (workers < 1 means one per CPU). Every loop runs its own
// synthesis pipeline (interner, solver, budget), so the per-loop records are
// independent of the worker count and come back in corpus order; only the
// interleaving of progress lines (written to progress when non-nil) varies.
// With an observability session each loop gets its own item scope (child
// tracer on the worker's trace lane, fresh per-item metrics registry) whose
// budget carries the handles through the pipeline, and its report row lands
// in sess.Report; a nil or disabled session adds nothing.
func SynthesizeCorpus(loops []loopdb.Loop, opts cegis.Options, progress io.Writer, workers int, sess *obs.Session) []SynthRecord {
	records := make([]SynthRecord, len(loops))
	var progressMu sync.Mutex
	engine.MapWorker(engine.Workers(workers, len(loops)), len(loops), func(worker, i int) {
		l := loops[i]
		item := sess.Item(l.Name, l.Program, worker)
		o := opts
		if item != nil && o.Budget == nil {
			o.Budget = engine.NewBudget(nil, engine.Limits{Timeout: o.Timeout}).
				SetObs(item.Tracer(), item.Metrics())
		}
		rec := SynthRecord{Loop: l}
		f, err := l.Lower()
		if err != nil {
			rec.Err = err
			records[i] = rec
			item.Finish("lower-error")
			return
		}
		out, err := cegis.Synthesize(f, o)
		rec.Err = err
		rec.Found = out.Found
		rec.Program = out.Program
		rec.Elapsed = out.Elapsed
		if out.Found {
			rec.Size = out.Program.EncodedSize()
		}
		records[i] = rec
		outcome := "miss"
		if rec.Found {
			outcome = "found"
		} else if err != nil {
			outcome = "error"
		}
		item.Finish(outcome)
		if progress != nil {
			status := "miss"
			if rec.Found {
				status = fmt.Sprintf("found %q (size %d)", rec.Program.Encode(), rec.Size)
			}
			progressMu.Lock()
			fmt.Fprintf(progress, "%-32s %-34s %8.2fs\n", l.Name, status, rec.Elapsed.Seconds())
			progressMu.Unlock()
		}
	})
	return records
}

// Table3Row is one row of Table 3.
type Table3Row struct {
	Program     string
	Synthesised int
	Total       int
	AvgSec      float64 // over successful syntheses, like the paper
	MedianSec   float64
}

// Table3 aggregates records per program (in Table 2 program order) plus a
// trailing Total row.
func Table3(records []SynthRecord) []Table3Row {
	rows := make([]Table3Row, 0, len(loopdb.Programs)+1)
	var allTimes []float64
	totalSynth, totalLoops := 0, 0
	for _, prog := range loopdb.Programs {
		row := Table3Row{Program: prog}
		var times []float64
		for _, r := range records {
			if r.Loop.Program != prog {
				continue
			}
			row.Total++
			if r.Found {
				row.Synthesised++
				times = append(times, r.Elapsed.Seconds())
			}
		}
		row.AvgSec, row.MedianSec = avgMedian(times)
		allTimes = append(allTimes, times...)
		totalSynth += row.Synthesised
		totalLoops += row.Total
		rows = append(rows, row)
	}
	total := Table3Row{Program: "Total", Synthesised: totalSynth, Total: totalLoops}
	total.AvgSec, total.MedianSec = avgMedian(allTimes)
	return append(rows, total)
}

func avgMedian(xs []float64) (avg, median float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	sorted := append([]float64{}, xs...)
	sort.Float64s(sorted)
	for _, x := range xs {
		avg += x
	}
	avg /= float64(len(xs))
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		median = sorted[mid]
	} else {
		median = (sorted[mid-1] + sorted[mid]) / 2
	}
	return avg, median
}

// Figure2 derives the deepening curves from one synthesis sweep: with
// iterative deepening, a loop found at size s after time t would also be
// found under any size cap >= s and timeout >= t, so a single generous run
// yields every (size, timeout) point.
func Figure2(records []SynthRecord, maxSize int, timeouts []time.Duration) map[time.Duration][]int {
	out := map[time.Duration][]int{}
	for _, to := range timeouts {
		counts := make([]int, maxSize+1)
		for _, r := range records {
			if !r.Found || r.Elapsed > to {
				continue
			}
			for s := r.Size; s <= maxSize; s++ {
				counts[s]++
			}
		}
		out[to] = counts
	}
	return out
}

// VocabularyFromBits converts a GP point to a Vocabulary (Table 1 bit
// order).
func VocabularyFromBits(bits []bool) vocab.Vocabulary {
	var v vocab.Vocabulary
	for i, b := range bits {
		if b {
			v |= 1 << uint(i)
		}
	}
	return v
}

// SummaryFor returns the loop's known-good summary (its ground-truth
// program), used by harnesses that need summaries without re-running
// synthesis.
func SummaryFor(l loopdb.Loop) (vocab.Program, bool) {
	if l.WantProgram == "" {
		return nil, false
	}
	p, err := vocab.Decode(l.WantProgram)
	if err != nil {
		return nil, false
	}
	return p, true
}

// SynthesizedCorpus returns the curated loops that carry a ground-truth
// summary and are expected to synthesise — the summarised set §4.3 and §4.4
// evaluate on.
func SynthesizedCorpus() []loopdb.Loop {
	var out []loopdb.Loop
	for _, l := range loopdb.Corpus() {
		if l.ExpectSynth && l.WantProgram != "" {
			out = append(out, l)
		}
	}
	return out
}
