package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"stringloops/internal/engine"
	"stringloops/internal/supervise"
)

// The corpus drivers (cmd/synth-eval, cmd/loopsum, harness) fan loops out
// with engine.MapWorker, one pipeline per item; these helpers do the same
// for the tests, which check that worker count never changes a result and
// that one item's panic or cancellation stays its own.

// mapItems runs fn for every index on a bounded pool of workers (< 1 means
// one per CPU) and returns the results in input order.
func mapItems[T any](workers, n int, fn func(i int) T) []T {
	out := make([]T, n)
	engine.MapWorker(engine.Workers(workers, n), n, func(_, i int) { out[i] = fn(i) })
	return out
}

// batchItem is one loop to summarise. With a nil Opts.Budget each item
// gets its own Timeout-derived budget; a shared Budget cancels every item
// that carries it.
type batchItem struct {
	Source string
	Func   string
	Opts   Options
}

// batchResult is the outcome for the item at Index.
type batchResult struct {
	Index   int
	Summary *Summary
	Err     error
}

// summarizeAll runs Summarize over items, isolating each item's panic into
// its own result as a *supervise.PanicError.
func summarizeAll(items []batchItem, workers int) []batchResult {
	return mapItems(workers, len(items), func(i int) batchResult {
		var s *Summary
		err := supervise.Guard(func() error {
			var ierr error
			s, ierr = Summarize(items[i].Source, items[i].Func, items[i].Opts)
			return ierr
		})
		if err != nil {
			s = nil // a panic after partial work must not leak a half summary
		}
		return batchResult{Index: i, Summary: s, Err: err}
	})
}

// resilientItem is one loop of a resilient batch.
type resilientItem struct {
	Source string
	Func   string
	Opts   ResilientOptions
}

// summarizeAllResilient runs SummarizeResilient over items.
func summarizeAllResilient(items []resilientItem, workers int) []Outcome {
	return mapItems(workers, len(items), func(i int) Outcome {
		return SummarizeResilient(items[i].Source, items[i].Func, items[i].Opts)
	})
}

// batchItems builds a small corpus of quick loops (plus one malformed item
// so error outcomes are exercised too). Each item gets its own
// Timeout-derived budget.
func batchItems() []batchItem {
	srcs := []string{
		figure1,
		`char *f(char *s) { while (*s == ' ') s++; return s; }`,
		`char *f(char *s) { while (*s == 'a') s++; return s; }`,
		`char *f(char *s) { while (*s == 'b') s++; return s; }`,
		`char *f(char *s) { while (*s == 'x') s++; return s; }`,
		`char *f(char *s) { while (*s == '.') s++; return s; }`,
		`char *f(char *s) { while (*s == 'z') s++; return s; }`,
		`char *f(char *s) { while (*s == '_') s++; return s; }`,
		`int notaloop(int x) { return x; }`, // errors with ErrNoLoopFunction
	}
	items := make([]batchItem, len(srcs))
	for i, src := range srcs {
		items[i] = batchItem{Source: src, Opts: Options{Timeout: time.Minute}}
	}
	return items
}

// TestSummarizeAllParallelMatchesSerial is the determinism check (and, under
// `go test -race`, the data-race regression test for the whole pipeline): 9
// loops summarised on 8 workers must produce element-wise identical outcomes
// to a serial run, because every item owns its interner, solver stack and
// budget.
func TestSummarizeAllParallelMatchesSerial(t *testing.T) {
	items := batchItems()
	serial := summarizeAll(items, 1)
	parallel := summarizeAll(items, 8)
	if len(serial) != len(items) || len(parallel) != len(items) {
		t.Fatalf("result lengths: serial %d, parallel %d, want %d",
			len(serial), len(parallel), len(items))
	}
	for i := range items {
		s, p := serial[i], parallel[i]
		if s.Index != i || p.Index != i {
			t.Errorf("item %d: indices %d/%d out of order", i, s.Index, p.Index)
		}
		switch {
		case s.Err != nil || p.Err != nil:
			if s.Err == nil || p.Err == nil || s.Err.Error() != p.Err.Error() {
				t.Errorf("item %d: errors differ: serial %v, parallel %v", i, s.Err, p.Err)
			}
		case s.Summary.Encoded != p.Summary.Encoded:
			t.Errorf("item %d: programs differ: serial %q, parallel %q",
				i, s.Summary.Encoded, p.Summary.Encoded)
		case s.Summary.Memoryless != p.Summary.Memoryless ||
			s.Summary.Direction != p.Summary.Direction:
			t.Errorf("item %d: memoryless reports differ: serial %v/%s, parallel %v/%s",
				i, s.Summary.Memoryless, s.Summary.Direction,
				p.Summary.Memoryless, p.Summary.Direction)
		}
	}
}

func TestSummarizeAllDefaultWorkerCount(t *testing.T) {
	items := batchItems()[:2]
	res := summarizeAll(items, 0) // < 1 means one worker per CPU
	if len(res) != 2 {
		t.Fatalf("got %d results, want 2", len(res))
	}
	if res[0].Err != nil || res[0].Summary == nil {
		t.Fatalf("item 0: err=%v", res[0].Err)
	}
}

func TestSummarizeCancelledBudgetReturnsPromptly(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the run starts
	start := time.Now()
	_, err := Summarize(figure1, "", Options{
		Budget: engine.NewBudget(ctx, engine.Limits{}),
	})
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	if !errors.Is(err, engine.ErrBudget) {
		t.Fatalf("err = %v must classify as engine.ErrBudget", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("cancelled Summarize took %v to return", d)
	}
}

func TestSummarizeAllSharedBudgetCancelsWholeBatch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	shared := engine.NewBudget(ctx, engine.Limits{})
	items := batchItems()
	for i := range items {
		items[i].Opts.Budget = shared
	}
	start := time.Now()
	res := summarizeAll(items, 4)
	for i, r := range res {
		if r.Err == nil {
			t.Errorf("item %d: expected an error under a cancelled shared budget", i)
		}
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("cancelled batch took %v to return", d)
	}
}
