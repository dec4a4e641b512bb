package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"stringloops/internal/engine"
	"stringloops/internal/faultpoint"
	"stringloops/internal/loopdb"
	"stringloops/internal/obs"
	"stringloops/internal/supervise"
	"stringloops/internal/symex"
)

// panicAlways arms only the symex panic site, at rate 1: every symbolic
// execution entry panics.
func panicAlways(seed uint64) *faultpoint.Registry {
	return faultpoint.New(faultpoint.Config{
		Seed:  seed,
		Rates: map[faultpoint.Site]float64{faultpoint.SymexPanic: 1},
	})
}

// TestSummarizeAllIsolatesPanics is the regression test for the batch panic
// exposure: one deliberately panicking item must not take down the batch,
// and its result must carry a typed *supervise.PanicError.
func TestSummarizeAllIsolatesPanics(t *testing.T) {
	items := []batchItem{
		{Source: `char *f(char *s) { while (*s == ' ') s++; return s; }`,
			Opts: Options{Timeout: time.Minute}},
		{Source: figure1,
			Opts: Options{Timeout: time.Minute, Pipeline: symex.Config{Faults: panicAlways(7)}}},
		{Source: `char *f(char *s) { while (*s == 'x') s++; return s; }`,
			Opts: Options{Timeout: time.Minute}},
	}
	res := summarizeAll(items, 2)
	if res[0].Err != nil || res[0].Summary == nil {
		t.Errorf("item 0 (healthy): err = %v", res[0].Err)
	}
	if res[2].Err != nil || res[2].Summary == nil {
		t.Errorf("item 2 (healthy): err = %v", res[2].Err)
	}
	var pe *supervise.PanicError
	if !errors.As(res[1].Err, &pe) {
		t.Fatalf("item 1 err = %v, want *supervise.PanicError", res[1].Err)
	}
	var ip faultpoint.InjectedPanic
	if v, ok := pe.Value.(faultpoint.InjectedPanic); ok {
		ip = v
	} else {
		t.Fatalf("panic value %v (%T), want faultpoint.InjectedPanic", pe.Value, pe.Value)
	}
	if ip.Site != faultpoint.SymexPanic {
		t.Errorf("panic site = %v, want SymexPanic", ip.Site)
	}
	if len(pe.Stack) == 0 {
		t.Error("panic stack not captured")
	}
	if res[1].Summary != nil {
		t.Error("panicked item leaked a summary")
	}
}

// TestSummarizeResilientMatchesSummarize is the faults-off parity check:
// with no registry armed, the resilient path must land on RungFull with a
// summary element-wise identical to plain Summarize.
func TestSummarizeResilientMatchesSummarize(t *testing.T) {
	srcs := []string{
		figure1,
		`char *f(char *s) { while (*s == ' ') s++; return s; }`,
		`char *f(char *s) { while (*s && *s != ':') s++; return s; }`,
	}
	for _, src := range srcs {
		plain, err := Summarize(src, "", Options{Timeout: time.Minute})
		if err != nil {
			t.Fatalf("Summarize: %v", err)
		}
		out := SummarizeResilient(src, "", ResilientOptions{
			Options: Options{Timeout: time.Minute},
		})
		if out.Rung != RungFull {
			t.Fatalf("rung = %v (err %v), want full", out.Rung, out.Err)
		}
		if out.Summary.Encoded != plain.Encoded {
			t.Errorf("resilient summary %q != plain %q", out.Summary.Encoded, plain.Encoded)
		}
		if len(out.Attempts) != 1 || out.Attempts[0].Err != nil {
			t.Errorf("attempts = %+v, want one clean attempt", out.Attempts)
		}
	}
}

// TestSummarizeResilientDegradesToSmokeUnderPanicStorm: with every symbolic
// execution panicking, the full/memoryless/covering rungs all fail but the
// concrete smoke floor still produces a result.
func TestSummarizeResilientDegradesToSmokeUnderPanicStorm(t *testing.T) {
	out := SummarizeResilient(figure1, "", ResilientOptions{
		Options: Options{Timeout: time.Minute, Pipeline: symex.Config{Faults: panicAlways(3)}},
	})
	if out.Rung != RungSmoke {
		t.Fatalf("rung = %v (err %v), want smoke", out.Rung, out.Err)
	}
	if len(out.Smoke) == 0 {
		t.Fatal("smoke payload empty")
	}
	// figure1 skips leading whitespace: "  x" must map to offset 2.
	found := false
	for _, ti := range out.Smoke {
		if ti.Input == "  x" {
			found = true
			if ti.Null || ti.Offset != 2 {
				t.Errorf("smoke on %q = %+v, want offset 2", ti.Input, ti)
			}
		}
	}
	if !found {
		t.Error(`smoke battery missing "  x"`)
	}
	// Every failed rung must have recorded a panicked attempt.
	panicked := 0
	for _, a := range out.Attempts {
		if a.Panicked {
			panicked++
		}
	}
	if panicked != 3 {
		t.Errorf("recorded %d panicked attempts, want 3 (full, memoryless, covering)", panicked)
	}
}

// TestSummarizeResilientEscalatesBudget: a node-starved first attempt must be
// retried with doubled limits, and the attempt history must show the
// escalation.
func TestSummarizeResilientEscalatesBudget(t *testing.T) {
	out := SummarizeResilient(figure1, "", ResilientOptions{
		Options:     Options{Timeout: time.Minute},
		Limits:      engine.Limits{Nodes: 50},
		MaxAttempts: 2,
	})
	if len(out.Attempts) < 2 {
		t.Fatalf("attempts = %+v, want at least the escalated retry", out.Attempts)
	}
	if out.Attempts[0].Rung != RungFull || out.Attempts[0].Limits.Nodes != 50 {
		t.Errorf("attempt 0 = %+v, want full rung at 50 nodes", out.Attempts[0])
	}
	if !errors.Is(out.Attempts[0].Err, engine.ErrBudget) {
		t.Errorf("attempt 0 err = %v, want budget classification", out.Attempts[0].Err)
	}
	if out.Attempts[1].Limits.Nodes != 100 {
		t.Errorf("attempt 1 nodes = %d, want doubled to 100", out.Attempts[1].Limits.Nodes)
	}
	// The retry must really run under the doubled budget: it gets further
	// than the first attempt, which stopped at its 50-node limit.
	s0, s1 := out.Attempts[0].Spend, out.Attempts[1].Spend
	if s0 == nil || s1 == nil || s1.Nodes <= s0.Nodes {
		t.Errorf("attempt spends %+v then %+v, want the escalated attempt to intern more nodes", s0, s1)
	}
}

// TestSummarizeResilientFailedOnBadSource: a source that does not parse has
// no floor to stand on — the outcome is RungFailed with the parse error.
func TestSummarizeResilientFailedOnBadSource(t *testing.T) {
	out := SummarizeResilient(`int notaloop(int x) { return x; }`, "", ResilientOptions{})
	if out.Rung != RungFailed {
		t.Fatalf("rung = %v, want failed", out.Rung)
	}
	if !errors.Is(out.Err, ErrNoLoopFunction) {
		t.Errorf("err = %v, want ErrNoLoopFunction", out.Err)
	}
}

// TestSummarizeResilientDeterministicUnderSeed: the same fault seed must
// reproduce the same outcome, rung, and attempt shape, serially and in a
// batch at any worker count.
func TestSummarizeResilientDeterministicUnderSeed(t *testing.T) {
	mkItems := func() []resilientItem {
		srcs := []string{
			figure1,
			`char *f(char *s) { while (*s == ' ') s++; return s; }`,
			`char *f(char *s) { while (*s && *s != ':') s++; return s; }`,
			`char *f(char *s) { while (*s == 'a' || *s == 'b') s++; return s; }`,
		}
		items := make([]resilientItem, len(srcs))
		for i, src := range srcs {
			items[i] = resilientItem{Source: src, Opts: ResilientOptions{
				Options: Options{
					Timeout: time.Minute,
					Pipeline: symex.Config{Faults: faultpoint.New(faultpoint.Config{
						Seed: uint64(1000 + i),
						Rates: map[faultpoint.Site]float64{
							faultpoint.SatUnknown:    0.05,
							faultpoint.BVNodeExhaust: 0.0005,
							faultpoint.QCacheMiss:    0.2,
							faultpoint.CegisReject:   0.1,
						},
					})},
				},
				Limits:      engine.Limits{Conflicts: 20000, Nodes: 2000000},
				MaxAttempts: 2,
			}}
		}
		return items
	}
	a := summarizeAllResilient(mkItems(), 1)
	b := summarizeAllResilient(mkItems(), 4)
	for i := range a {
		if a[i].Rung != b[i].Rung {
			t.Errorf("item %d: rung %v (serial) vs %v (parallel)", i, a[i].Rung, b[i].Rung)
		}
		if len(a[i].Attempts) != len(b[i].Attempts) {
			t.Errorf("item %d: %d attempts vs %d", i, len(a[i].Attempts), len(b[i].Attempts))
			continue
		}
		for j := range a[i].Attempts {
			ae, be := a[i].Attempts[j].Err, b[i].Attempts[j].Err
			if (ae == nil) != (be == nil) || (ae != nil && ae.Error() != be.Error()) {
				t.Errorf("item %d attempt %d: %v vs %v", i, j, ae, be)
			}
		}
		if (a[i].Summary == nil) != (b[i].Summary == nil) {
			t.Errorf("item %d: summary presence differs", i)
		}
		if a[i].Summary != nil && a[i].Summary.Encoded != b[i].Summary.Encoded {
			t.Errorf("item %d: summary %q vs %q", i, a[i].Summary.Encoded, b[i].Summary.Encoded)
		}
	}
}

// TestSummarizeResilientStartRung: a ladder started below the top must skip
// the rungs above its start while keeping global rung identity in the
// outcome and the attempt history.
func TestSummarizeResilientStartRung(t *testing.T) {
	out := SummarizeResilient(figure1, "", ResilientOptions{
		Options:   Options{Timeout: time.Minute},
		StartRung: RungMemoryless,
	})
	if out.Rung != RungMemoryless {
		t.Fatalf("rung = %v (err %v), want memoryless", out.Rung, out.Err)
	}
	if out.Summary != nil {
		t.Error("summary set: the full rung must not have run")
	}
	if out.Memoryless == nil || !out.Memoryless.Memoryless {
		t.Fatalf("memoryless payload = %+v, want a memoryless verdict", out.Memoryless)
	}
	for _, a := range out.Attempts {
		if a.Rung < RungMemoryless {
			t.Errorf("attempt at rung %v, start rung should have skipped it", a.Rung)
		}
	}
	// The floor alone: no solver, one clean attempt, global identity kept.
	out = SummarizeResilient(figure1, "", ResilientOptions{StartRung: RungSmoke})
	if out.Rung != RungSmoke || len(out.Smoke) == 0 {
		t.Fatalf("rung = %v (smoke %v), want the smoke floor", out.Rung, out.Smoke)
	}
	if len(out.Attempts) != 1 || out.Attempts[0].Rung != RungSmoke {
		t.Errorf("attempts = %+v, want one attempt at the smoke rung", out.Attempts)
	}
}

// TestSummarizeResilientCancelledCtx: a context cancelled before the ladder
// starts must fail every rung promptly — one attempt each, classified
// non-retryable so no retries burn limits for a caller that is gone.
func TestSummarizeResilientCancelledCtx(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out := SummarizeResilient(figure1, "", ResilientOptions{
		Options:     Options{Timeout: time.Minute},
		Ctx:         ctx,
		MaxAttempts: 3,
	})
	if out.Rung != RungFailed {
		t.Fatalf("rung = %v, want failed (cancelled ladder)", out.Rung)
	}
	if !errors.Is(out.Err, context.Canceled) {
		t.Errorf("err = %v, want to wrap context.Canceled", out.Err)
	}
	if errors.Is(out.Err, engine.ErrBudget) {
		t.Error("cancellation classified as budget exhaustion: the supervisor would retry it")
	}
	// Non-retryable: exactly one attempt per rung, never MaxAttempts.
	if len(out.Attempts) != 4 {
		t.Errorf("attempts = %d, want 4 (one per rung, no retries)", len(out.Attempts))
	}
}

// TestSummarizeResilientCancelMidLadder: cancelling between rungs stops the
// descent — the rungs after the cancellation point fail with the cancel
// error instead of running for nobody.
func TestSummarizeResilientCancelMidLadder(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	// The first rung cancels the ladder and fails; every later rung would
	// fail too, but must never run.
	fail := func(*engine.Budget) error {
		calls++
		cancel()
		return errors.New("rung failed")
	}
	opts := ResilientOptions{Ctx: ctx, MaxAttempts: 1}
	rung, attempts, err := opts.descend([RungFailed]rungRun{fail, fail, fail, fail})
	if rung != RungFailed {
		t.Fatalf("rung = %v, want failed (ladder abandoned mid-descent)", rung)
	}
	budgets := 0
	for _, a := range attempts {
		if a.Spend != nil {
			budgets++
		}
	}
	if calls != 1 || budgets != 1 {
		t.Errorf("rungs run = %d, attempt budgets created = %d, want 1 each (descent stopped)", calls, budgets)
	}
	if len(attempts) != 4 {
		t.Errorf("attempts = %d, want 4 (one per rung)", len(attempts))
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want to wrap context.Canceled", err)
	}
}

// TestSummarizeResilientSpendReconciles: under a panic storm every
// budgeted attempt carries its own spend, the smoke attempt none, and the
// summed spends match the run's metric registry counter for counter.
func TestSummarizeResilientSpendReconciles(t *testing.T) {
	m := obs.NewMetrics()
	out := SummarizeResilient(figure1, "", ResilientOptions{
		Options: Options{Timeout: time.Minute, Pipeline: symex.Config{Faults: panicAlways(3)}},
		Metrics: m,
	})
	if out.Rung != RungSmoke {
		t.Fatalf("rung = %v (err %v), want smoke", out.Rung, out.Err)
	}
	for i, a := range out.Attempts {
		if (a.Spend == nil) != (a.Rung == RungSmoke) {
			t.Errorf("attempt %d at %v: spend %v; want nil exactly for smoke", i, a.Rung, a.Spend)
		}
	}
	if err := out.Spend().Reconcile(m.Snapshot().Counters); err != nil {
		t.Errorf("attempt spends do not reconcile with the registry: %v", err)
	}
}

// TestSmokeRunDefinedOnCorpus: the smoke floor holds for every corpus
// loop — each is defined on at least one battery input.
func TestSmokeRunDefinedOnCorpus(t *testing.T) {
	for _, l := range loopdb.Corpus() {
		f, err := lowerNamed(l.Source, l.FuncName)
		if err != nil {
			t.Fatalf("%s: %v", l.Name, err)
		}
		if inputs, err := smokeRun(f); err != nil || len(inputs) == 0 {
			t.Errorf("%s: smoke run gave %d inputs (%v)", l.Name, len(inputs), err)
		}
	}
}

// undefinedOnBattery scans for '#', which no smoke input contains, so it
// reads past the terminator on every one of them.
const undefinedOnBattery = `char *f(char *s) { while (*s != '#') s++; return s; }`

// TestSummarizeResilientSmokeWithoutPayloadFails: a smoke run with no
// defined input is no payload, so the floor fails instead of succeeding
// empty.
func TestSummarizeResilientSmokeWithoutPayloadFails(t *testing.T) {
	out := SummarizeResilient(undefinedOnBattery, "", ResilientOptions{StartRung: RungSmoke})
	if out.Rung != RungFailed {
		t.Fatalf("rung = %v (smoke %v), want failed", out.Rung, out.Smoke)
	}
	if !errors.Is(out.Err, ErrSmokeUndefined) {
		t.Errorf("err = %v, want ErrSmokeUndefined", out.Err)
	}
}
