package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"stringloops/internal/engine"
	"stringloops/internal/obs"
)

// The descend tests run the ladder over synthetic rungs, so they pin the
// supervision semantics (escalation, retry classification, panic
// isolation, spans and counters) without running the pipeline.

var errOutOfBudget = fmt.Errorf("try harder (%w)", engine.ErrBudget)

func succeed(*engine.Budget) error { return nil }

// descendFull runs a synthetic ladder whose full rung runs full and whose
// lower rungs succeed at once, and returns the full rung's attempts.
func descendFull(o ResilientOptions, full rungRun) []AttemptRecord {
	_, attempts, _ := o.descend([RungFailed]rungRun{full, succeed, succeed, succeed})
	var out []AttemptRecord
	for _, a := range attempts {
		if a.Rung == RungFull {
			out = append(out, a)
		}
	}
	return out
}

// charge returns a rung that charges n conflicts to the budget it is given
// and fails with the budget's own error when that exhausts it, so a test
// sees the limits each attempt really ran under, not just the recorded ones.
func charge(n int64) rungRun {
	return func(b *engine.Budget) error {
		b.Add(engine.Conflicts, n)
		return b.Err()
	}
}

func TestLadderEscalatesLimitsOnBudgetError(t *testing.T) {
	attempts := descendFull(ResilientOptions{Limits: engine.Limits{Conflicts: 100}}, charge(399))
	want := []int64{100, 200, 400}
	if len(attempts) != len(want) {
		t.Fatalf("ran %d attempts, want %d (399 conflicts fit only the third budget)", len(attempts), len(want))
	}
	for i, c := range want {
		if attempts[i].Limits.Conflicts != c {
			t.Errorf("attempt %d: Conflicts = %d, want %d", i, attempts[i].Limits.Conflicts, c)
		}
		if s := attempts[i].Spend; s == nil || s.Conflicts != 399 {
			t.Errorf("attempt %d: Spend = %+v, want the 399 conflicts it charged", i, s)
		}
	}
	for i, a := range attempts[:2] {
		if !errors.Is(a.Err, engine.ErrBudget) {
			t.Errorf("attempt %d: Err = %v, want budget exhaustion", i, a.Err)
		}
	}
	if err := attempts[2].Err; err != nil {
		t.Errorf("final attempt Err = %v, want nil under the 400-conflict budget", err)
	}
}

func TestLadderStopsAtMaxAttempts(t *testing.T) {
	calls := 0
	attempts := descendFull(ResilientOptions{MaxAttempts: 4, Limits: engine.Limits{Nodes: 10}},
		func(*engine.Budget) error { calls++; return errOutOfBudget })
	if calls != 4 || len(attempts) != 4 {
		t.Fatalf("calls = %d, attempts = %d, want 4", calls, len(attempts))
	}
	if err := attempts[3].Err; !errors.Is(err, engine.ErrBudget) {
		t.Fatalf("err = %v, want budget classification", err)
	}
}

func TestLadderDoesNotRetryNonBudgetErrors(t *testing.T) {
	calls := 0
	plain := errors.New("deterministic failure")
	attempts := descendFull(ResilientOptions{},
		func(*engine.Budget) error { calls++; return plain })
	if calls != 1 || len(attempts) != 1 {
		t.Fatalf("calls = %d, want 1 (non-retryable)", calls)
	}
	if !errors.Is(attempts[0].Err, plain) {
		t.Fatalf("err = %v", attempts[0].Err)
	}
}

func TestLadderDoesNotRetryPanics(t *testing.T) {
	calls := 0
	attempts := descendFull(ResilientOptions{},
		func(*engine.Budget) error { calls++; panic("once") })
	if calls != 1 {
		t.Fatalf("calls = %d, want 1 (panics are not retried)", calls)
	}
	var pe *PanicError
	if !errors.As(attempts[0].Err, &pe) {
		t.Fatalf("err = %v, want *PanicError", attempts[0].Err)
	}
	if !attempts[0].Panicked {
		t.Error("attempt not marked Panicked")
	}
}

func TestLadderRespectsMaxLimitsCap(t *testing.T) {
	// 301 conflicts would fit the uncapped fourth budget (800), so every
	// attempt failing shows the budgets themselves stop at the cap; the
	// forks charge shows a zero (unlimited) field stays unlimited.
	calls := 0
	attempts := descendFull(ResilientOptions{
		MaxAttempts: 5,
		Limits:      engine.Limits{Conflicts: 100, Forks: 0},
		MaxLimits:   engine.Limits{Conflicts: 300},
	}, func(b *engine.Budget) error {
		calls++
		b.Add(engine.Forks, 1<<40)
		return charge(301)(b)
	})
	if calls != 5 || len(attempts) != 5 {
		t.Fatalf("calls = %d, attempts = %d, want 5", calls, len(attempts))
	}
	for i, a := range attempts {
		if !errors.Is(a.Err, engine.ErrBudget) {
			t.Errorf("attempt %d under %+v: Err = %v, want the capped budget exceeded", i, a.Limits, a.Err)
		}
		if !strings.Contains(fmt.Sprint(a.Err), "conflict limit") {
			t.Errorf("attempt %d: Err = %v, want the conflict limit to trip, not forks", i, a.Err)
		}
	}
	last := attempts[len(attempts)-1].Limits
	if last.Conflicts != 300 {
		t.Errorf("final Conflicts = %d, want capped at 300", last.Conflicts)
	}
	if last.Forks != 0 {
		t.Errorf("final Forks = %d, want 0 (unlimited stays unlimited)", last.Forks)
	}
}

// TestLadderCountsPanics covers the panic counter alongside Guard's typed
// conversion.
func TestLadderCountsPanics(t *testing.T) {
	m := obs.NewMetrics()
	attempts := descendFull(ResilientOptions{Metrics: m},
		func(*engine.Budget) error { panic("boom") })
	var pe *PanicError
	if !errors.As(attempts[0].Err, &pe) {
		t.Fatalf("err = %v, want *PanicError", attempts[0].Err)
	}
	if got := m.Snapshot().Counters[obs.MSupPanics]; got != 1 {
		t.Errorf("panic counter = %d, want 1", got)
	}
}

func TestLadderReturnsFirstSucceedingRung(t *testing.T) {
	rung, attempts, err := ResilientOptions{MaxAttempts: 2}.descend([RungFailed]rungRun{
		RungFull:       func(*engine.Budget) error { return errOutOfBudget },
		RungMemoryless: func(*engine.Budget) error { panic("mid-rung") },
		RungCovering:   succeed,
		RungSmoke: func(*engine.Budget) error {
			t.Error("the smoke rung ran below a succeeding rung")
			return nil
		},
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want the memoryless rung's panic (the last failed rung)", err)
	}
	if rung != RungCovering {
		t.Fatalf("rung = %v, want covering", rung)
	}
	perRung := map[Rung]int{}
	for _, a := range attempts {
		perRung[a.Rung]++
	}
	if perRung[RungFull] != 2 {
		t.Errorf("full rung ran %d attempts, want 2 (budget error retried)", perRung[RungFull])
	}
	if perRung[RungMemoryless] != 1 || !attempts[2].Panicked {
		t.Errorf("memoryless attempts %+v, want one panicked attempt", attempts[2:])
	}
	if perRung[RungCovering] != 1 {
		t.Errorf("covering rung ran %d attempts, want 1", perRung[RungCovering])
	}
}

// TestLadderDegradedSuccessSaysWhy pins Outcome.Err on a success: the last
// failed rung's error below the first rung tried, nil on the first rung tried
// whether it succeeded at once or after retries.
func TestLadderDegradedSuccessSaysWhy(t *testing.T) {
	refuted := errors.New("full rung: no summary up to size 6")
	rung, _, err := ResilientOptions{}.descend([RungFailed]rungRun{
		RungFull:       func(*engine.Budget) error { return refuted },
		RungMemoryless: succeed, RungCovering: succeed, RungSmoke: succeed,
	})
	if rung != RungMemoryless || err != refuted {
		t.Errorf("full fails, memoryless succeeds: descend = %v, %v; want memoryless, %v", rung, err, refuted)
	}

	rung, _, err = ResilientOptions{}.descend([RungFailed]rungRun{succeed, succeed, succeed, succeed})
	if rung != RungFull || err != nil {
		t.Errorf("first rung succeeds: descend = %v, %v; want full, nil", rung, err)
	}

	calls := 0
	retried := func(*engine.Budget) error {
		if calls++; calls < 3 {
			return errOutOfBudget
		}
		return nil
	}
	rung, attempts, err := ResilientOptions{StartRung: RungMemoryless}.descend(
		[RungFailed]rungRun{RungMemoryless: retried, RungCovering: succeed, RungSmoke: succeed})
	if rung != RungMemoryless || err != nil || len(attempts) != 3 {
		t.Errorf("retry succeeds in the first rung tried: descend = %v, %v after %d attempts; want memoryless, nil after 3",
			rung, err, len(attempts))
	}
}

func TestLadderAllRungsFail(t *testing.T) {
	plain := errors.New("no")
	fail := func(*engine.Budget) error { return plain }
	rung, attempts, err := ResilientOptions{}.descend([RungFailed]rungRun{fail, fail, fail, fail})
	if rung != RungFailed {
		t.Fatalf("rung = %v, want failed", rung)
	}
	if !errors.Is(err, plain) {
		t.Fatalf("err = %v", err)
	}
	if len(attempts) != 4 {
		t.Fatalf("attempts = %d, want one per rung", len(attempts))
	}
	for i, a := range attempts {
		if a.Rung != Rung(i) {
			t.Errorf("attempt %d at rung %v, want %v", i, a.Rung, Rung(i))
		}
	}
}

// TestLadderEmitsRungSpans pins the ladder's observability contract: one
// "rung/<name>" span per rung tried, carrying the attempt count, the outcome
// and — on failure — the error string, plus the attempt/retry/rung counters.
func TestLadderEmitsRungSpans(t *testing.T) {
	tr := obs.NewDeterministic()
	m := obs.NewMetrics()
	fail := func(*engine.Budget) error { return fmt.Errorf("wrapped: %w", engine.ErrBudget) }
	rung, attempts, err := ResilientOptions{
		StartRung:   RungCovering,
		MaxAttempts: 2,
		Tracer:      tr,
		Metrics:     m,
	}.descend([RungFailed]rungRun{RungCovering: fail, RungSmoke: succeed})
	if rung != RungSmoke || !errors.Is(err, engine.ErrBudget) {
		t.Fatalf("descend = %v, %v; want smoke with the covering rung's error", rung, err)
	}
	if len(attempts) != 3 {
		t.Fatalf("attempts = %+v, want 2 covering + 1 smoke", attempts)
	}

	evs := tr.Events()
	if len(evs) != 2 {
		t.Fatalf("got %d spans, want one per rung tried:\n%+v", len(evs), evs)
	}
	attrs := func(ev obs.Event) map[string]string {
		out := map[string]string{}
		for _, a := range ev.Attrs {
			out[a.Key] = a.Val
		}
		return out
	}
	byName := map[string]obs.Event{}
	for _, ev := range evs {
		byName[ev.Name] = ev
	}
	ca := attrs(byName["rung/covering"])
	if ca["outcome"] != "failed" || ca["attempts"] != "2" {
		t.Errorf("rung/covering attrs = %v", ca)
	}
	if !strings.Contains(ca["error"], "budget") {
		t.Errorf("rung/covering error attr = %q, want the failure error", ca["error"])
	}
	sa := attrs(byName["rung/smoke"])
	if sa["outcome"] != "ok" || sa["attempts"] != "1" {
		t.Errorf("rung/smoke attrs = %v", sa)
	}
	if _, ok := sa["error"]; ok {
		t.Errorf("succeeding rung carries an error attr: %v", sa)
	}

	snap := m.Snapshot()
	if got := snap.Counters[obs.MSupAttempts]; got != 3 {
		t.Errorf("attempts counter = %d, want 3", got)
	}
	if got := snap.Counters[obs.MSupRetries]; got != 1 {
		t.Errorf("retries counter = %d, want 1", got)
	}
	if got := snap.Counters[obs.MSupRungPrefix+"smoke"]; got != 1 {
		t.Errorf("rung counter = %d, want 1", got)
	}
}
