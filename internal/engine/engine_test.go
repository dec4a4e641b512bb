package engine

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func TestNilBudgetIsUnlimited(t *testing.T) {
	var b *Budget
	if b.Exceeded() || b.Err() != nil {
		t.Fatal("nil budget must never be exceeded")
	}
	b.Add(Conflicts, 10)
	b.Add(Forks, 10)
	b.Add(Nodes, 10)
	if b.Conflicts() != 0 || b.Count(Forks) != 0 || b.Count(Nodes) != 0 {
		t.Fatal("nil budget must not accumulate")
	}
	if b.Context() == nil {
		t.Fatal("nil budget context must be non-nil")
	}
}

func TestBudgetCounters(t *testing.T) {
	b := NewBudget(nil, Limits{Conflicts: 100, Forks: 5, Nodes: 50})
	b.Add(Conflicts, 99)
	if b.Exceeded() {
		t.Fatal("under the conflict cap")
	}
	b.Add(Conflicts, 1)
	if !b.Exceeded() {
		t.Fatal("at the conflict cap")
	}
	if !errors.Is(b.Err(), ErrBudget) {
		t.Fatalf("Err = %v, want ErrBudget", b.Err())
	}
}

func TestBudgetErrIsSticky(t *testing.T) {
	b := NewBudget(nil, Limits{Forks: 1})
	b.Add(Forks, 1)
	first := b.Err()
	if first == nil {
		t.Fatal("expected exhaustion")
	}
	if b.Err() != first {
		t.Fatal("Err must return the same cause on every poll")
	}
}

// TestLiveBudgetPollDoesNotAllocate: Exceeded runs on every query, symex
// loop turn and SAT poll, so polling a budget that still has room (every
// limit set, each checked) must not allocate. Only latching a cause may.
func TestLiveBudgetPollDoesNotAllocate(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	b := NewBudget(ctx, Limits{Timeout: time.Hour, Conflicts: 1 << 40, Forks: 1 << 40, Nodes: 1 << 40})
	if n := testing.AllocsPerRun(100, func() {
		if b.Exceeded() {
			t.Fatal("a live budget reports exhaustion")
		}
	}); n != 0 {
		t.Fatalf("Exceeded on a live budget allocates %v times a call", n)
	}
}

func TestBudgetTimeout(t *testing.T) {
	b := NewBudget(nil, Limits{Timeout: time.Millisecond})
	time.Sleep(5 * time.Millisecond)
	if !b.Exceeded() {
		t.Fatal("deadline passed but budget not exceeded")
	}
	if !errors.Is(b.Err(), context.DeadlineExceeded) {
		t.Fatalf("Err = %v, want DeadlineExceeded in chain", b.Err())
	}
}

func TestBudgetContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	b := NewBudget(ctx, Limits{})
	if b.Exceeded() {
		t.Fatal("fresh budget exceeded")
	}
	cancel()
	if !b.Exceeded() || !errors.Is(b.Err(), context.Canceled) {
		t.Fatalf("Err = %v, want Canceled in chain", b.Err())
	}
}

func TestBudgetContextDeadlineWins(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	b := NewBudget(ctx, Limits{Timeout: time.Hour})
	time.Sleep(5 * time.Millisecond)
	if !b.Exceeded() {
		t.Fatal("context deadline must tighten the budget")
	}
}

func TestMapCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 4, 16} {
		n := 100
		counts := make([]atomic.Int64, n)
		Map(workers, n, func(i int) { counts[i].Add(1) })
		for i := range counts {
			if counts[i].Load() != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, counts[i].Load())
			}
		}
	}
}

func TestWorkersClamp(t *testing.T) {
	if got := Workers(8, 3); got != 3 {
		t.Fatalf("Workers(8,3) = %d", got)
	}
	if got := Workers(0, 100); got < 1 {
		t.Fatalf("Workers(0,100) = %d", got)
	}
	if got := Workers(2, 0); got != 1 {
		t.Fatalf("Workers(2,0) = %d", got)
	}
}

func TestLimitsScaleDoubling(t *testing.T) {
	l := Limits{Timeout: time.Second, Conflicts: 100, Forks: 10, Nodes: 1000}
	got := l.Scale(Limits{})
	want := Limits{Timeout: 2 * time.Second, Conflicts: 200, Forks: 20, Nodes: 2000}
	if got != want {
		t.Fatalf("Scale = %+v, want %+v", got, want)
	}
}

func TestLimitsScaleZeroStaysUnlimited(t *testing.T) {
	l := Limits{Conflicts: 100} // everything else unlimited
	got := l.Scale(Limits{})
	if got.Timeout != 0 || got.Forks != 0 || got.Nodes != 0 {
		t.Fatalf("unlimited fields must stay zero, got %+v", got)
	}
	if got.Conflicts != 200 {
		t.Fatalf("Conflicts = %d, want 200", got.Conflicts)
	}
	if z := (Limits{}).Scale(Limits{}); z != (Limits{}) {
		t.Fatalf("zero Limits must scale to zero, got %+v", z)
	}
}

func TestLimitsScaleCaps(t *testing.T) {
	l := Limits{Conflicts: 100, Nodes: 100}
	max := Limits{Conflicts: 150} // Nodes uncapped
	got := l.Scale(max)
	if got.Conflicts != 150 {
		t.Fatalf("Conflicts = %d, want capped at 150", got.Conflicts)
	}
	if got.Nodes != 200 {
		t.Fatalf("Nodes = %d, want 200 (uncapped)", got.Nodes)
	}
	// Repeated doubling converges to the cap instead of overflowing.
	cur := Limits{Conflicts: 1}
	for i := 0; i < 200; i++ {
		cur = cur.Scale(Limits{Conflicts: 1 << 20})
	}
	if cur.Conflicts != 1<<20 {
		t.Fatalf("after repeated doubling Conflicts = %d, want cap 1<<20", cur.Conflicts)
	}
}

func TestLimitsScaleNoOverflow(t *testing.T) {
	l := Limits{Conflicts: 1 << 62, Timeout: time.Duration(1) << 62}
	got := l.Scale(Limits{})
	if got.Conflicts <= 0 || got.Conflicts > 1<<62 {
		t.Fatalf("Conflicts overflowed: %d", got.Conflicts)
	}
	if got.Timeout <= 0 {
		t.Fatalf("Timeout overflowed: %d", got.Timeout)
	}
}

func TestBudgetFail(t *testing.T) {
	cause := errors.New("injected")
	b := NewBudget(nil, Limits{})
	if b.Exceeded() {
		t.Fatal("fresh budget already exceeded")
	}
	b.Fail(cause)
	if !b.Exceeded() {
		t.Fatal("Fail must exhaust the budget")
	}
	if err := b.Err(); !errors.Is(err, ErrBudget) || !errors.Is(err, cause) {
		t.Fatalf("Err = %v, want ErrBudget and the cause", err)
	}
	// First cause sticks.
	b.Fail(errors.New("second"))
	if !errors.Is(b.Err(), cause) {
		t.Fatalf("first cause must stick, got %v", b.Err())
	}
	// Nil budget: no-op.
	var nb *Budget
	nb.Fail(cause)
	if nb.Exceeded() {
		t.Fatal("nil budget cannot be exceeded")
	}
}
