// Package engine provides the shared cancellation and resource-budget
// discipline threaded through every solver layer (sat → bv → symex →
// strsolver → cegis → memoryless → core), plus the bounded worker pool the
// concurrent corpus drivers are built on.
//
// A Budget wraps a context.Context and a set of resource counters — SAT
// conflicts, symbolic-execution forks, interned expression nodes and wall
// clock — under one Exceeded/Err check. Layers *charge* the budget as they
// work (Add with a ledger Counter) and *poll* it at their loop heads; when
// any limit trips, or the context is cancelled, every layer unwinds
// promptly with its own timeout error. This replaces the ad-hoc
// time.Now().After(deadline) checks that previously lived in cegis, symex
// and kleebench, and gives external callers a uniform cancellation handle:
// cancelling the context aborts a run from any depth.
package engine

import (
	"context"
	"errors"
	"sync/atomic"
	"time"

	"stringloops/internal/obs"
)

// ErrBudget is the sentinel wrapped by every budget-exhaustion error.
var ErrBudget = errors.New("engine: budget exhausted")

// Limits bounds a run. The zero value of any field means "unlimited"; the
// zero Limits is a pure cancellation handle (context only).
type Limits struct {
	// Timeout bounds wall-clock time from NewBudget.
	Timeout time.Duration
	// Conflicts bounds the total SAT conflicts charged across all queries.
	Conflicts int64
	// Forks bounds symbolic-execution forks.
	Forks int64
	// Nodes bounds interned bit-vector nodes.
	Nodes int64
}

// escalation is the factor by which Scale grows each finite limit.
const escalation = 2

// Scale returns a copy of l with every finite limit doubled — the
// escalation step of the supervisor's retry policy. Zero ("unlimited")
// fields stay zero: an unlimited resource cannot be made more limited by
// escalation. Each scaled field is capped by the corresponding non-zero
// field of max (a zero max field means uncapped), so repeated doubling
// converges to the cap instead of overflowing.
func (l Limits) Scale(max Limits) Limits {
	scale := func(v, cap int64) int64 {
		if v <= 0 {
			return 0
		}
		if v > 1<<62/escalation {
			v = 1 << 62
		} else {
			v *= escalation
		}
		if cap > 0 && v > cap {
			v = cap
		}
		return v
	}
	return Limits{
		Timeout:   time.Duration(scale(int64(l.Timeout), int64(max.Timeout))),
		Conflicts: scale(l.Conflicts, max.Conflicts),
		Forks:     scale(l.Forks, max.Forks),
		Nodes:     scale(l.Nodes, max.Nodes),
	}
}

// Budget is a shared, concurrency-safe cancellation and accounting object.
// All methods are safe on a nil receiver, which behaves as an unlimited,
// never-cancelled budget — layers thread a *Budget without nil checks.
type Budget struct {
	ctx      context.Context
	start    time.Time
	deadline time.Time // zero when no wall-clock limit applies
	lim      Limits

	// counts holds the ledger, one atomic per Counter.
	counts [numCounters]atomic.Int64

	// done caches the first observed exhaustion so later polls are cheap
	// and the reported cause is stable.
	done atomic.Pointer[error]

	// Observability handles ride the budget because the budget is already
	// threaded through every layer (sat → bv → qcache → symex → cegis →
	// memoryless → core): layers read b.Tracer()/b.Metrics() instead of
	// growing new parameters. All nil when observability is off. mirrors
	// charges every count into the registry counter its ledger row names,
	// so a run report summing several budgets reconciles 1:1 with their
	// spend.
	tracer  *obs.Tracer
	metrics *obs.Metrics
	mirrors [numCounters]*obs.Counter
}

// NewBudget builds a budget from a context and limits. A nil context means
// context.Background(). When the context itself carries a deadline, the
// effective wall-clock limit is the earlier of the two. When the context
// carries observability handles (obs.NewContext), the budget picks them up —
// so budgets derived from an instrumented run (e.g. diffuzz's per-seed
// budgets built from opts.Budget.Context()) inherit tracing and metrics
// without any caller changes.
func NewBudget(ctx context.Context, lim Limits) *Budget {
	if ctx == nil {
		ctx = context.Background()
	}
	b := &Budget{ctx: ctx, start: time.Now(), lim: lim}
	if lim.Timeout > 0 {
		b.deadline = b.start.Add(lim.Timeout)
	}
	if d, ok := ctx.Deadline(); ok && (b.deadline.IsZero() || d.Before(b.deadline)) {
		b.deadline = d
	}
	if t, m := obs.TracerFrom(ctx), obs.MetricsFrom(ctx); t != nil || m != nil {
		b.SetObs(t, m)
	}
	return b
}

// SetObs attaches a tracer and metrics registry to the budget (either may be
// nil) and returns b for chaining. From then on every Add charge is
// mirrored into the registry's canonical counters, and layers holding the
// budget reach the tracer via b.Tracer(). Call before handing the budget to
// workers; it is not synchronised against concurrent Add.
func (b *Budget) SetObs(t *obs.Tracer, m *obs.Metrics) *Budget {
	if b == nil {
		return nil
	}
	b.tracer, b.metrics = t, m
	for c, row := range ledger {
		b.mirrors[c] = m.Counter(row.metric)
	}
	return b
}

// Tracer returns the attached tracer (nil when observability is off).
func (b *Budget) Tracer() *obs.Tracer {
	if b == nil {
		return nil
	}
	return b.tracer
}

// Metrics returns the attached metrics registry (nil when off).
func (b *Budget) Metrics() *obs.Metrics {
	if b == nil {
		return nil
	}
	return b.metrics
}

// WithTimeout is shorthand for a wall-clock-only budget.
func WithTimeout(d time.Duration) *Budget {
	return NewBudget(nil, Limits{Timeout: d})
}

// Err reports why the budget is exhausted, or nil while work may continue.
// The first non-nil result is sticky: once a run is over budget it stays
// over budget, and all layers see the same cause.
func (b *Budget) Err() error {
	if b == nil {
		return nil
	}
	if p := b.done.Load(); p != nil {
		return *p
	}
	if err := b.check(); err != nil {
		return b.latch(err)
	}
	return nil
}

// latch records err as the cause of exhaustion unless another cause got
// there first, and returns the recorded cause. It is its own function so
// that only a latching call moves an error to the heap: Err, polled on every
// query, loop turn and SAT poll, allocates nothing while the budget lasts.
func (b *Budget) latch(err error) error {
	b.done.CompareAndSwap(nil, &err)
	return *b.done.Load()
}

func (b *Budget) check() error {
	if err := b.ctx.Err(); err != nil {
		return errors.Join(ErrBudget, err)
	}
	if !b.deadline.IsZero() && time.Now().After(b.deadline) {
		return errors.Join(ErrBudget, context.DeadlineExceeded)
	}
	if b.lim.Conflicts > 0 && b.counts[Conflicts].Load() >= b.lim.Conflicts {
		return errors.Join(ErrBudget, errors.New("engine: SAT conflict limit"))
	}
	if b.lim.Forks > 0 && b.counts[Forks].Load() >= b.lim.Forks {
		return errors.Join(ErrBudget, errors.New("engine: fork limit"))
	}
	if b.lim.Nodes > 0 && b.counts[Nodes].Load() >= b.lim.Nodes {
		return errors.Join(ErrBudget, errors.New("engine: interned-node limit"))
	}
	return nil
}

// Exceeded reports whether the budget is exhausted or cancelled.
func (b *Budget) Exceeded() bool { return b.Err() != nil }

// Fail forces the budget into the exhausted state with the given cause
// (wrapped under ErrBudget), as if a limit had tripped. Layers use it to
// convert their own fatal resource conditions — including injected
// faults — into the uniform budget-exhaustion unwind every other layer
// already polls for. The first cause wins; Fail after exhaustion is a
// no-op, and Fail on a nil budget does nothing.
func (b *Budget) Fail(cause error) {
	if b == nil {
		return
	}
	b.latch(errors.Join(ErrBudget, cause))
}

// Add charges n units of counter c, mirroring them into the attached
// metrics registry. A nil budget or n == 0 is a no-op.
func (b *Budget) Add(c Counter, n int64) {
	if b != nil && n != 0 {
		b.counts[c].Add(n)
		b.mirrors[c].Add(n)
	}
}

// Count returns the units of counter c charged so far.
func (b *Budget) Count(c Counter) int64 {
	if b == nil {
		return 0
	}
	return b.counts[c].Load()
}

// Spend snapshots every counter in wire form.
func (b *Budget) Spend() Spend {
	var s Spend
	if b == nil {
		return s
	}
	for c := range ledger {
		*ledger[c].field(&s) = b.counts[c].Load()
	}
	return s
}

// Conflicts returns the conflicts charged so far.
func (b *Budget) Conflicts() int64 { return b.Count(Conflicts) }

// Elapsed returns the wall-clock time since the budget was created.
func (b *Budget) Elapsed() time.Duration {
	if b == nil {
		return 0
	}
	return time.Since(b.start)
}

// Context returns the wrapped context (context.Background for nil budgets),
// for layers that hand work to context-aware APIs.
func (b *Budget) Context() context.Context {
	if b == nil {
		return context.Background()
	}
	return b.ctx
}
