package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"stringloops/internal/bv"
	"stringloops/internal/cir"
	"stringloops/internal/cstr"
	"stringloops/internal/engine"
	"stringloops/internal/faultpoint"
	"stringloops/internal/memoryless"
	"stringloops/internal/obs"
	"stringloops/internal/sat"
	"stringloops/internal/strsolver"
	"stringloops/internal/supervise"
	"stringloops/internal/symex"
	"stringloops/internal/vocab"
)

// Rung identifies a level of the graceful-degradation ladder walked by
// SummarizeResilient, from the full result down to the concrete floor.
type Rung int

// The ladder, best first.
const (
	// RungFull is the complete summary (what Summarize returns).
	RungFull Rung = iota
	// RungMemoryless is the §3 memorylessness verdict alone — synthesis
	// failed, but the loop's class is still established.
	RungMemoryless
	// RungCovering is a set of path-covering concrete inputs obtained from
	// symbolic execution of the loop directly (no synthesis, no solver-heavy
	// equivalence queries) — the §4.3 testing application degraded to the
	// loop itself.
	RungCovering
	// RungSmoke is the loop's concrete behaviour on a fixed input battery,
	// computed purely by the interpreter; it uses no solver and no symbolic
	// engine, so it is the fault-free floor of the ladder.
	RungSmoke
	// RungFailed means even the floor failed (e.g. the source does not
	// parse); Outcome.Err carries the cause.
	RungFailed
)

func (r Rung) String() string {
	switch r {
	case RungFull:
		return "full"
	case RungMemoryless:
		return "memoryless"
	case RungCovering:
		return "covering"
	case RungSmoke:
		return "smoke"
	}
	return "failed"
}

// AttemptRecord is one supervised attempt at one rung, with what it spent.
type AttemptRecord struct {
	Rung     Rung
	Limits   engine.Limits
	Err      error
	Panicked bool
	// Spend and Elapsed are the attempt budget's spend and wall time. Spend
	// is nil when the attempt ran without a budget: smoke attempts, which
	// only interpret, and attempts refused because Ctx was already done.
	Spend   *engine.Spend
	Elapsed time.Duration
}

// Outcome is the structured result of a resilient summarisation: which rung
// was reached, its payload, and the full attempt history that led there.
type Outcome struct {
	// Rung is the highest rung that succeeded.
	Rung Rung
	// Summary is set when Rung == RungFull.
	Summary *Summary
	// Memoryless is set when Rung == RungMemoryless.
	Memoryless *MemorylessReport
	// Covering is set when Rung == RungCovering.
	Covering []TestInput
	// Smoke is set when Rung == RungSmoke: the loop's concrete behaviour on
	// the fixed smoke battery (undefined-behaviour inputs are omitted).
	Smoke []TestInput
	// Attempts is every attempt made, across all rungs tried, in order.
	Attempts []AttemptRecord
	// Err says why the ladder descended: the last failed rung's error. It
	// is nil when the first rung tried succeeded (retries within it
	// included) and the cause when Rung == RungFailed.
	Err error
}

// Spend is the summed spend of every attempt's budget.
func (o Outcome) Spend() engine.Spend {
	var total engine.Spend
	for _, a := range o.Attempts {
		if a.Spend != nil {
			total.Add(*a.Spend)
		}
	}
	return total
}

// ResilientOptions configures SummarizeResilient. The embedded Options
// configure each attempt exactly as for Summarize, except that Budget is
// ignored: every attempt runs under a fresh budget derived from Limits so
// escalation can actually grant more resources.
type ResilientOptions struct {
	Options
	// Ctx, when non-nil, is the cancellation root of the whole ladder: every
	// attempt budget derives from it, so cancelling it (a disconnected
	// client, a draining server) unwinds the pipeline mid-solve and stops
	// the descent instead of walking the remaining rungs for nobody. Nil
	// keeps the pre-existing behaviour (attempts run under pure limits).
	Ctx context.Context
	// StartRung skips the ladder's rungs above it: a server shedding load
	// starts a request at RungMemoryless (or lower) to spend less per
	// request before it has to shed requests. RungFull (the zero value) is
	// the complete ladder.
	StartRung Rung
	// Limits is the first attempt's resource envelope. The zero value means
	// a wall-clock envelope from Options.Timeout (default 30s); chaos tests
	// use pure resource limits (conflicts/forks/nodes) for determinism.
	Limits engine.Limits
	// MaxLimits caps the 2× escalation per field (zero fields are uncapped).
	MaxLimits engine.Limits
	// MaxAttempts bounds attempts per rung (default 3).
	MaxAttempts int
	// Tracer, when non-nil, records the ladder: one span per rung tried
	// (with its failure error as an attribute) plus the per-phase spans the
	// instrumented layers emit under each attempt's budget.
	Tracer *obs.Tracer
	// Metrics, when non-nil, receives the supervision counters and every
	// per-attempt budget's spend; faultpoint firings are dumped into
	// faultpoint.fired.<site> counters at the end of the run.
	Metrics *obs.Metrics
}

// rungRun runs one attempt at a rung under the attempt's budget, which is
// nil for the smoke rung.
type rungRun func(b *engine.Budget) error

// descend walks the ladder from StartRung down; run[r] attempts rung r.
// Each rung gets up to MaxAttempts attempts: an error wrapping
// engine.ErrBudget is retried under limits doubled up to MaxLimits, any
// other error or a panic fails the rung at once. The first rung that
// succeeds wins, with the last failed rung's error when it is not the first
// rung tried (nil when it is, even after retries); descend returns
// RungFailed and the last error when no rung succeeds.
// Every attempt is counted in Metrics (supervise.attempts, .retries,
// .panics, and supervise.rung.<name> for the winner) and every rung tried
// records a "rung/<name>" span with its attempt count and outcome.
func (o ResilientOptions) descend(run [RungFailed]rungRun) (Rung, []AttemptRecord, error) {
	first := o.Limits
	if first == (engine.Limits{}) {
		t := o.Timeout
		if t == 0 {
			t = 30 * time.Second
		}
		first = engine.Limits{Timeout: t}
	}
	maxAttempts := o.MaxAttempts
	if maxAttempts < 1 {
		maxAttempts = 3
	}
	start := o.StartRung
	if start < RungFull || start > RungSmoke {
		start = RungFull
	}
	var attempts []AttemptRecord
	var err, failed error
	for r := start; r < RungFailed; r++ {
		span := o.Tracer.Start("rung/" + r.String())
		before := len(attempts)
		lim := first
		for n := 0; n < maxAttempts; n++ {
			if n > 0 {
				o.Metrics.Counter(obs.MSupRetries).Inc()
				lim = lim.Scale(o.MaxLimits)
			}
			a := o.attempt(r, lim, run[r])
			attempts = append(attempts, a)
			if err = a.Err; err == nil || a.Panicked || !errors.Is(err, engine.ErrBudget) {
				break
			}
		}
		span.SetInt("attempts", int64(len(attempts)-before))
		if err == nil {
			span.SetAttr("outcome", "ok")
			span.End()
			o.Metrics.Counter(obs.MSupRungPrefix + r.String()).Inc()
			return r, attempts, failed
		}
		failed = err
		span.SetAttr("outcome", "failed")
		span.SetAttr("error", err.Error())
		span.End()
	}
	return RungFailed, attempts, err
}

// attempt makes one attempt at rung r under limits lim, with panics
// isolated into *PanicError. Once Ctx is done it refuses to run: the
// attempt fails with an error that deliberately does NOT wrap
// engine.ErrBudget, so it is not retried and the descent does not burn
// attempts for a caller that is gone.
func (o ResilientOptions) attempt(r Rung, lim engine.Limits, run rungRun) AttemptRecord {
	o.Metrics.Counter(obs.MSupAttempts).Inc()
	a := AttemptRecord{Rung: r, Limits: lim}
	if o.Ctx != nil && o.Ctx.Err() != nil {
		a.Err = fmt.Errorf("core: resilient ladder cancelled: %w", o.Ctx.Err())
		return a
	}
	var b *engine.Budget
	if r != RungSmoke {
		b = engine.NewBudget(o.Ctx, lim).SetObs(o.Tracer, o.Metrics)
	}
	a.Err = supervise.Guard(func() error { return run(b) })
	var pe *PanicError
	if a.Panicked = errors.As(a.Err, &pe); a.Panicked {
		o.Metrics.Counter(obs.MSupPanics).Inc()
	}
	if b != nil {
		spend := b.Spend()
		a.Spend, a.Elapsed = &spend, b.Elapsed()
	}
	return a
}

// SummarizeResilient summarises with supervision: panics are isolated into
// typed errors, budget exhaustion is retried under exponentially escalating
// limits, and when the full summary stays out of reach the ladder degrades
// — memorylessness verdict, then covering inputs, then the concrete smoke
// floor — so every item yields the best outcome its faults allow.
func SummarizeResilient(source, funcName string, opts ResilientOptions) Outcome {
	// The floor rungs need the lowered loop; a lowering failure is the one
	// genuinely unrecoverable outcome (nothing to run the interpreter on).
	f, lowerErr := lowerTraced(source, funcName, opts.Tracer)
	if lowerErr != nil {
		return Outcome{Rung: RungFailed, Err: lowerErr}
	}
	// Charge the faultpoint firings of this run to the registry when it
	// ends, so chaos reports show which sites actually fired alongside the
	// retry counters. The fault registry outlives the run (a daemon shares
	// one across requests), so the run charges what fired since it began;
	// runs that overlap on one registry each count the other's firings.
	if faults := opts.Pipeline.Faults; opts.Metrics != nil && faults != nil {
		sites := faultpoint.Sites()
		before := make([]uint64, len(sites))
		for i, site := range sites {
			before[i] = faults.Fired(site)
		}
		defer func() {
			for i, site := range sites {
				if n := faults.Fired(site) - before[i]; n > 0 {
					opts.Metrics.Counter(obs.MFaultPrefix + site.String()).Add(int64(n))
				}
			}
		}()
	}

	// Each rung sets its payload only when it succeeds, so a failed rung
	// leaves nothing behind.
	var out Outcome
	maxLen := max(3, opts.MaxExampleLength)
	out.Rung, out.Attempts, out.Err = opts.descend([RungFailed]rungRun{
		RungFull: func(b *engine.Budget) error {
			o := opts.Options
			o.Budget = b
			s, err := summarizeLowered(f, o)
			if err != nil {
				return err
			}
			out.Summary = s
			return nil
		},
		RungMemoryless: func(b *engine.Budget) error {
			r := memoryless.VerifyWith(f, memoryless.VerifyOptions{
				MaxLen: maxLen, Budget: b, Pipeline: opts.Pipeline,
			})
			if r.Err != nil {
				return r.Err
			}
			out.Memoryless = memorylessReport(r)
			return nil
		},
		RungCovering: func(b *engine.Budget) error {
			inputs, err := loopCoveringInputs(f, maxLen, b, opts.Pipeline)
			if err != nil {
				return err
			}
			out.Covering = inputs
			return nil
		},
		RungSmoke: func(*engine.Budget) error {
			inputs, err := smokeRun(f)
			if err != nil {
				return err
			}
			out.Smoke = inputs
			return nil
		},
	})
	return out
}

// loopCoveringInputs generates one concrete input per feasible terminal path
// of the loop on strings up to maxLen, directly from symbolic execution —
// the degraded form of Summary.CoveringInputs that needs no synthesised
// summary.
func loopCoveringInputs(f *cir.Func, maxLen int, budget *engine.Budget, pipe symex.Config) ([]TestInput, error) {
	eng := pipe.NewEngine(budget)
	cache := eng.Cache
	buf := strsolver.New(eng.In, "s", maxLen).Bytes
	paths, err := eng.RunOn(f, buf)
	if err != nil {
		return nil, err
	}
	var out []TestInput
	seen := map[string]bool{}
	for _, p := range paths {
		if p.Err != nil {
			continue // undefined behaviour: no test input to emit
		}
		st, model := cache.CheckSat(budget, p.Cond)
		if st == sat.Unknown {
			return nil, fmt.Errorf("core: covering-input query exhausted its budget (%w)", engine.ErrBudget)
		}
		if st != sat.Sat {
			continue
		}
		ev := bv.NewEvaluator(model)
		raw := make([]byte, maxLen+1)
		for i := 0; i < maxLen; i++ {
			raw[i] = byte(ev.Term(buf[i]))
		}
		in := cstr.GoString(raw, 0)
		// A model may place significant bytes after an interior NUL (a
		// rawmemchr-style loop reads past the terminator), but TestInput is
		// a C string and cannot carry them. Keep the input only if the
		// NUL-truncated buffer still drives the loop down this path, and
		// evaluate the result under the truncated bytes.
		trunc := &bv.Assignment{Terms: map[string]uint64{}}
		for i := 0; i < maxLen; i++ {
			var b byte
			if i < len(in) {
				b = in[i]
			}
			trunc.Terms[fmt.Sprintf("s[%d]", i)] = uint64(b)
		}
		tev := bv.NewEvaluator(trunc)
		if !tev.Bool(p.Cond) {
			continue
		}
		if seen[in] {
			continue
		}
		seen[in] = true
		ti := TestInput{Input: in}
		switch lp, _ := symex.ClassifyPath(p); lp.Kind {
		case vocab.Null:
			ti.Null = true
		case vocab.Ptr:
			ti.Offset = int(int32(tev.Term(lp.Off)))
		default:
			continue
		}
		out = append(out, ti)
	}
	// Under fault injection every path can come back errored (e.g. injected
	// fork failures); an empty input set is no payload, so the rung reports
	// failure and the ladder descends to the smoke floor.
	if len(out) == 0 {
		return nil, errors.New("core: no feasible terminal path yielded a covering input")
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Input < out[j].Input })
	return out, nil
}

// smokeBattery is the fixed input set of the floor rung. "a\nb" gives a
// rawmemchr-style scan for '\n' one defined input.
var smokeBattery = []string{
	"", " ", "a", "ab", "abc", "  x", "x  ", "0", "123", ":", "a:b", "/", "\t", "a\nb",
}

// ErrSmokeUndefined is the smoke rung's failure: the loop has undefined
// behaviour on every input of the battery, so the floor has no payload.
var ErrSmokeUndefined = errors.New("core: loop has undefined behaviour on every smoke input")

// smokeRun executes the loop concretely on the smoke battery. It needs only
// the interpreter — no solver, no symbolic engine — so it succeeds whenever
// the loop was lowered and is defined on at least one battery input.
func smokeRun(f *cir.Func) ([]TestInput, error) {
	var out []TestInput
	run := symex.NewRunner(f)
	for _, in := range smokeBattery {
		r, _ := run.Run(cstr.Terminate(in), 1<<16)
		ti := TestInput{Input: in}
		switch r.Kind {
		case vocab.Null:
			ti.Null = true
		case vocab.Ptr:
			ti.Offset = r.Off
		default:
			continue // undefined behaviour on this input
		}
		out = append(out, ti)
	}
	if len(out) == 0 {
		return nil, ErrSmokeUndefined
	}
	return out, nil
}

// PanicError re-exports the supervised panic type so callers of this package
// (and the facade) can errors.As against it without importing supervise.
type PanicError = supervise.PanicError
