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

// AttemptRecord is one supervised attempt at one rung.
type AttemptRecord struct {
	Rung     Rung
	Limits   engine.Limits
	Err      error
	Panicked bool
}

// SmokeResult is the floor rung's payload: the loop's concrete behaviour on
// the fixed smoke battery (undefined-behaviour inputs are omitted).
type SmokeResult struct {
	Inputs []TestInput
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
	// Smoke is set when Rung == RungSmoke.
	Smoke *SmokeResult
	// Attempts is every attempt made, across all rungs tried, in order.
	Attempts []AttemptRecord
	// Err is the final error when Rung == RungFailed (and the last rung
	// error otherwise, for diagnostics; nil when RungFull succeeded on the
	// first attempt).
	Err error
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
	// OnBudget, when non-nil, observes every attempt budget as it is
	// created. Servers use it to reconcile per-request budget spend against
	// the request's metric registry after the ladder returns.
	OnBudget func(*engine.Budget)
	// Limits is the first attempt's resource envelope. The zero value means
	// a wall-clock envelope from Options.Timeout (default 30s); chaos tests
	// use pure resource limits (conflicts/forks/nodes) for determinism.
	Limits engine.Limits
	// MaxLimits caps escalation per field (zero fields are uncapped).
	MaxLimits engine.Limits
	// MaxAttempts bounds attempts per rung (default 3).
	MaxAttempts int
	// Multiplier scales limits between attempts (default 2).
	Multiplier float64
	// Backoff is the base sleep before each retry (default 0: no sleeping,
	// which keeps batch runs deterministic).
	Backoff time.Duration
	// Seed drives the deterministic backoff jitter.
	Seed uint64
	// Tracer, when non-nil, records the ladder: one span per rung tried
	// (with its failure error as an attribute) plus the per-phase spans the
	// instrumented layers emit under each attempt's budget.
	Tracer *obs.Tracer
	// Metrics, when non-nil, receives the supervision counters and every
	// per-attempt budget's spend; faultpoint firings are dumped into
	// faultpoint.fired.<site> counters at the end of the run.
	Metrics *obs.Metrics
}

func (o ResilientOptions) policy() supervise.Policy {
	lim := o.Limits
	if lim == (engine.Limits{}) {
		t := o.Timeout
		if t == 0 {
			t = 30 * time.Second
		}
		lim = engine.Limits{Timeout: t}
	}
	return supervise.Policy{
		MaxAttempts: o.MaxAttempts,
		Multiplier:  o.Multiplier,
		Limits:      lim,
		MaxLimits:   o.MaxLimits,
		Backoff:     o.Backoff,
		Seed:        o.Seed,
		Tracer:      o.Tracer,
		Metrics:     o.Metrics,
	}
}

// newAttemptBudget builds one attempt's budget carrying the run's
// observability handles, rooted at the ladder's cancellation context.
func (o ResilientOptions) newAttemptBudget(lim engine.Limits) *engine.Budget {
	b := engine.NewBudget(o.Ctx, lim).SetObs(o.Tracer, o.Metrics)
	if o.OnBudget != nil {
		o.OnBudget(b)
	}
	return b
}

// errCancelled classifies a ladder abandoned by its caller: it wraps the
// context cause but deliberately NOT engine.ErrBudget, so the supervisor
// treats it as non-retryable and the descent stops instead of burning
// attempts for a caller that is gone.
func cancelErr(cause error) error {
	return fmt.Errorf("core: resilient ladder cancelled: %w", cause)
}

// SummarizeResilient summarises with supervision: panics are isolated into
// typed errors, budget exhaustion is retried under exponentially escalating
// limits, and when the full summary stays out of reach the ladder degrades
// — memorylessness verdict, then covering inputs, then the concrete smoke
// floor — so every item yields the best outcome its faults allow.
func SummarizeResilient(source, funcName string, opts ResilientOptions) Outcome {
	var out Outcome

	// The floor rungs need the lowered loop; a lowering failure is the one
	// genuinely unrecoverable outcome (nothing to run the interpreter on).
	f, lowerErr := lowerTraced(source, funcName, opts.Tracer)
	if lowerErr != nil {
		return Outcome{Rung: RungFailed, Err: lowerErr}
	}
	// Dump faultpoint firings into the registry when the run ends, so chaos
	// reports show which sites actually fired alongside the retry counters.
	if opts.Metrics != nil && opts.Pipeline.Faults != nil {
		defer func() {
			for _, site := range faultpoint.Sites() {
				if n := opts.Pipeline.Faults.Fired(site); n > 0 {
					opts.Metrics.Counter(obs.MFaultPrefix + site.String()).Add(int64(n))
				}
			}
		}()
	}

	maxLen := max(3, opts.MaxExampleLength)
	rungs := []supervise.Rung{
		{Name: RungFull.String(), Run: func(lim engine.Limits) error {
			o := opts.Options
			o.Budget = opts.newAttemptBudget(lim)
			s, err := summarizeLowered(f, o)
			if err != nil {
				return err
			}
			out.Summary = s
			return nil
		}},
		{Name: RungMemoryless.String(), Run: func(lim engine.Limits) error {
			b := opts.newAttemptBudget(lim)
			r := memoryless.VerifyWith(f, memoryless.VerifyOptions{
				MaxLen: maxLen, Budget: b, Pipeline: opts.Pipeline,
			})
			if r.Err != nil {
				return r.Err
			}
			out.Memoryless = memorylessReport(r)
			return nil
		}},
		{Name: RungCovering.String(), Run: func(lim engine.Limits) error {
			b := opts.newAttemptBudget(lim)
			inputs, err := loopCoveringInputs(f, maxLen, b, opts.Pipeline)
			if err != nil {
				return err
			}
			out.Covering = inputs
			return nil
		}},
		{Name: RungSmoke.String(), Run: func(engine.Limits) error {
			out.Smoke = smokeRun(f)
			return nil
		}},
	}

	// A shed server starts the ladder below the top; rung identities stay
	// global (RungMemoryless is RungMemoryless whether or not RungFull was
	// ever attempted), so indices are offset back after the descent.
	start := opts.StartRung
	if start < RungFull || start > RungSmoke {
		start = RungFull
	}
	rungs = rungs[start:]
	// Cancellation cuts the descent: once the caller's context is done,
	// every remaining rung would run under an already-exhausted budget for
	// a caller that is gone. The wrapper error is deliberately outside
	// engine.ErrBudget so the supervisor classifies it non-retryable.
	if opts.Ctx != nil {
		for i := range rungs {
			run := rungs[i].Run
			rungs[i].Run = func(lim engine.Limits) error {
				if cause := opts.Ctx.Err(); cause != nil {
					return cancelErr(cause)
				}
				return run(lim)
			}
		}
	}

	idx, history, err := supervise.Descend(opts.policy(), rungs)
	for ri, attempts := range history {
		for _, a := range attempts {
			out.Attempts = append(out.Attempts, AttemptRecord{
				Rung: Rung(ri) + start, Limits: a.Limits, Err: a.Err, Panicked: a.Panicked,
			})
		}
	}
	out.Err = err
	if idx >= len(rungs) {
		out.Rung = RungFailed
		return out
	}
	out.Rung = Rung(idx) + start
	// Lower rungs' payloads stay nil; a successful rung clears Err only for
	// the top rung (lower-rung successes keep the last failure around as the
	// reason the ladder descended).
	if out.Rung == RungFull {
		out.Err = nil
	}
	return out
}

// loopCoveringInputs generates one concrete input per feasible terminal path
// of the loop on strings up to maxLen, directly from symbolic execution —
// the degraded form of Summary.CoveringInputs that needs no synthesised
// summary.
func loopCoveringInputs(f *cir.Func, maxLen int, budget *engine.Budget, pipe symex.Config) ([]TestInput, error) {
	eng := pipe.NewEngine(budget)
	cache := eng.Cache
	buf := symex.SymbolicString(eng.In, "s", maxLen)
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

// smokeBattery is the fixed input set of the floor rung.
var smokeBattery = []string{
	"", " ", "a", "ab", "abc", "  x", "x  ", "0", "123", ":", "a:b", "/", "\t",
}

// smokeRun executes the loop concretely on the smoke battery. It needs only
// the interpreter — no solver, no symbolic engine — so it succeeds whenever
// the loop was lowered at all.
func smokeRun(f *cir.Func) *SmokeResult {
	res := &SmokeResult{}
	for _, in := range smokeBattery {
		r, _ := symex.RunConcrete(f, cstr.Terminate(in), 1<<16)
		ti := TestInput{Input: in}
		switch r.Kind {
		case vocab.Null:
			ti.Null = true
		case vocab.Ptr:
			ti.Offset = r.Off
		default:
			continue // undefined behaviour on this input
		}
		res.Inputs = append(res.Inputs, ti)
	}
	return res
}

// PanicError re-exports the supervised panic type so callers of this package
// (and the facade) can errors.As against it without importing supervise.
type PanicError = supervise.PanicError
