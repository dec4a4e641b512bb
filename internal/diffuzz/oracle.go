package diffuzz

import (
	"errors"
	"fmt"
	"sync"

	"stringloops/internal/bv"
	"stringloops/internal/cc"
	"stringloops/internal/cegis"
	"stringloops/internal/cir"
	"stringloops/internal/engine"
	"stringloops/internal/faultpoint"
	"stringloops/internal/memoryless"
	"stringloops/internal/strsolver"
	"stringloops/internal/symex"
	"stringloops/internal/vocab"
)

// Target is one generated program prepared for checking: lowered IR, the
// synthesized summary when CEGIS succeeded, the memoryless verdict gating
// how widely the summary may be compared, and a per-buffer-capacity cache of
// symbolic paths (symbolic execution runs once per capacity, then replays on
// each concrete input for free).
type Target struct {
	Seed   uint64
	Prog   *Prog
	Source string
	F      *cir.Func

	HasSummary bool
	Summary    vocab.Program
	// Memoryless is true when the loop was verified memoryless; the
	// small-model argument (§5 of the paper) then extends the bounded
	// summary equivalence to strings of every length.
	Memoryless bool
	MaxExSize  int

	mu     sync.Mutex
	run    *symex.Runner        // the concrete oracle's runner for F
	paths  map[int]pathSet      // keyed by free content bytes (capacity - 1)
	mpaths map[int]pathSet      // state-merged runs, same key (Options.Merge)
	sym    *symex.Engine        // the symex oracle's engine over its own stack
	msym   *symex.Engine        // the merge oracle's engine (Options.Merge)
	faults *faultpoint.Registry // non-nil under Options.FaultRate > 0
}

type pathSet struct {
	paths []symex.Path
	err   error
}

// Finding is one triaged fuzzer result: the stage that disagreed (or
// panicked), what kind of disagreement, and everything needed to reproduce —
// the generator seed, the (possibly minimized) source and input.
type Finding struct {
	Seed      uint64
	Stage     string // "frontend", "concrete", "symex", "summary", or an executor name
	Kind      string // "reject", "panic", "divergence", "no-path", "overlap", "error"
	Source    string
	Input     []byte // full buffer including NUL terminator; nil = NULL pointer input
	NullInput bool
	Detail    string
	Minimized bool
}

func (f *Finding) String() string {
	in := "NULL"
	if !f.NullInput {
		in = fmt.Sprintf("%q", f.Input)
	}
	min := ""
	if f.Minimized {
		min = " (minimized)"
	}
	return fmt.Sprintf("seed %d: [%s/%s]%s input=%s: %s\n%s",
		f.Seed, f.Stage, f.Kind, min, in, f.Detail, f.Source)
}

// faultRegistry builds the per-seed fault schedule for a -faults run. The
// profile arms only skip-safe sites: solver Unknowns and conflict storms,
// cache-miss storms, candidate rejections and fork failures all make a stage
// degrade or skip, never diverge, so findings stay trustworthy under
// injection. SymexPanic is deliberately unarmed (the panic guard reports
// every recovered panic as a finding) and BVNodeExhaust is unarmed because
// the replay interner carries no per-seed budget to fail.
func faultRegistry(seed uint64, o *Options) *faultpoint.Registry {
	r := o.FaultRate
	return faultpoint.New(faultpoint.Config{
		Seed: seed ^ o.FaultSeed,
		Rates: map[faultpoint.Site]float64{
			faultpoint.SatUnknown:       0.05 * r,
			faultpoint.SatConflictStorm: 0.05 * r,
			faultpoint.QCacheMiss:       0.25 * r,
			faultpoint.SymexForkFail:    0.02 * r,
			faultpoint.CegisReject:      0.10 * r,
		},
	})
}

// guard runs fn, converting a panic into a finding against the given stage.
// The executors must never kill the process on generated programs; a
// recovered panic is itself a first-class fuzzing result.
func guard(seed uint64, stage, source string, input []byte, nullIn bool, fn func() *Finding) (f *Finding) {
	defer func() {
		if r := recover(); r != nil {
			f = &Finding{
				Seed: seed, Stage: stage, Kind: "panic",
				Source: source, Input: input, NullInput: nullIn,
				Detail: fmt.Sprintf("recovered panic: %v", r),
			}
		}
	}()
	return fn()
}

// PrepareTarget parses, lowers, and (budget permitting) synthesizes a
// summary for p. A front-end rejection or a panic in any preparation stage
// comes back as a finding; synthesis simply not finding a program is normal
// (the summary executor skips).
func PrepareTarget(seed uint64, p *Prog, opts *Options) (*Target, *Finding) {
	src := p.Source()
	t := &Target{
		Seed: seed, Prog: p, Source: src,
		MaxExSize: opts.maxExSize(),
		paths:     map[int]pathSet{},
	}
	if opts.FaultRate > 0 {
		t.faults = faultRegistry(seed, opts)
	}
	pipe := symex.Config{Faults: t.faults, Disk: opts.Cache}
	// Feasibility pruning is off by default: it costs a SAT query per fork
	// and buys nothing here — an infeasible path's condition simply never
	// matches the concrete input during replay. Under Options.QCache it is
	// switched on with the cache attached, so a cache answering Unsat for a
	// satisfiable fork drops the path that should claim some concrete input
	// and shows up as a "no-path" finding.
	t.sym = oracleEngine(pipe, opts.Budget, opts.QCache)
	if opts.Merge {
		// Feasibility checking is always on under merging: merged loops
		// whose cursors diverge into ite offsets need the solver to fold the
		// exit condition, and the merged disjunctive conditions are exactly
		// the shapes the qcache slicing must keep together — so this run
		// doubles as a differential test of cache-on-merged-conditions.
		pipe.Merge = true
		t.mpaths = map[int]pathSet{}
		t.msym = oracleEngine(pipe, opts.Budget, true)
	}

	if f := guard(seed, "frontend", src, nil, false, func() *Finding {
		file, err := cc.Parse(src)
		if err != nil {
			return &Finding{Seed: seed, Stage: "frontend", Kind: "reject", Source: src,
				Detail: fmt.Sprintf("generated source rejected by parser: %v", err)}
		}
		funcs, err := cir.LowerFile(file)
		if err != nil {
			return &Finding{Seed: seed, Stage: "frontend", Kind: "reject", Source: src,
				Detail: fmt.Sprintf("generated source rejected by lowering: %v", err)}
		}
		t.F = funcs[0]
		return nil
	}); f != nil {
		return nil, f
	}

	if opts.SynthTimeout > 0 {
		if f := guard(seed, "synthesize", src, nil, false, func() *Finding {
			ctx := opts.Budget.Context()
			b := engine.NewBudget(ctx, engine.Limits{Timeout: opts.SynthTimeout})
			out, err := cegis.Synthesize(t.F, cegis.Options{
				MaxExSize: t.MaxExSize,
				Budget:    b,
				Pipeline:  symex.Config{Faults: t.faults},
			})
			// Failure to synthesize is not a finding: many generated loops
			// have no gadget equivalent, and the budget is deliberately tiny.
			if err == nil && out.Found {
				t.HasSummary = true
				t.Summary = out.Program
			}
			return nil
		}); f != nil {
			return nil, f
		}
		if t.HasSummary {
			if f := guard(seed, "memoryless", src, nil, false, func() *Finding {
				// Bounded like synthesis: a timeout is a safe "don't know"
				// (the summary is then only compared on small buffers).
				b := engine.NewBudget(opts.Budget.Context(), engine.Limits{Timeout: opts.SynthTimeout})
				rep := memoryless.VerifyWith(t.F, memoryless.VerifyOptions{
					MaxLen: t.MaxExSize, Budget: b, Pipeline: symex.Config{Faults: t.faults},
				})
				t.Memoryless = rep.Memoryless && rep.Err == nil
				return nil
			}); f != nil {
				return nil, f
			}
		}
	}
	return t, nil
}

// runConcrete executes the loop in the cir interpreter — the ground truth.
// ok=false means the run is inconclusive (step limit: a diverging loop on
// this input) and the input should be skipped. An out-of-bounds or null
// access is the invalid pointer (UB); any other interpreter error, and a
// return that is neither NULL nor into the input, is an error.
func runConcrete(t *Target, input []byte) (vocab.Result, bool, error) {
	r, err := t.concrete(input)
	switch {
	case err == nil, errors.Is(err, cir.ErrMemory):
		return r, true, nil
	case errors.Is(err, cir.ErrStepLimit):
		return r, false, nil
	case errors.Is(err, symex.ErrForeignReturn):
		return r, false, err
	}
	return r, false, fmt.Errorf("interpreter error: %v", err)
}

// concrete runs F on input on the target's one runner.
func (t *Target) concrete(input []byte) (vocab.Result, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.run == nil {
		t.run = symex.NewRunner(t.F)
	}
	return t.run.Run(input, 1<<18)
}

// Executor is one cross-checked execution strategy. Run returns the outcome
// in the interpreter's result domain, vocab.Result. All executors must agree
// on it, including the invalid pointer (UB): UB is deterministic in this
// pipeline (the interpreter traps the first bad access), so a UB/defined
// mismatch is a real divergence. ok=false means "inconclusive, skip this
// input" (e.g. budget exhausted, summary not applicable), and a non-nil
// error is an internal failure reported as a finding. Panics are recovered
// by the caller. Tests inject deliberately buggy executors through this
// interface to prove the harness catches and minimizes divergences.
type Executor interface {
	Name() string
	Run(t *Target, input []byte) (res vocab.Result, ok bool, err error)
}

// DefaultExecutors returns the two executors cross-checked against the
// concrete interpreter: symbolic-execution replay and the synthesized
// summary.
func DefaultExecutors() []Executor {
	return []Executor{symexExecutor{}, summaryExecutor{}}
}

// symexExecutor enumerates the loop's symbolic paths on a fully symbolic
// buffer of the input's capacity, then replays the concrete input against
// the path conditions. Exactly one path must claim the input; its result
// must match the interpreter.
//
// With merged set it is the "merge" oracle, the third one under
// Options.Merge: the loop's join-point states fold into ite values and
// disjoined path conditions (symex.Engine.Merge), and the concrete input
// replays against the merged set — a merge bug that loses or duplicates
// behaviours surfaces as a no-path or overlap finding, and a wrong ite guard
// as a result divergence against the interpreter.
type symexExecutor struct{ merged bool }

func (e symexExecutor) Name() string {
	if e.merged {
		return "merge"
	}
	return "symex"
}

func (e symexExecutor) Run(t *Target, input []byte) (vocab.Result, bool, error) {
	n := -1 // NULL input: no buffer object
	if input != nil {
		n = len(input) - 1
	}
	return replayPaths(t.pathsFor(n, e.merged), input, n)
}

// replayPaths replays the concrete input against a symbolic path set:
// exactly one path must claim it, and its result is the verdict.
func replayPaths(ps pathSet, input []byte, n int) (vocab.Result, bool, error) {
	if ps.err != nil {
		if errors.Is(ps.err, symex.ErrTimeout) || errors.Is(ps.err, symex.ErrPathLimit) {
			return vocab.Result{}, false, nil
		}
		return vocab.Result{}, false, fmt.Errorf("symbolic execution failed: %v", ps.err)
	}

	asn := &bv.Assignment{Terms: map[string]uint64{}}
	for i := 0; i < n; i++ {
		asn.Terms[fmt.Sprintf("s[%d]", i)] = uint64(input[i])
	}
	ev := bv.NewEvaluator(asn)

	matched := false
	sawSkip := false
	var got vocab.Result
	for _, p := range ps.paths {
		if !ev.Bool(p.Cond) {
			continue
		}
		r, ok, err := mapPath(p, ev)
		if err != nil {
			return vocab.Result{}, false, err
		}
		if !ok {
			sawSkip = true
			continue
		}
		if matched && got != r {
			return vocab.Result{}, false, fmt.Errorf("overlap: two live paths claim the input with different results (%s vs %s)", got, r)
		}
		matched = true
		got = r
	}
	if !matched {
		if sawSkip {
			return vocab.Result{}, false, nil // only a step-limited path claims it
		}
		return vocab.Result{}, false, errors.New("no-path: no symbolic path condition matches the concrete input")
	}
	return got, true, nil
}

// mapPath maps one symbolic path outcome, under the evaluator for the
// concrete input, into the common result domain.
func mapPath(p symex.Path, ev *bv.Evaluator) (vocab.Result, bool, error) {
	lp, err := symex.ClassifyPath(p)
	switch {
	case err == nil:
	case errors.Is(err, symex.ErrOOB), errors.Is(err, symex.ErrNullDeref):
		return vocab.InvalidResult(), true, nil
	case errors.Is(err, symex.ErrStepLimit):
		return vocab.Result{}, false, nil
	default:
		return vocab.Result{}, false, fmt.Errorf("symbolic path: %v", err)
	}
	if lp.Kind == vocab.Ptr {
		return vocab.PtrResult(int(int32(ev.Term(lp.Off)))), true, nil
	}
	return vocab.Result{Kind: lp.Kind}, true, nil
}

// oracleEngine builds one symbolic oracle's engine over its own solver
// stack, with per-fork feasibility checking through the stack's query cache
// only when feasible is set. budget bounds the whole fuzzing run, so only
// forks and conflicts count against it; the interner charges it no nodes.
func oracleEngine(pipe symex.Config, budget *engine.Budget, feasible bool) *symex.Engine {
	eng := pipe.NewEngine(nil)
	eng.Budget = budget
	eng.MaxSteps, eng.MaxPaths = 1<<14, 1<<14
	if !feasible {
		eng.CheckFeasibility, eng.Cache = false, nil
	}
	return eng
}

// pathsFor runs (or returns the cached) symbolic execution for a buffer with
// n free content bytes plus the forced terminator; n == -1 is the NULL input.
// merged selects the merge oracle's engine and memo.
func (t *Target) pathsFor(n int, merged bool) pathSet {
	t.mu.Lock()
	defer t.mu.Unlock()
	memo, eng := t.paths, t.sym
	if merged {
		memo, eng = t.mpaths, t.msym
	}
	if ps, ok := memo[n]; ok {
		return ps
	}
	var buf []*bv.Term
	if n >= 0 {
		buf = strsolver.New(eng.In, "s", n).Bytes
	}
	paths, err := eng.RunOn(t.F, buf)
	ps := pathSet{paths: paths, err: err}
	memo[n] = ps
	return ps
}

// summaryExecutor evaluates the synthesized gadget program on the input.
// The summary is only expected to agree inside its verified domain: all
// buffer sizes when the loop is memoryless (small-model theorem), otherwise
// buffers of exactly the bounded-verification capacity, plus the NULL input
// (checked separately during synthesis). Shorter buffers are NOT instances
// of the verified capacity — out-of-bounds offsets differ, so a loop whose
// only over-read lands inside the larger buffer legitimately has UB on the
// smaller one (the fuzzer found exactly this on do-while loops; shorter
// strings are still covered via interior NULs at the verified capacity).
type summaryExecutor struct{}

func (summaryExecutor) Name() string { return "summary" }

func (summaryExecutor) Run(t *Target, input []byte) (vocab.Result, bool, error) {
	if !t.HasSummary {
		return vocab.Result{}, false, nil
	}
	if input != nil && !t.Memoryless && len(input)-1 != t.MaxExSize {
		return vocab.Result{}, false, nil
	}
	return vocab.Run(t.Summary, input), true, nil
}

// checkInput cross-checks one input (nil = NULL pointer) through every
// executor against the concrete interpreter, collecting findings.
func checkInput(t *Target, input []byte, execs []Executor) []*Finding {
	var finds []*Finding
	nullIn := input == nil
	var want vocab.Result
	conclusive := false
	if f := guard(t.Seed, "concrete", t.Source, input, nullIn, func() *Finding {
		w, ok, err := runConcrete(t, input)
		if err != nil {
			return &Finding{Seed: t.Seed, Stage: "concrete", Kind: "error",
				Source: t.Source, Input: input, NullInput: nullIn, Detail: err.Error()}
		}
		want, conclusive = w, ok
		return nil
	}); f != nil {
		return []*Finding{f}
	}
	if !conclusive {
		return nil
	}

	for _, ex := range execs {
		ex := ex
		if f := guard(t.Seed, ex.Name(), t.Source, input, nullIn, func() *Finding {
			got, ok, err := ex.Run(t, input)
			if err != nil {
				return &Finding{Seed: t.Seed, Stage: ex.Name(), Kind: "error",
					Source: t.Source, Input: input, NullInput: nullIn, Detail: err.Error()}
			}
			if !ok {
				return nil
			}
			if got != want {
				detail := fmt.Sprintf("interpreter says %s, %s says %s", want, ex.Name(), got)
				if ex.Name() == "summary" {
					detail += fmt.Sprintf(" (summary %q, memoryless=%v)", t.Summary.String(), t.Memoryless)
				}
				return &Finding{Seed: t.Seed, Stage: ex.Name(), Kind: "divergence",
					Source: t.Source, Input: input, NullInput: nullIn, Detail: detail}
			}
			return nil
		}); f != nil {
			finds = append(finds, f)
		}
	}
	return finds
}
