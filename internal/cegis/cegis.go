// Package cegis implements the counterexample-guided inductive synthesis of
// Algorithm 2: given a memoryless string loop as a cir function with the
// char *loopFunction(char *) signature, it searches for a gadget program
// (package vocab) equivalent to the loop on all strings up to max_ex_size —
// which, by the small-model theorems of §3, extends to strings of arbitrary
// length for memoryless loops.
//
// The search mirrors what KLEE does when it runs Algorithm 2: the symbolic
// program bytes fork into concrete opcode skeletons (our enumeration, in
// increasing encoded size — the iterative deepening the paper advocates in
// §4.2.2), while the argument characters stay symbolic and are solved with
// the SAT-backed bit-vector solver against the current counterexample set.
// Each candidate that matches all counterexamples is checked for bounded
// equivalence against the loop's merged symbolic paths; a disagreement
// yields a new counterexample string, exactly as in lines 22-24 of
// Algorithm 2.
package cegis

import (
	"errors"
	"fmt"
	"time"

	"stringloops/internal/bv"
	"stringloops/internal/cir"
	"stringloops/internal/cstr"
	"stringloops/internal/diskcache"
	"stringloops/internal/engine"
	"stringloops/internal/faultpoint"
	"stringloops/internal/obs"
	"stringloops/internal/qcache"
	"stringloops/internal/sat"
	"stringloops/internal/strsolver"
	"stringloops/internal/symex"
	"stringloops/internal/vocab"
)

// Options configures a synthesis run; the zero value is completed by
// defaults matching the paper's main experiment (§4.2.1).
type Options struct {
	// Vocabulary restricts the gadgets used (default: the full Table 1 set).
	Vocabulary vocab.Vocabulary
	// MaxProgSize bounds the encoded program size (paper default 9).
	MaxProgSize int
	// MinProgSize starts the iterative deepening (default 1).
	MinProgSize int
	// MaxExSize bounds the symbolic example string length (paper default 3).
	MaxExSize int
	// MaxSetLen bounds strspn-family argument sets (default 3; the paper's
	// four-character sets are the libosip outliers that take over an hour).
	MaxSetLen int
	// Timeout bounds the whole synthesis (default 30s; the paper uses 2h on
	// its KLEE+Z3 stack).
	Timeout time.Duration
	// SolverBudget bounds each solver query in SAT conflicts (0 = unbounded).
	SolverBudget int64
	// Budget, when non-nil, replaces the Timeout-derived budget: synthesis
	// polls it between skeletons and candidate iterations, charges solver
	// conflicts and symbolic-execution forks to it, and returns ErrTimeout
	// promptly once it is exhausted or its context is cancelled.
	Budget *engine.Budget
	// DisablePruning turns off candidate canonicalisation (for the ablation
	// benchmark).
	DisablePruning bool
	// DisableMetaChars forbids meta-characters in solved arguments — the
	// §2.2 ablation (the paper: synthesis still works, but slower, because
	// character classes need every member spelled out).
	DisableMetaChars bool
	// DisableCexReuse drops the counterexample set at every program size
	// instead of carrying it into the next one (the ablation; reuse is the
	// default).
	DisableCexReuse bool
	// Merge enables state merging when the loop's symbolic paths are
	// computed (symex.Engine.Merge): join-point states fold into ite values
	// and disjoined conditions instead of enumerating every path suffix.
	Merge bool
	// DisableQCache turns off the per-synthesizer query cache
	// (internal/qcache) and solves every query with a fresh solver — the
	// baseline configuration for the cache-on/off benchmarks.
	DisableQCache bool
	// NoVN disables the value-numbering rewrite layer on the synthesizer's
	// interner (bv.Interner.SetVN); inverted so the zero Options keeps it
	// on. Candidate-check formulas then reach the solver unrewritten.
	NoVN bool
	// Faults, when non-nil, arms the fault-injection sites of this
	// synthesis pipeline: the CegisReject candidate-rejection burst here,
	// and the sat/bv/qcache/symex sites in the layers below, all under one
	// seeded schedule. Nil (the default) disables injection at zero cost.
	Faults *faultpoint.Registry
	// Disk, when non-nil, backs the per-synthesizer query cache with a
	// shared counterexample store keyed by canonical (interner-independent)
	// query hashes, so verdicts persist across synthesizer instances and
	// across processes. Ignored under DisableQCache.
	Disk *diskcache.Store
}

func (o Options) withDefaults() Options {
	if o.Vocabulary == 0 {
		o.Vocabulary = vocab.FullVocabulary
	}
	if o.MaxProgSize == 0 {
		o.MaxProgSize = 9
	}
	if o.MinProgSize == 0 {
		o.MinProgSize = 1
	}
	if o.MaxExSize == 0 {
		o.MaxExSize = 3
	}
	if o.MaxSetLen == 0 {
		o.MaxSetLen = 3
	}
	if o.Timeout == 0 {
		o.Timeout = 30 * time.Second
	}
	return o
}

// Stats counts synthesis work.
type Stats struct {
	Skeletons       int
	CandidatesRun   int
	ArgSolverCalls  int
	VerifyQueries   int
	Counterexamples int
}

// Outcome is the result of Synthesize.
type Outcome struct {
	Found   bool
	Program vocab.Program
	Elapsed time.Duration
	Stats   Stats
}

// Errors.
var (
	// ErrTimeout means the budget expired (timeout, cancellation, or a
	// resource cap) before a program was found. It wraps engine.ErrBudget
	// so every layer above can classify it as retryable exhaustion with
	// errors.Is(err, engine.ErrBudget).
	ErrTimeout = fmt.Errorf("cegis: timeout (%w)", engine.ErrBudget)
	// ErrUnsupportedLoop means the loop uses operations outside the symbolic
	// executor's subset.
	ErrUnsupportedLoop = errors.New("cegis: loop not supported by symbolic execution")
)

// origPath is one merged symbolic path of the original loop, with its result
// normalised to the interpreter's result domain.
type origPath struct {
	cond *bv.Bool
	kind vocab.ResultKind
	off  *bv.Term // when kind == Ptr
}

// Synthesizer holds the per-loop state of Algorithm 2.
type Synthesizer struct {
	opts     Options
	loop     *cir.Func
	symStr   *strsolver.SymString
	origSym  []origPath
	origNull vocab.Result
	cexs     [][]byte // counterexample buffers (NUL-terminated)
	bvin     *bv.Interner
	cache    *qcache.Cache // nil when Options.DisableQCache
	budget   *engine.Budget
	stats    Stats

	// Per-counterexample memo, parallel to cexs and filled once by addCex:
	// Original(cex) and cex as a string of constant terms. Every skeleton
	// reads them instead of re-running the loop and rebuilding the string.
	cexWant []vocab.Result
	cexStr  []*strsolver.SymString
}

// New prepares a synthesizer for the loop. The loop must have the
// char *loopFunction(char *) shape (one pointer parameter, pointer return).
func New(loop *cir.Func, opts Options) (*Synthesizer, error) {
	opts = opts.withDefaults()
	s := &Synthesizer{opts: opts, loop: loop, bvin: bv.NewInterner(), budget: opts.Budget}
	s.bvin.SetFaults(opts.Faults).SetVN(!opts.NoVN)
	if !opts.DisableQCache {
		s.cache = qcache.New(s.bvin).SetFaults(opts.Faults).SetDisk(opts.Disk)
	}
	if len(loop.Params) != 1 || loop.Params[0].Ty != cir.TyPtr {
		return nil, fmt.Errorf("cegis: %s does not have the loopFunction signature", loop.Name)
	}

	// Original(NULL), computed concretely once (§2: loops may guard NULL).
	mem := cir.NewMemory()
	res, err := cir.Exec(loop, []cir.CVal{cir.NullVal()}, mem, 0)
	s.origNull = concreteResult(res, err, -1)

	// The loop's symbolic paths on a fresh symbolic string of max_ex_size
	// (line 10 of Algorithm 2), merged: computed once, reused per candidate.
	buf := symex.SymbolicString(s.bvin, "s", opts.MaxExSize)
	s.symStr = strsolver.Wrap(s.bvin, buf)
	paths, err := symbolicPaths(loop, s.bvin, s.cache, s.budget, opts.Faults, buf, opts.SolverBudget, opts.Merge)
	if err != nil {
		return nil, err
	}
	s.origSym = paths
	return s, nil
}

// symbolicPaths runs f on the symbolic buffer and normalises every terminal
// path into the interpreter result domain. Feasibility checking prunes
// infeasible iterations of loops over symbolic cursors (without it, a
// backward scan whose guard never folds syntactically would spin to the
// step limit).
func symbolicPaths(f *cir.Func, bvin *bv.Interner, cache *qcache.Cache, budget *engine.Budget, faults *faultpoint.Registry, buf []*bv.Term, solverBudget int64, merge bool) ([]origPath, error) {
	eng := &symex.Engine{
		Objects:          [][]*bv.Term{buf},
		CheckFeasibility: true,
		Merge:            merge,
		SolverBudget:     solverBudget,
		In:               bvin,
		Budget:           budget,
		Cache:            cache,
		Faults:           faults,
	}
	paths, runErr := eng.Run(f, []symex.Value{symex.PtrValue(0, bvin.Int32(0))}, bv.True)
	if errors.Is(runErr, symex.ErrTimeout) {
		return nil, fmt.Errorf("%w: %w", ErrTimeout, runErr)
	}
	if runErr != nil {
		return nil, fmt.Errorf("%w: %v", ErrUnsupportedLoop, runErr)
	}
	var out []origPath
	for _, p := range paths {
		op := origPath{cond: p.Cond}
		switch {
		case p.Err != nil:
			if errors.Is(p.Err, symex.ErrUnsupported) {
				return nil, fmt.Errorf("%w: %v", ErrUnsupportedLoop, p.Err)
			}
			// Undefined behaviour on this path (OOB/null deref): the
			// interpreter's invalid pointer is the matching outcome.
			op.kind = vocab.Invalid
		case p.Ret.IsNull():
			op.kind = vocab.Null
		case p.Ret.IsPtr && p.Ret.Obj == 0:
			op.kind = vocab.Ptr
			op.off = p.Ret.Off
		default:
			op.kind = vocab.Invalid
		}
		out = append(out, op)
	}
	return out, nil
}

// VerifyFunctionEquivalence checks that two loopFunction-shaped functions
// agree on every string of length up to maxLen and on the NULL input — the
// §4.5 refactoring validator: the original loop against its hand- or
// tool-rewritten library-call form (the engine gives strspn/strcspn/strchr
// calls symbolic semantics). It returns a distinguishing input when they
// differ.
func VerifyFunctionEquivalence(a, b *cir.Func, maxLen int) (bool, []byte, error) {
	if maxLen <= 0 {
		maxLen = 3
	}
	// NULL input, concretely.
	nullRes := func(f *cir.Func) vocab.Result {
		mem := cir.NewMemory()
		res, err := cir.Exec(f, []cir.CVal{cir.NullVal()}, mem, 0)
		return concreteResult(res, err, -1)
	}
	if nullRes(a) != nullRes(b) {
		return false, nil, nil
	}

	bvin := bv.NewInterner()
	cache := qcache.New(bvin)
	buf := symex.SymbolicString(bvin, "s", maxLen)
	pathsA, err := symbolicPaths(a, bvin, cache, nil, nil, buf, 0, false)
	if err != nil {
		return false, nil, err
	}
	pathsB, err := symbolicPaths(b, bvin, cache, nil, nil, buf, 0, false)
	if err != nil {
		return false, nil, err
	}
	equal := bv.False
	for _, pa := range pathsA {
		for _, pb := range pathsB {
			if pa.kind != pb.kind {
				continue
			}
			clause := bvin.BAnd2(pa.cond, pb.cond)
			if pa.kind == vocab.Ptr {
				clause = bvin.BAnd2(clause, bvin.Eq(pa.off, pb.off))
			}
			equal = bvin.BOr2(equal, clause)
		}
	}
	valid, model, st := cache.IsValid(nil, 0, equal)
	switch {
	case valid:
		return true, nil, nil
	case st == sat.Unknown:
		return false, nil, fmt.Errorf("%w: equivalence query exhausted its budget", ErrTimeout)
	}
	ev := bv.NewEvaluator(model)
	cex := make([]byte, maxLen+1)
	for i := 0; i < maxLen; i++ {
		cex[i] = byte(ev.Term(buf[i]))
	}
	return false, cex, nil
}

// concreteResult maps a concrete execution outcome into the interpreter's
// result domain (inputObj is the input buffer's object id, -1 for NULL runs).
func concreteResult(res cir.ExecResult, err error, inputObj int) vocab.Result {
	switch {
	case err != nil:
		return vocab.InvalidResult()
	case res.Ret.IsNull():
		return vocab.NullResult()
	case res.Ret.IsPtr && res.Ret.Obj == inputObj:
		return vocab.PtrResult(res.Ret.Off)
	default:
		return vocab.InvalidResult()
	}
}

// runOriginal evaluates Original(cex) concretely.
func (s *Synthesizer) runOriginal(cex []byte) vocab.Result {
	mem := cir.NewMemory()
	obj := mem.AllocData(append([]byte{}, cex...))
	res, err := cir.Exec(s.loop, []cir.CVal{cir.PtrVal(obj, 0)}, mem, 0)
	return concreteResult(res, err, obj)
}

// Synthesize runs the CEGIS main loop, deepening the program size until a
// verified program is found or the budget expires.
func (s *Synthesizer) Synthesize() (Outcome, error) {
	if s.budget == nil {
		s.budget = engine.NewBudget(nil, engine.Limits{Timeout: s.opts.Timeout})
	}
	s.bvin.SetBudget(s.budget)
	span := s.budget.Tracer().Start("phase/cegis", obs.Attr{Key: "func", Val: s.loop.Name})
	defer func() {
		// Mirror the synthesis stats into the metrics registry in one batch;
		// the enumeration inner loops stay free of instrumentation.
		if m := s.budget.Metrics(); m != nil {
			m.Counter(obs.MCegisSkeletons).Add(int64(s.stats.Skeletons))
			m.Counter(obs.MCegisCandidates).Add(int64(s.stats.CandidatesRun))
			m.Counter(obs.MCegisCexs).Add(int64(s.stats.Counterexamples))
			m.Counter(obs.MCegisVerifies).Add(int64(s.stats.VerifyQueries))
			m.Counter(obs.MCegisArgSolves).Add(int64(s.stats.ArgSolverCalls))
		}
		span.SetInt("candidates", int64(s.stats.CandidatesRun))
		span.End()
	}()
	startE := s.budget.Elapsed()
	elapsed := func() time.Duration { return s.budget.Elapsed() - startE }
	for size := s.opts.MinProgSize; size <= s.opts.MaxProgSize; size++ {
		if s.opts.DisableCexReuse {
			s.cexs, s.cexWant, s.cexStr = nil, nil, nil
		}
		prog, err := s.searchSize(size)
		if err != nil {
			return Outcome{Elapsed: elapsed(), Stats: s.stats}, err
		}
		if prog != nil {
			return Outcome{Found: true, Program: prog, Elapsed: elapsed(), Stats: s.stats}, nil
		}
	}
	return Outcome{Elapsed: elapsed(), Stats: s.stats}, nil
}

// searchSize enumerates skeletons of exactly the given encoded size.
func (s *Synthesizer) searchSize(size int) (vocab.Program, error) {
	var found vocab.Program
	err := s.enumerate(size, nil, func(skel []shape) error {
		s.stats.Skeletons++
		if s.budget.Exceeded() {
			return ErrTimeout
		}
		prog, err := s.trySkeleton(skel)
		if err != nil {
			return err
		}
		if prog != nil {
			found = prog
			return errFound
		}
		return nil
	})
	if err != nil && !errors.Is(err, errFound) {
		return nil, err
	}
	return found, nil
}

var errFound = errors.New("found")

// shape is an instruction skeleton: an opcode plus its argument length.
type shape struct {
	op     vocab.Op
	argLen int
}

func (sh shape) size() int {
	switch {
	case sh.op.TakesChar():
		return 2
	case sh.op.TakesSet():
		return 2 + sh.argLen
	default:
		return 1
	}
}

// enumerate yields every admissible skeleton with total encoded size exactly
// `remaining`, applying the canonicalisation pruning of DESIGN.md §5.
func (s *Synthesizer) enumerate(remaining int, prefix []shape, yield func([]shape) error) error {
	if remaining == 0 {
		if len(prefix) == 0 {
			return nil
		}
		// Programs must end in return (anything else runs out of
		// instructions and is invalid).
		if prefix[len(prefix)-1].op != vocab.OpReturn {
			return nil
		}
		skel := make([]shape, len(prefix))
		copy(skel, prefix)
		return yield(skel)
	}
	for _, op := range vocab.Ops {
		if !s.opts.Vocabulary.Contains(op) {
			continue
		}
		lens := []int{0}
		if op.TakesChar() {
			lens = []int{1}
		} else if op.TakesSet() {
			lens = lens[:0]
			for l := 1; l <= s.opts.MaxSetLen; l++ {
				lens = append(lens, l)
			}
		}
		for _, argLen := range lens {
			sh := shape{op: op, argLen: argLen}
			if sh.size() > remaining {
				continue
			}
			if !s.opts.DisablePruning && pruneShape(prefix, sh) {
				continue
			}
			if err := s.enumerate(remaining-sh.size(), append(prefix, sh), yield); err != nil {
				return err
			}
		}
	}
	return nil
}

// pruneShape rejects skeleton extensions that cannot appear in a canonical
// program. The rules are semantic no-op or dead-code eliminations, each safe
// because an equivalent smaller program exists and is enumerated first.
func pruneShape(prefix []shape, next shape) bool {
	n := len(prefix)
	// reverse only as the first instruction (§2.2).
	if next.op == vocab.OpReverse && n != 0 {
		return true
	}
	if n == 0 {
		// Leading set-to-start is a no-op (result already = s).
		return next.op == vocab.OpSetToStart
	}
	last := prefix[n-1]
	skippable := last.op == vocab.OpIsNullptr || last.op == vocab.OpIsStart
	if skippable {
		// Z/X followed by a conditional or another flag setter is never
		// useful in canonical form; and Z/X before F is the guard idiom,
		// always allowed.
		return next.op == vocab.OpIsNullptr || next.op == vocab.OpIsStart
	}
	// Dead code after an unconditional return; a return directly preceded by
	// Z/X is conditional (the guard idiom), so code after it is live.
	if last.op == vocab.OpReturn {
		guarded := n >= 2 && (prefix[n-2].op == vocab.OpIsNullptr || prefix[n-2].op == vocab.OpIsStart)
		if !guarded {
			return true
		}
	}
	// Unskipped no-op pairs: the second of E/S overrides the first.
	prevSkippable := n >= 2 && (prefix[n-2].op == vocab.OpIsNullptr || prefix[n-2].op == vocab.OpIsStart)
	if !prevSkippable {
		setter := func(op vocab.Op) bool { return op == vocab.OpSetToEnd || op == vocab.OpSetToStart }
		if setter(last.op) && setter(next.op) {
			return true
		}
	}
	return false
}

// trySkeleton runs the CEGIS inner loop for one skeleton: solve the argument
// characters against the counterexample set, verify, and iterate until the
// skeleton is exhausted or a program is verified.
func (s *Synthesizer) trySkeleton(skel []shape) (vocab.Program, error) {
	// Injected rejection burst: drop this skeleton as if it had failed the
	// NULL-input test. Deterministic and terminating — the enumeration still
	// advances, the schedule just skips candidates the seed selects.
	if s.opts.Faults.Fire(faultpoint.CegisReject) {
		return nil, nil
	}
	// NULL-input behaviour depends only on the skeleton; test it first.
	symProg, argVars := symbolizeSkeleton(s.bvin, skel)
	if symProg.RunNullInput() != s.origNull {
		return nil, nil
	}

	if len(argVars) == 0 {
		prog := concretize(skel, nil)
		s.stats.CandidatesRun++
		for i, cex := range s.cexs {
			if vocab.Run(prog, cex) != s.cexWant[i] {
				return nil, nil
			}
		}
		return s.verify(prog)
	}

	// Iterate: solve arguments against all counterexamples, verify, repeat.
	for {
		if s.budget.Exceeded() {
			return nil, ErrTimeout
		}
		args, ok := s.solveArgs(symProg, argVars)
		if !ok {
			return nil, nil
		}
		prog := concretize(skel, args)
		s.stats.CandidatesRun++
		verified, err := s.verify(prog)
		if err != nil || verified != nil {
			return verified, err
		}
		// verify added a counterexample that rules out these arguments;
		// re-solve with the larger set.
	}
}

// symbolizeSkeleton builds the symbolic program for a skeleton, returning
// the argument variables in program order.
func symbolizeSkeleton(bvin *bv.Interner, skel []shape) (vocab.SymProgram, []*bv.Term) {
	var prog vocab.SymProgram
	var vars []*bv.Term
	for i, sh := range skel {
		in := vocab.SymInstr{Op: sh.op}
		for j := 0; j < sh.argLen; j++ {
			v := bvin.Var(fmt.Sprintf("arg%d_%d", i, j), 8)
			in.Arg = append(in.Arg, v)
			vars = append(vars, v)
		}
		prog = append(prog, in)
	}
	return prog, vars
}

// concretize instantiates a skeleton with solved argument bytes (consumed in
// order).
func concretize(skel []shape, args []byte) vocab.Program {
	prog := make(vocab.Program, len(skel))
	k := 0
	for i, sh := range skel {
		in := vocab.Instr{Op: sh.op}
		for j := 0; j < sh.argLen; j++ {
			in.Arg = append(in.Arg, args[k])
			k++
		}
		prog[i] = in
	}
	return prog
}

// solveArgs finds argument characters making the skeleton agree with the
// original loop on every counterexample (lines 3-8 of Algorithm 2).
func (s *Synthesizer) solveArgs(symProg vocab.SymProgram, argVars []*bv.Term) ([]byte, bool) {
	s.stats.ArgSolverCalls++
	bvin := s.bvin
	var constraints []*bv.Bool
	// Arguments are non-NUL (the encoding terminates sets with NUL) and set
	// members are strictly increasing, removing permutation symmetry.
	for _, v := range argVars {
		constraints = append(constraints, bvin.Ne(v, bvin.Byte(0)))
		if s.opts.DisableMetaChars {
			constraints = append(constraints, bvin.Ne(v, bvin.Byte(cstr.MetaDigit)))
			constraints = append(constraints, bvin.Ne(v, bvin.Byte(cstr.MetaSpace)))
		}
	}
	for _, in := range symProg {
		if in.Op.TakesSet() {
			for j := 0; j+1 < len(in.Arg); j++ {
				constraints = append(constraints, bvin.Ult(in.Arg[j], in.Arg[j+1]))
			}
		}
	}
	for i, cs := range s.cexStr {
		want := s.cexWant[i]
		outcomes := vocab.RunSymbolic(symProg, cs)
		match := bv.False
		for _, o := range outcomes {
			if o.Res == want {
				match = bvin.BOr2(match, o.Guard)
			}
		}
		constraints = append(constraints, match)
	}
	st, model := s.checkSat(constraints...)
	if st != sat.Sat {
		return nil, false
	}
	ev := bv.NewEvaluator(model)
	out := make([]byte, len(argVars))
	for i, v := range argVars {
		out[i] = byte(ev.Term(v))
	}
	return out, true
}

// checkSat decides a conjunction through the synthesizer's query cache (or a
// fresh solver when the cache is disabled).
func (s *Synthesizer) checkSat(constraints ...*bv.Bool) (sat.Status, *bv.Assignment) {
	if s.cache != nil {
		return s.cache.CheckSat(s.budget, s.opts.SolverBudget, constraints...)
	}
	if s.bvin.VNEnabled() {
		// The cache path simplifies inside CheckSat; the cache-less baseline
		// still routes candidate-check formulas through the memoized
		// simplifier so repeated candidate shapes value-number once.
		simplified := make([]*bv.Bool, len(constraints))
		for i, f := range constraints {
			simplified[i] = s.bvin.SimplifyBool(f)
		}
		constraints = simplified
	}
	return bv.CheckSatFaults(s.budget, s.opts.SolverBudget, s.opts.Faults, constraints...)
}

// verify checks bounded equivalence of a concrete candidate against the
// loop's merged symbolic paths (lines 10-23 of Algorithm 2). On success it
// returns the program; on failure it extracts a fresh counterexample and
// returns nil.
func (s *Synthesizer) verify(prog vocab.Program) (vocab.Program, error) {
	s.stats.VerifyQueries++
	bvin := s.bvin
	outcomes := vocab.RunSymbolic(vocab.Symbolize(bvin, prog), s.symStr)

	equal := bv.False
	for _, op := range s.origSym {
		for _, o := range outcomes {
			if op.kind != o.Res.Kind {
				continue
			}
			clause := bvin.BAnd2(op.cond, o.Guard)
			if op.kind == vocab.Ptr {
				clause = bvin.BAnd2(clause, bvin.Eq(op.off, bvin.Int32(int64(o.Res.Off))))
			}
			equal = bvin.BOr2(equal, clause)
		}
	}
	// isEq must always hold (IsAlwaysTrue, line 18): refute it.
	st, model := s.checkSat(bvin.BNot1(equal))
	switch st {
	case sat.Unsat:
		return prog, nil
	case sat.Unknown:
		// Solver budget exhausted: treat as not verified, no counterexample.
		return nil, nil
	}
	// Extract the differing string (lines 22-24).
	ev := bv.NewEvaluator(model)
	cex := make([]byte, s.opts.MaxExSize+1)
	for i := 0; i < s.opts.MaxExSize; i++ {
		cex[i] = byte(ev.Term(s.symStr.At(i)))
	}
	cex[s.opts.MaxExSize] = 0
	return nil, s.addCex(cex)
}

// addCex adds a new NUL-terminated counterexample to the set together with
// its memo entries; a repeat of one already in the set is ignored.
func (s *Synthesizer) addCex(cex []byte) error {
	for _, old := range s.cexs {
		if string(old) == string(cex) {
			return nil
		}
	}
	cs, err := strsolver.FromConcrete(s.bvin, cex)
	if err != nil {
		return fmt.Errorf("cegis: counterexample: %w", err)
	}
	s.cexs = append(s.cexs, cex)
	s.cexWant = append(s.cexWant, s.runOriginal(cex))
	s.cexStr = append(s.cexStr, cs)
	s.stats.Counterexamples++
	return nil
}

// Synthesize is the package-level convenience entry point.
func Synthesize(loop *cir.Func, opts Options) (Outcome, error) {
	s, err := New(loop, opts)
	if err != nil {
		return Outcome{}, err
	}
	return s.Synthesize()
}

// VerifyEquivalence checks a given program against a loop on all strings up
// to maxExSize, returning a counterexample buffer when they differ. It is
// the standalone bounded-equivalence checker used by tests and tools.
func VerifyEquivalence(loop *cir.Func, prog vocab.Program, maxExSize int) (bool, []byte, error) {
	s, err := New(loop, Options{MaxExSize: maxExSize})
	if err != nil {
		return false, nil, err
	}
	if s.origNull != vocab.Run(prog, nil) {
		return false, nil, nil
	}
	got, err := s.verify(prog)
	if err != nil {
		return false, nil, err
	}
	if got != nil {
		return true, nil, nil
	}
	if len(s.cexs) > 0 {
		return false, s.cexs[len(s.cexs)-1], nil
	}
	return false, nil, nil
}

// Counterexamples exposes the counterexample set gathered so far (for tests
// and the evaluation harness).
func (s *Synthesizer) Counterexamples() [][]byte { return s.cexs }
