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
	// MaxExSize bounds the symbolic example string length (paper default 3).
	MaxExSize int
	// MaxSetLen bounds strspn-family argument sets (default 3; the paper's
	// four-character sets are the libosip outliers that take over an hour).
	MaxSetLen int
	// Timeout bounds the whole synthesis (default 30s; the paper uses 2h on
	// its KLEE+Z3 stack).
	Timeout time.Duration
	// Budget, when non-nil, replaces the Timeout-derived budget: synthesis
	// polls it between skeletons and candidate iterations, charges solver
	// conflicts and symbolic-execution forks to it, and returns ErrTimeout
	// promptly once it is exhausted or its context is cancelled.
	Budget *engine.Budget
	// Pipeline configures the solver stack (symex.Config): Merge when the
	// loop's symbolic paths are computed, Faults for the CegisReject burst
	// here and the sat/bv/qcache/symex sites below, and the tier's query
	// store behind the per-synthesizer query cache, so verdicts persist
	// across synthesizer instances and processes.
	Pipeline symex.Config
}

func (o Options) withDefaults() Options {
	if o.Vocabulary == 0 {
		o.Vocabulary = vocab.FullVocabulary
	}
	if o.MaxProgSize == 0 {
		o.MaxProgSize = 9
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

// Synthesizer holds the per-loop state of Algorithm 2.
type Synthesizer struct {
	opts     Options
	loop     *cir.Func
	run      *symex.Runner // runs loop concretely: Original(NULL), Original(cex)
	symStr   *strsolver.SymString
	origSym  []symex.LoopPath
	origNull vocab.Result
	cexs     [][]byte // counterexample buffers (NUL-terminated)
	bvin     *bv.Interner
	cache    *qcache.Cache
	budget   *engine.Budget
	stats    Stats

	// Per-counterexample memo, parallel to cexs and filled once by addCex:
	// Original(cex), cex as a string of constant terms, and the gadget run
	// of the empty prefix on it. Every skeleton reads them instead of
	// re-running the loop and rebuilding the string.
	cexWant []vocab.Result
	cexStr  []*strsolver.SymString
	cexRun  []*vocab.SymRun

	// Prefix-shared gadget runs (DESIGN.md §5): levels[d].runs[i] is
	// counterexample i run through runProg[:d+1], the current skeleton minus
	// its final instruction. Only the first levels[d].n entries are valid; the
	// rest are buffers kept for reuse.
	runProg []vocab.SymInstr
	levels  []prefixLevel
	last    vocab.SymRun       // the final instruction's scratch run
	outs    []vocab.SymOutcome // its outcomes

	// shapes is the vocabulary's instruction shapes, the alphabet of
	// enumerate (shapeTable).
	shapes []sizedShape

	// Skeleton set-up without per-skeleton allocation: argTab[i] holds the
	// variables of instruction i, and symbolize fills symProg and symVars in
	// place.
	argTab  []argRow
	symProg vocab.SymProgram
	symVars []*bv.Term

	// solveArgs' query buffers, reused by every call: the per-counterexample
	// matches, and the argument constraints followed by those matches.
	matches     []*bv.Bool
	constraints []*bv.Bool
}

// argRow holds the argument variables arg<i>_<j> of instruction i and
// solveArgs' constraints on them, each constraint built on first use:
// nonNul[j] is arg<i>_<j> != 0 and below[j] is arg<i>_<j> < arg<i>_<j+1>.
type argRow struct {
	vars          []*bv.Term
	nonNul, below []*bv.Bool
}

// prefixLevel holds the runs of every counterexample through one prefix.
type prefixLevel struct {
	runs []vocab.SymRun
	n    int
}

// New prepares a synthesizer for the loop. The loop must have the
// char *loopFunction(char *) shape (one pointer parameter, pointer return).
func New(loop *cir.Func, opts Options) (*Synthesizer, error) {
	opts = opts.withDefaults()
	// The interner charges nodes only from Synthesize on, where the search's
	// budget is settled (opts.Budget, or one built from Timeout); the paths
	// below charge forks and conflicts to opts.Budget but no nodes.
	eng := opts.Pipeline.NewEngine(nil)
	eng.Budget = opts.Budget
	s := &Synthesizer{opts: opts, loop: loop, bvin: eng.In, cache: eng.Cache, budget: opts.Budget,
		shapes: shapeTable(opts)}
	if len(loop.Params) != 1 || loop.Params[0].Ty != cir.TyPtr {
		return nil, fmt.Errorf("cegis: %s does not have the loopFunction signature", loop.Name)
	}

	// Original(NULL), computed concretely once (§2: loops may guard NULL).
	s.run = symex.NewRunner(loop)
	s.origNull, _ = s.run.Run(nil, 0)

	// The loop's symbolic paths on a fresh symbolic string of max_ex_size
	// (line 10 of Algorithm 2), merged: computed once, reused per candidate.
	buf := strsolver.New(s.bvin, "s", opts.MaxExSize).Bytes
	s.symStr = strsolver.Wrap(s.bvin, buf)
	paths, err := loopPaths(eng, loop, buf)
	if err != nil {
		return nil, err
	}
	s.origSym = paths
	return s, nil
}

// loopPaths runs f on the symbolic buffer (symex.Engine.RunLoop), wrapping
// run errors in this package's sentinels. Feasibility checking prunes
// infeasible iterations of loops over symbolic cursors (without it, a
// backward scan whose guard never folds syntactically would spin to the step
// limit).
func loopPaths(eng *symex.Engine, f *cir.Func, buf []*bv.Term) ([]symex.LoopPath, error) {
	paths, err := eng.RunLoop(f, buf)
	if errors.Is(err, symex.ErrTimeout) {
		return nil, fmt.Errorf("%w: %w", ErrTimeout, err)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrUnsupportedLoop, err)
	}
	return paths, nil
}

// VerifyFunctionEquivalence checks that two loopFunction-shaped functions
// agree on every string of length up to maxLen and on the NULL input — the
// §4.5 refactoring validator: the original loop against its hand- or
// tool-rewritten library-call form (the engine gives strspn/strcspn/strchr
// calls symbolic semantics). It returns a distinguishing input when they
// differ. The budget (nil = unlimited) bounds the symbolic runs and the
// solver; once it is exhausted or cancelled the result is an error wrapping
// ErrTimeout, not a verdict.
func VerifyFunctionEquivalence(a, b *cir.Func, maxLen int, budget *engine.Budget) (bool, []byte, error) {
	if maxLen <= 0 {
		maxLen = 3
	}
	// NULL input, concretely.
	nullA, _ := symex.RunConcrete(a, nil, 0)
	nullB, _ := symex.RunConcrete(b, nil, 0)
	if nullA != nullB {
		return false, nil, nil
	}

	eng := symex.Config{}.NewEngine(budget)
	bvin, cache := eng.In, eng.Cache
	buf := strsolver.New(bvin, "s", maxLen).Bytes
	pathsA, err := loopPaths(eng, a, buf)
	if err != nil {
		return false, nil, err
	}
	pathsB, err := loopPaths(eng, b, buf)
	if err != nil {
		return false, nil, err
	}
	// Both sides have symbolic offsets, so this disjunction is not
	// symex.SameOutcome's loop-against-guarded-constants one.
	equal := bv.False
	for _, pa := range pathsA {
		for _, pb := range pathsB {
			if pa.Kind != pb.Kind {
				continue
			}
			clause := bvin.BAnd2(pa.Cond, pb.Cond)
			if pa.Kind == vocab.Ptr {
				clause = bvin.BAnd2(clause, bvin.Eq(pa.Off, pb.Off))
			}
			equal = bvin.BOr2(equal, clause)
		}
	}
	switch st, cex := symex.Refute(cache, budget, equal, buf); st {
	case sat.Unsat:
		return true, nil, nil
	case sat.Sat:
		return false, cex, nil
	}
	return false, nil, fmt.Errorf("%w: equivalence query exhausted its budget", ErrTimeout)
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
		// Charge the synthesis tally to the budget in one batch; the
		// enumeration inner loops stay free of shared writes.
		s.budget.Add(engine.Skeletons, int64(s.stats.Skeletons))
		s.budget.Add(engine.Candidates, int64(s.stats.CandidatesRun))
		s.budget.Add(engine.Counterexamples, int64(s.stats.Counterexamples))
		s.budget.Add(engine.VerifyQueries, int64(s.stats.VerifyQueries))
		s.budget.Add(engine.ArgSolverCalls, int64(s.stats.ArgSolverCalls))
		span.SetInt("candidates", int64(s.stats.CandidatesRun))
		span.End()
	}()
	startE := s.budget.Elapsed()
	elapsed := func() time.Duration { return s.budget.Elapsed() - startE }
	for size := 1; size <= s.opts.MaxProgSize; size++ {
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
	// Every shape encodes in at least one byte, so no skeleton of this size
	// outgrows the buffer.
	err := s.enumerate(size, make([]shape, 0, size), func(skel []shape) error {
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

// sizedShape is a shape with its encoded size.
type sizedShape struct {
	shape
	size int
}

// shapeTable lists every shape the options admit, in vocab.Ops order with
// argument lengths ascending: one for each argument-free opcode, one of
// argument length 1 for each character opcode, and one for each set length
// from 1 to MaxSetLen for each set opcode.
func shapeTable(opts Options) []sizedShape {
	var out []sizedShape
	for _, op := range vocab.Ops {
		if !opts.Vocabulary.Contains(op) {
			continue
		}
		switch {
		case op.TakesChar():
			out = append(out, sizedShape{shape{op, 1}, 2})
		case op.TakesSet():
			for n := 1; n <= opts.MaxSetLen; n++ {
				out = append(out, sizedShape{shape{op, n}, 2 + n})
			}
		default:
			out = append(out, sizedShape{shape{op, 0}, 1})
		}
	}
	return out
}

// enumerate yields every admissible skeleton with total encoded size exactly
// `remaining` after prefix, applying the canonicalisation pruning of
// DESIGN.md §5. Skeletons are built in place by appending to prefix, so the
// yielded slice is valid only during the callback, which must copy what it
// keeps; a prefix with spare capacity for `remaining` more shapes makes the
// walk allocation-free.
//
// Programs must end in return (anything else runs out of instructions and is
// invalid), so a shape that fills the remaining size is taken only if it is
// return: any other would start a branch that yields nothing.
func (s *Synthesizer) enumerate(remaining int, prefix []shape, yield func([]shape) error) error {
	if remaining == 0 {
		if len(prefix) == 0 || prefix[len(prefix)-1].op != vocab.OpReturn {
			return nil
		}
		return yield(prefix)
	}
	for _, sh := range s.shapes {
		if sh.size > remaining || sh.size == remaining && sh.op != vocab.OpReturn {
			continue
		}
		if pruneShape(prefix, sh.shape) {
			continue
		}
		if err := s.enumerate(remaining-sh.size, append(prefix, sh.shape), yield); err != nil {
			return err
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
	if s.opts.Pipeline.Faults.Fire(faultpoint.CegisReject) {
		return nil, nil
	}
	// NULL-input behaviour depends only on the skeleton; test it first.
	symProg, argVars := s.symbolize(skel)
	if symProg.RunNullInput() != s.origNull {
		return nil, nil
	}

	if len(argVars) == 0 {
		// The candidate is the skeleton itself. Short ones are checked
		// against the counterexamples on the stack; a Program is allocated
		// only for one that goes on to verify.
		var buf [16]vocab.Instr
		ops := buf[:0]
		for _, sh := range skel {
			ops = append(ops, vocab.Instr{Op: sh.op})
		}
		s.stats.CandidatesRun++
		for i, cex := range s.cexs {
			if vocab.Run(ops, cex) != s.cexWant[i] {
				return nil, nil
			}
		}
		return s.verify(concretize(skel, nil))
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

// symbolize builds the symbolic program for a skeleton, returning the
// argument variables in program order. Both results live in buffers reused
// by the next skeleton. Argument character j of instruction i is the variable
// arg<i>_<j> in every skeleton, so skeletons sharing a prefix share its
// symbolic instructions.
func (s *Synthesizer) symbolize(skel []shape) (vocab.SymProgram, []*bv.Term) {
	prog, vars := s.symProg[:0], s.symVars[:0]
	for i, sh := range skel {
		args := s.argVars(i, sh.argLen)
		prog = append(prog, vocab.SymInstr{Op: sh.op, Arg: args})
		vars = append(vars, args...)
	}
	s.symProg, s.symVars = prog, vars
	return prog, vars
}

// argVars returns the variables arg<i>_0 .. arg<i>_<n-1>, creating each on
// first use.
func (s *Synthesizer) argVars(i, n int) []*bv.Term {
	for len(s.argTab) <= i {
		s.argTab = append(s.argTab, argRow{})
	}
	row := &s.argTab[i]
	for j := len(row.vars); j < n; j++ {
		row.vars = append(row.vars, s.bvin.Var(fmt.Sprintf("arg%d_%d", i, j), 8))
		row.nonNul = append(row.nonNul, nil)
		row.below = append(row.below, nil)
	}
	return row.vars[:n:n]
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
// original loop on every counterexample (lines 3-8 of Algorithm 2). The
// counterexamples are matched in index order, as runOn requires; one that no
// outcome of the skeleton can match rules out every argument, so the search
// stops there without running the rest or asking the solver.
func (s *Synthesizer) solveArgs(symProg vocab.SymProgram, argVars []*bv.Term) ([]byte, bool) {
	s.stats.ArgSolverCalls++
	bvin := s.bvin
	s.sharePrefix(symProg)
	s.matches = s.matches[:0]
	for i, want := range s.cexWant {
		match := bv.False
		for _, o := range s.runOn(symProg, i) {
			if o.Res == want {
				match = bvin.BOr2(match, o.Guard)
			}
		}
		if match == bv.False {
			return nil, false
		}
		s.matches = append(s.matches, match)
	}

	// Arguments are non-NUL (the encoding terminates sets with NUL) and set
	// members are strictly increasing, removing permutation symmetry. Each
	// constraint is built where it is first asked for and then read from its
	// argRow, in the same order, so the interned nodes are those a rebuild
	// in every call would give.
	constraints := s.constraints[:0]
	for i, in := range symProg {
		row := &s.argTab[i]
		for j, v := range in.Arg {
			if row.nonNul[j] == nil {
				row.nonNul[j] = bvin.Ne(v, bvin.Byte(0))
			}
			constraints = append(constraints, row.nonNul[j])
		}
	}
	for i, in := range symProg {
		if in.Op.TakesSet() {
			row := &s.argTab[i]
			for j := 0; j+1 < len(in.Arg); j++ {
				if row.below[j] == nil {
					row.below[j] = bvin.Ult(in.Arg[j], in.Arg[j+1])
				}
				constraints = append(constraints, row.below[j])
			}
		}
	}
	constraints = append(constraints, s.matches...)
	s.constraints = constraints
	st, model := s.cache.CheckSat(s.budget, constraints...)
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

// sharePrefix points the prefix levels at prog minus its final instruction.
// Levels within the longest prefix it shares with the previous skeleton stay
// valid, since the same instructions over the same arguments reach the same
// states; deeper levels are invalidated but keep their buffers.
func (s *Synthesizer) sharePrefix(prog vocab.SymProgram) {
	prefix := prog[:len(prog)-1]
	k := 0
	for k < len(prefix) && k < len(s.runProg) && sameInstr(prefix[k], s.runProg[k]) {
		k++
	}
	for d := k; d < len(s.levels); d++ {
		s.levels[d].n = 0
	}
	for len(s.levels) < len(prefix) {
		s.levels = append(s.levels, prefixLevel{})
	}
	s.runProg = append(s.runProg[:0], prefix...)
}

// runOn returns the outcomes of prog (as set up by sharePrefix) on
// counterexample i, valid until the next call. It steps i through the prefix
// levels it has not reached yet, then only the final instruction. Called for
// i in index order, it builds every new guard in the same order a run from
// the first instruction would, so the interned nodes and everything charged
// for them are unchanged.
func (s *Synthesizer) runOn(prog vocab.SymProgram, i int) []vocab.SymOutcome {
	// Levels are filled shallow to deep for each counterexample in turn and
	// invalidated deep to shallow, so the valid counts never grow with depth:
	// d is the number of instructions i has been stepped through.
	d := len(s.runProg)
	for d > 0 && s.levels[d-1].n <= i {
		d--
	}
	for ; d < len(s.runProg); d++ {
		lv := &s.levels[d]
		if len(lv.runs) == i {
			lv.runs = append(lv.runs, vocab.SymRun{})
		}
		s.prefixRun(d, i).StepInto(&lv.runs[i], s.runProg[d])
		lv.n = i + 1
	}
	s.prefixRun(d, i).StepInto(&s.last, prog[len(prog)-1])
	s.outs = s.last.AppendOutcomes(s.outs[:0])
	return s.outs
}

// prefixRun is counterexample i's run through the first d prefix instructions.
func (s *Synthesizer) prefixRun(d, i int) *vocab.SymRun {
	if d == 0 {
		return s.cexRun[i]
	}
	return &s.levels[d-1].runs[i]
}

// sameInstr reports whether two symbolic instructions are identical: same
// opcode over the same argument terms.
func sameInstr(a, b vocab.SymInstr) bool {
	if a.Op != b.Op || len(a.Arg) != len(b.Arg) {
		return false
	}
	for j := range a.Arg {
		if a.Arg[j] != b.Arg[j] {
			return false
		}
	}
	return true
}

// verify checks bounded equivalence of a concrete candidate against the
// loop's merged symbolic paths (lines 10-23 of Algorithm 2). On success it
// returns the program; on failure it extracts a fresh counterexample and
// returns nil.
func (s *Synthesizer) verify(prog vocab.Program) (vocab.Program, error) {
	s.stats.VerifyQueries++
	bvin := s.bvin
	outcomes := vocab.RunSymbolic(vocab.Symbolize(bvin, prog), s.symStr)
	// isEq must always hold (IsAlwaysTrue, line 18): refute it.
	equal := symex.SameOutcome(bvin, s.origSym, outcomes)
	switch st, cex := symex.Refute(s.cache, s.budget, equal, s.symStr.Bytes); st {
	case sat.Unsat:
		return prog, nil
	case sat.Sat:
		// The differing string (lines 22-24).
		return nil, s.addCex(cex)
	}
	// Solver budget exhausted: treat as not verified, no counterexample.
	return nil, nil
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
	want, _ := s.run.Run(cex, 0) // Original(cex)
	s.cexs = append(s.cexs, cex)
	s.cexWant = append(s.cexWant, want)
	s.cexStr = append(s.cexStr, cs)
	s.cexRun = append(s.cexRun, vocab.NewSymRun(cs))
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
