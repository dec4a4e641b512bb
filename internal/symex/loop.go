package symex

import (
	"errors"
	"fmt"

	"stringloops/internal/bv"
	"stringloops/internal/cir"
	"stringloops/internal/engine"
	"stringloops/internal/qcache"
	"stringloops/internal/sat"
	"stringloops/internal/vocab"
)

// This file is the loopFunction runner and the bounded-equivalence kernel.
// Every concrete and symbolic run of a char *f(char *) is set up here and
// classified into the interpreter's result domain (a pointer offset, NULL,
// or Algorithm 1's invalid pointer), so the cir interpreter, the symbolic
// engine and the vocab interpreter are compared in one domain. The kernel is
// shared by CEGIS verification (Algorithm 2, lines 10-24), the §3.3
// memoryless check and the §4.5 refactoring validator: run a loopFunction on
// a bounded symbolic string, classify its paths, build the
// "both sides agree" disjunction, and refute it. The terms are built in the
// same order by every caller, so a check's interned nodes, budget charges and
// solver queries do not depend on which of the three asked for it.

// ErrForeignReturn classifies a loopFunction return that is neither NULL
// nor a pointer into the input buffer: an integer, or a pointer into another
// object such as a string literal. The interpreter's result domain has no
// such value, so the result is Invalid.
var ErrForeignReturn = errors.New("symex: return is neither NULL nor a pointer into the input")

// RunConcrete runs the char *loopFunction(char *) f in the cir interpreter
// on a copy of the NUL-terminated buf (nil is the NULL input) and classifies
// the return into the interpreter's result domain. maxSteps bounds the run
// (0 is cir's default). A failed run is Invalid with cir's error
// (cir.ErrMemory, cir.ErrStepLimit, malformed IR); a foreign return is
// Invalid with an error wrapping ErrForeignReturn. The error only says why a
// result is Invalid, so callers that compare results may drop it. It decodes
// f for this one run; a caller that runs f many times holds a Runner.
func RunConcrete(f *cir.Func, buf []byte, maxSteps int) (vocab.Result, error) {
	return NewRunner(f).Run(buf, maxSteps)
}

// Runner runs one loopFunction concretely, again and again, on one
// cir.Machine: it decodes the function on its first run, and a warm runner
// allocates nothing on a run that does not fail with a foreign return. A
// Runner belongs to one goroutine.
type Runner struct {
	f *cir.Func
	m *cir.Machine
}

// NewRunner returns a runner for f; it decodes f on the first Run.
func NewRunner(f *cir.Func) *Runner { return &Runner{f: f} }

// Run is RunConcrete on the runner's function.
func (r *Runner) Run(buf []byte, maxSteps int) (vocab.Result, error) {
	if r.m == nil {
		r.m = cir.NewMachine(r.f)
	}
	mem := r.m.Heap()
	arg, obj := cir.NullVal(), -1
	if buf != nil {
		obj = mem.AllocCopy(buf)
		arg = cir.PtrVal(obj, 0)
	}
	res, err := r.m.Exec([]cir.CVal{arg}, mem, maxSteps)
	switch {
	case err != nil:
		return vocab.InvalidResult(), err
	case res.Ret.IsNull():
		return vocab.NullResult(), nil
	case res.Ret.IsPtr && res.Ret.Obj == obj:
		return vocab.PtrResult(res.Ret.Off), nil
	}
	return vocab.InvalidResult(), fmt.Errorf("%w: %s", ErrForeignReturn, res.Ret)
}

// LoopPath is one terminal path of a loopFunction run, with its result
// normalised to the interpreter's result domain.
type LoopPath struct {
	Cond *bv.Bool
	Kind vocab.ResultKind
	Off  *bv.Term // when Kind == vocab.Ptr
}

// RunOn runs the loopFunction f on a pointer to the start of buf, which
// becomes the engine's only object; a nil buf runs f on the NULL pointer with
// no objects. e.In must be the interner buf was built with.
func (e *Engine) RunOn(f *cir.Func, buf []*bv.Term) ([]Path, error) {
	if buf == nil {
		e.Objects = nil
		return e.Run(f, []Value{NullValue()}, bv.True)
	}
	e.Objects = [][]*bv.Term{buf}
	return e.Run(f, []Value{PtrValue(0, e.In.Int32(0))}, bv.True)
}

// ClassifyPath normalises one terminal path of RunOn into the interpreter's
// result domain. A failing path (out-of-bounds read, null dereference, step
// limit, unsupported operation) is Invalid with the path's error; a return
// that is neither NULL nor a pointer into the input is Invalid with
// ErrForeignReturn.
func ClassifyPath(p Path) (LoopPath, error) {
	lp := LoopPath{Cond: p.Cond, Kind: vocab.Invalid}
	switch {
	case p.Err != nil:
		return lp, p.Err
	case p.Ret.IsNull():
		lp.Kind = vocab.Null
	case p.Ret.IsPtr && p.Ret.Obj == 0:
		lp.Kind, lp.Off = vocab.Ptr, p.Ret.Off
	default:
		return lp, ErrForeignReturn
	}
	return lp, nil
}

// RunLoop is RunOn plus ClassifyPath on every path, failing the whole run
// with a path's error when it hit an unsupported operation; every other
// failing or foreign path is the interpreter's invalid pointer. Errors of
// Run itself come back unchanged, so callers classify them with
// errors.Is(err, ErrTimeout).
func (e *Engine) RunLoop(f *cir.Func, buf []*bv.Term) ([]LoopPath, error) {
	paths, err := e.RunOn(f, buf)
	if err != nil {
		return nil, err
	}
	out := make([]LoopPath, 0, len(paths))
	for _, p := range paths {
		lp, err := ClassifyPath(p)
		if errors.Is(err, ErrUnsupported) {
			return nil, err
		}
		out = append(out, lp)
	}
	return out, nil
}

// SameOutcome builds the formula "the loop and the other side return the same
// result": the disjunction, over every loop path and every guarded outcome of
// the same kind, of both conditions plus, for pointers, equal offsets.
func SameOutcome(in *bv.Interner, paths []LoopPath, outs []vocab.SymOutcome) *bv.Bool {
	equal := bv.False
	for _, p := range paths {
		for _, o := range outs {
			if p.Kind != o.Res.Kind {
				continue
			}
			clause := in.BAnd2(p.Cond, o.Guard)
			if p.Kind == vocab.Ptr {
				clause = in.BAnd2(clause, in.Eq(p.Off, in.Int32(int64(o.Res.Off))))
			}
			equal = in.BOr2(equal, clause)
		}
	}
	return equal
}

// Refute asks the solver for a string on which equal fails — IsAlwaysTrue
// in the paper. On Sat it returns that string as len(buf) bytes, the last one
// buf's NUL terminator. Unsat means equal holds on every bounded string;
// Unknown (budget exhausted) is the caller's to interpret.
func Refute(cache *qcache.Cache, budget *engine.Budget, equal *bv.Bool, buf []*bv.Term) (sat.Status, []byte) {
	_, model, st := cache.IsValid(budget, equal)
	if st != sat.Sat {
		return st, nil
	}
	ev := bv.NewEvaluator(model)
	cex := make([]byte, len(buf))
	for i := range len(buf) - 1 {
		cex[i] = byte(ev.Term(buf[i]))
	}
	return st, cex
}
