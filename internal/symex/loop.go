package symex

import (
	"errors"

	"stringloops/internal/bv"
	"stringloops/internal/cir"
	"stringloops/internal/engine"
	"stringloops/internal/qcache"
	"stringloops/internal/sat"
	"stringloops/internal/vocab"
)

// This file is the bounded-equivalence kernel shared by CEGIS verification
// (Algorithm 2, lines 10-24), the §3.3 memoryless check and the §4.5
// refactoring validator: run a loopFunction on a bounded symbolic string,
// classify its paths into the interpreter's result domain, build the
// "both sides agree" disjunction, and refute it. The terms are built in the
// same order by every caller, so a check's interned nodes, budget charges and
// solver queries do not depend on which of the three asked for it.

// LoopPath is one terminal path of a loopFunction run, with its result
// normalised to the interpreter's result domain.
type LoopPath struct {
	Cond *bv.Bool
	Kind vocab.ResultKind
	Off  *bv.Term // when Kind == vocab.Ptr
}

// RunLoop runs the char *loopFunction(char *) f on a pointer to the start of
// buf, which becomes the engine's only object; e.In must be the interner buf
// was built with. A path that hit an unsupported operation fails the whole
// run with that path's error; any other failing path (out-of-bounds read,
// null dereference, step limit) is the interpreter's invalid pointer, as is a
// return into anything but buf. Errors of Run itself come back unchanged, so
// callers classify them with errors.Is(err, ErrTimeout).
func (e *Engine) RunLoop(f *cir.Func, buf []*bv.Term) ([]LoopPath, error) {
	e.Objects = [][]*bv.Term{buf}
	paths, err := e.Run(f, []Value{PtrValue(0, e.In.Int32(0))}, bv.True)
	if err != nil {
		return nil, err
	}
	out := make([]LoopPath, 0, len(paths))
	for _, p := range paths {
		lp := LoopPath{Cond: p.Cond, Kind: vocab.Invalid}
		switch {
		case p.Err != nil:
			if errors.Is(p.Err, ErrUnsupported) {
				return nil, p.Err
			}
		case p.Ret.IsNull():
			lp.Kind = vocab.Null
		case p.Ret.IsPtr && p.Ret.Obj == 0:
			lp.Kind, lp.Off = vocab.Ptr, p.Ret.Off
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
	_, model, st := cache.IsValid(budget, 0, equal)
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
