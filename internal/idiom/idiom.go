// Package idiom is the compiler application of §4.4: a LoopIdiomRecognize-
// style pass that replaces a string loop with straight-line calls into the C
// standard library. LLVM's recogniser is "highly specialised for certain
// functions"; this pass instead reuses the general synthesis machinery — it
// summarises the loop with CEGIS and compiles the summary back to loop-free
// IR, then proves the replacement equivalent to the original function with
// the symbolic executor (which models the emitted library calls directly).
package idiom

import (
	"errors"
	"fmt"
	"time"

	"stringloops/internal/cegis"
	"stringloops/internal/cir"
	"stringloops/internal/cstr"
	"stringloops/internal/engine"
	"stringloops/internal/vocab"
)

// ErrNoLoopFreeForm means the summary exists but needs the reverse gadget,
// which has no loop-free library equivalent (§2.2's motivation for reverse).
var ErrNoLoopFreeForm = errors.New("idiom: summary has no loop-free library form")

// Result is a successful rewrite.
type Result struct {
	// Program is the synthesised summary.
	Program vocab.Program
	// Replaced is the loop-free function, verified equivalent to the
	// original on all strings up to the synthesis bound and on NULL.
	Replaced *cir.Func
}

// Rewrite summarises a char *f(char *) loop function and compiles the
// summary to a loop-free replacement. The synthesis options bound the search
// exactly as in cegis.Synthesize; the self-check runs under the same budget,
// so the timeout and cancellation bound the whole pass.
func Rewrite(f *cir.Func, opts cegis.Options) (*Result, error) {
	if opts.Budget == nil {
		timeout := opts.Timeout
		if timeout == 0 {
			timeout = 30 * time.Second // cegis.Options' default
		}
		opts.Budget = engine.WithTimeout(timeout)
	}
	out, err := cegis.Synthesize(f, opts)
	if err != nil && !errors.Is(err, cegis.ErrTimeout) {
		return nil, err
	}
	if !out.Found {
		return nil, fmt.Errorf("idiom: %s: no summary within the budget", f.Name)
	}
	replaced, ok := CompileIR(out.Program, f.Name)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoLoopFreeForm, out.Program.String())
	}
	// Self-check: the pass refuses to install a replacement it cannot prove.
	maxEx := opts.MaxExSize
	if maxEx == 0 {
		maxEx = 3
	}
	ok, cex, err := cegis.VerifyFunctionEquivalence(f, replaced, maxEx, opts.Budget)
	if err != nil {
		return nil, fmt.Errorf("idiom: self-check failed: %w", err)
	}
	if !ok {
		return nil, fmt.Errorf("idiom: replacement disagrees with %s on %q", f.Name, cex)
	}
	return &Result{Program: out.Program, Replaced: replaced}, nil
}

// CompileIR builds a loop-free cir function implementing the gadget program
// over string.h calls. Programs using the reverse gadget have no loop-free
// form and report ok = false, as do malformed programs (no reachable
// return).
func CompileIR(p vocab.Program, name string) (f *cir.Func, ok bool) {
	for _, in := range p {
		if in.Op == vocab.OpReverse || in.Op == vocab.OpIsStart {
			// reverse has no library equivalent; is start would need the
			// skip flag against a moved result, which never survives
			// synthesis in practice.
			return nil, false
		}
	}
	f = &cir.Func{Name: name + "_idiom"}
	sReg := f.NewReg()
	f.Params = []cir.FuncParam{{Name: "s", Ty: cir.TyPtr, Reg: sReg}}

	// result lives in an alloca cell; the executor and interpreter both
	// handle cells without mem2reg.
	blocks := make([]*cir.Block, len(p)+2)
	for i := range blocks {
		blocks[i] = &cir.Block{ID: i}
	}
	f.Blocks = blocks
	entry := blocks[0]
	slot := f.NewReg()
	entry.Instrs = append(entry.Instrs,
		&cir.Instr{Op: cir.OpAlloca, Res: slot, Ty: cir.TyPtr},
		&cir.Instr{Op: cir.OpStore, Res: -1, Sub: "p",
			Args: []cir.Operand{cir.Reg(sReg, cir.TyPtr), cir.Reg(slot, cir.TyPtr)}},
		&cir.Instr{Op: cir.OpBr, Res: -1, Blocks: []*cir.Block{blocks[1]}},
	)

	loadResult := func(b *cir.Block) cir.Operand {
		r := f.NewReg()
		b.Instrs = append(b.Instrs, &cir.Instr{Op: cir.OpLoad, Res: r, Ty: cir.TyPtr, Sub: "p",
			Args: []cir.Operand{cir.Reg(slot, cir.TyPtr)}})
		return cir.Reg(r, cir.TyPtr)
	}
	storeResult := func(b *cir.Block, v cir.Operand) {
		b.Instrs = append(b.Instrs, &cir.Instr{Op: cir.OpStore, Res: -1, Sub: "p",
			Args: []cir.Operand{v, cir.Reg(slot, cir.TyPtr)}})
	}
	litSet := func(arg []byte) cir.Operand {
		idx := len(f.StrLits)
		f.StrLits = append(f.StrLits, string(cstr.ExpandMeta(arg)))
		return cir.StrOp(idx)
	}
	call := func(b *cir.Block, fn string, ty cir.Ty, args ...cir.Operand) cir.Operand {
		r := f.NewReg()
		b.Instrs = append(b.Instrs, &cir.Instr{Op: cir.OpCall, Res: r, Ty: ty, Sub: fn, Args: args})
		return cir.Reg(r, ty)
	}
	gep := func(b *cir.Block, base, idx cir.Operand) cir.Operand {
		r := f.NewReg()
		b.Instrs = append(b.Instrs, &cir.Instr{Op: cir.OpGep, Res: r, Ty: cir.TyPtr, Scale: 1,
			Args: []cir.Operand{base, idx}})
		return cir.Reg(r, cir.TyPtr)
	}
	br := func(b, to *cir.Block) {
		b.Instrs = append(b.Instrs, &cir.Instr{Op: cir.OpBr, Res: -1, Blocks: []*cir.Block{to}})
	}

	returned := false
	for i, in := range p {
		b := blocks[i+1]
		next := blocks[i+2]
		switch in.Op {
		case vocab.OpStrspn, vocab.OpStrcspn:
			fn := "strspn"
			if in.Op == vocab.OpStrcspn {
				fn = "strcspn"
			}
			res := loadResult(b)
			n := call(b, fn, cir.TyI32, res, litSet(in.Arg))
			storeResult(b, gep(b, res, n))
			br(b, next)
		case vocab.OpStrchr, vocab.OpStrrchr, vocab.OpRawmemchr:
			fn := map[vocab.Op]string{
				vocab.OpStrchr: "strchr", vocab.OpStrrchr: "strrchr", vocab.OpRawmemchr: "rawmemchr",
			}[in.Op]
			res := loadResult(b)
			storeResult(b, call(b, fn, cir.TyPtr, res, cir.ConstOp(int64(in.Arg[0]))))
			br(b, next)
		case vocab.OpStrpbrk:
			res := loadResult(b)
			storeResult(b, call(b, "strpbrk", cir.TyPtr, res, litSet(in.Arg)))
			br(b, next)
		case vocab.OpIncrement:
			storeResult(b, gep(b, loadResult(b), cir.ConstOp(1)))
			br(b, next)
		case vocab.OpSetToEnd:
			n := call(b, "strlen", cir.TyI32, cir.Reg(sReg, cir.TyPtr))
			storeResult(b, gep(b, cir.Reg(sReg, cir.TyPtr), n))
			br(b, next)
		case vocab.OpSetToStart:
			storeResult(b, cir.Reg(sReg, cir.TyPtr))
			br(b, next)
		case vocab.OpIsNullptr:
			// skipInstruction = result != NULL: jump over the next
			// instruction when the result is non-NULL.
			res := loadResult(b)
			cmp := f.NewReg()
			b.Instrs = append(b.Instrs, &cir.Instr{Op: cir.OpCmp, Res: cmp, Ty: cir.TyI32, Sub: "ne",
				Args: []cir.Operand{res, cir.NullOp()}})
			target := blocks[min(i+3, len(blocks)-1)]
			b.Instrs = append(b.Instrs, &cir.Instr{Op: cir.OpCondBr, Res: -1,
				Args: []cir.Operand{cir.Reg(cmp, cir.TyI32)}, Blocks: []*cir.Block{target, next}})
		case vocab.OpReturn:
			res := loadResult(b)
			b.Instrs = append(b.Instrs, &cir.Instr{Op: cir.OpRet, Res: -1, Args: []cir.Operand{res}})
			returned = true
		default:
			return nil, false
		}
	}
	if !returned {
		return nil, false
	}
	// The trailing block catches programs that run off the end: that is the
	// interpreter's invalid pointer, which loop-free code cannot express, so
	// require it to be unreachable after pruning.
	last := blocks[len(blocks)-1]
	if last.Term() == nil {
		// Make it formally terminated, then require unreachability below.
		last.Instrs = append(last.Instrs, &cir.Instr{Op: cir.OpRet, Res: -1,
			Args: []cir.Operand{cir.NullOp()}})
	}
	f.RemoveUnreachable()
	for _, b := range f.Blocks {
		if b == last {
			return nil, false // the program could run off the end
		}
	}
	return f, true
}
