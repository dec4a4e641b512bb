package cir

import (
	"fmt"
	"strings"

	"stringloops/internal/cc"
)

// LowerFunc lowers a parsed C function into IR. The file provides signatures
// for calls to other functions in the same translation unit; it may be nil.
func LowerFunc(fn *cc.FuncDecl, file *cc.File) (f *Func, err error) {
	defer func() {
		if r := recover(); r != nil {
			if le, ok := r.(lowerError); ok {
				f, err = nil, fmt.Errorf("cir: lowering %s: %s", fn.Name, string(le))
				return
			}
			panic(r)
		}
	}()
	lo := &lowerer{
		file:     file,
		f:        &Func{Name: fn.Name, Blocks: make([]*Block, 0, 16)},
		names:    map[string]int{},
		bindings: make([]binding, 0, 8),
		scopes:   make([]int, 0, 8),
		// A corpus loop lowers to 26 instructions with 30 operands in 7
		// blocks (the median; the largest, to 60, 68 and 16).
		instrs:  slab[Instr]{size: 16},
		blocks:  slab[Block]{size: 8},
		ops:     slab[Operand]{size: 32},
		targets: slab[*Block]{size: 16},
		lists:   slab[*Instr]{size: 8 * blockCap},
	}
	lo.lower(fn)
	lo.dropUnreachable()
	return lo.f, nil
}

// LowerFile lowers every function in the file, returning them in order.
func LowerFile(file *cc.File) ([]*Func, error) {
	var out []*Func
	for _, fn := range file.Funcs {
		f, err := LowerFunc(fn, file)
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}

type lowerError string

func fail(format string, args ...interface{}) {
	panic(lowerError(fmt.Sprintf(format, args...)))
}

// local is a scoped variable: its alloca register and C type.
type local struct {
	slot int
	ty   cc.Type
}

// binding is one declaration of a name: the local it names and the
// binding of the same name it hides (-1 if none).
type binding struct {
	name   string
	l      local
	hidden int
}

type lowerer struct {
	file  *cc.File
	f     *Func
	retTy cc.Type
	cur   *Block
	// The names in scope: names maps each to its innermost binding, and
	// scopes holds the index in bindings where each open scope begins.
	names    map[string]int
	bindings []binding
	scopes   []int
	breaks   []*Block
	conts    []*Block
	labels   map[string]*Block

	// The IR is carved from slabs (see slab).
	instrs  slab[Instr]
	blocks  slab[Block]
	ops     slab[Operand]
	targets slab[*Block]
	lists   slab[*Instr]
}

// slab hands out slices carved from chunks of a fixed size, so that
// lowering makes one allocation per chunk rather than one per instruction,
// block or operand list, and wastes less than a chunk. Every slice is
// capped at its length, so appending to it (as Mem2Reg appends phis)
// copies it rather than overwriting the next one.
type slab[T any] struct {
	free []T
	size int // elements in a chunk
}

func (s *slab[T]) take(n int) []T {
	if len(s.free) < n {
		s.free = make([]T, max(n, s.size))
	}
	out := s.free[:n:n]
	s.free = s.free[n:]
	return out
}

// blockCap is the room for instructions a new block gets from its slab; a
// longer block grows its list on the heap.
const blockCap = 8

// typed couples an operand with its C type (the IR is width-poor; C types
// carry signedness and pointee information needed during lowering).
type typed struct {
	op Operand
	ty cc.Type
}

func irTy(t cc.Type) Ty {
	if t.IsPointer() {
		return TyPtr
	}
	return TyI32
}

func (lo *lowerer) newBlock(name string) *Block {
	b := &lo.blocks.take(1)[0]
	b.ID, b.Name, b.Instrs = len(lo.f.Blocks), name, lo.lists.take(blockCap)[:0]
	lo.f.Blocks = append(lo.f.Blocks, b)
	return b
}

// instr returns a new instruction with no result and a copy of args.
func (lo *lowerer) instr(op Op, sub string, args ...Operand) *Instr {
	in := &lo.instrs.take(1)[0]
	in.Op, in.Res, in.Sub = op, -1, sub
	if len(args) > 0 {
		in.Args = lo.ops.take(len(args))
		copy(in.Args, args)
	}
	return in
}

func (lo *lowerer) emit(in *Instr) *Instr {
	if lo.cur.Term() != nil {
		// Dead code after a terminator: emit into a fresh unreachable block
		// so lowering stays simple; dropUnreachable will drop it.
		lo.cur = lo.newBlock("dead")
	}
	lo.cur.Instrs = append(lo.cur.Instrs, in)
	return in
}

func (lo *lowerer) emitRes(op Op, ty Ty, sub string, args ...Operand) Operand {
	in := lo.instr(op, sub, args...)
	in.Res, in.Ty = lo.f.NewReg(), ty
	lo.emit(in)
	return Reg(in.Res, ty)
}

// emitStore emits a store of v to the address addr.
func (lo *lowerer) emitStore(sub string, v, addr Operand) {
	lo.emit(lo.instr(OpStore, sub, v, addr))
}

func (lo *lowerer) br(target *Block) {
	if lo.cur.Term() == nil {
		in := lo.instr(OpBr, "")
		in.Blocks = lo.targets.take(1)
		in.Blocks[0] = target
		lo.cur.Instrs = append(lo.cur.Instrs, in)
	}
}

func (lo *lowerer) condBr(cond Operand, then, els *Block) {
	if lo.cur.Term() == nil {
		in := lo.instr(OpCondBr, "", cond)
		in.Blocks = lo.targets.take(2)
		in.Blocks[0], in.Blocks[1] = then, els
		lo.cur.Instrs = append(lo.cur.Instrs, in)
	}
}

func (lo *lowerer) pushScope() { lo.scopes = append(lo.scopes, len(lo.bindings)) }

// popScope closes the innermost scope, uncovering the bindings its own
// hid.
func (lo *lowerer) popScope() {
	start := lo.scopes[len(lo.scopes)-1]
	lo.scopes = lo.scopes[:len(lo.scopes)-1]
	for i := len(lo.bindings) - 1; i >= start; i-- {
		if b := lo.bindings[i]; b.hidden < 0 {
			delete(lo.names, b.name)
		} else {
			lo.names[b.name] = b.hidden
		}
	}
	lo.bindings = lo.bindings[:start]
}

func (lo *lowerer) lookup(name string) (local, bool) {
	if i, ok := lo.names[name]; ok {
		return lo.bindings[i].l, true
	}
	return local{}, false
}

func (lo *lowerer) declare(name string, ty cc.Type) local {
	in := lo.instr(OpAlloca, "")
	in.Res, in.Ty = lo.f.NewReg(), TyPtr
	if strings.HasPrefix(name, "$") {
		// Compiler-generated temporary (short-circuit/ternary slots): not a
		// source variable, exempt from the §3.3 live-variable conditions.
		in.Sub = "tmp"
	}
	lo.emit(in)
	l := local{slot: in.Res, ty: ty}
	hidden, ok := lo.names[name]
	if !ok {
		hidden = -1
	}
	lo.names[name] = len(lo.bindings)
	lo.bindings = append(lo.bindings, binding{name, l, hidden})
	return l
}

// dropUnreachable removes the blocks the entry does not reach. Lowering
// numbers blocks by their index and makes no phis, so a slice indexed by
// block ID marks the reached ones and no phi needs fixing.
func (lo *lowerer) dropUnreachable() {
	f := lo.f
	reached := make([]bool, len(f.Blocks))
	reached[0] = true
	stack := append(make([]*Block, 0, len(f.Blocks)), f.Entry())
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range b.Succs() {
			if !reached[s.ID] {
				reached[s.ID] = true
				stack = append(stack, s)
			}
		}
	}
	kept := f.Blocks[:0]
	for _, b := range f.Blocks {
		if reached[b.ID] {
			kept = append(kept, b)
		}
	}
	f.Blocks = kept
}

func loadSub(t cc.Type) string {
	if t.IsPointer() {
		fail("load of pointer-to-pointer values is outside the subset")
	}
	if t.Base == cc.TyChar {
		if t.Unsigned {
			return "1u"
		}
		return "1s"
	}
	return "4"
}

func storeSub(t cc.Type) string {
	if t.Base == cc.TyChar && !t.IsPointer() {
		return "1"
	}
	return "4"
}

func (lo *lowerer) lower(fn *cc.FuncDecl) {
	lo.retTy = fn.Ret
	lo.cur = lo.newBlock("entry")
	lo.pushScope()
	for _, p := range fn.Params {
		reg := lo.f.NewReg()
		lo.f.Params = append(lo.f.Params, FuncParam{Name: p.Name, Ty: irTy(p.Type), Reg: reg})
		l := lo.declare(p.Name, p.Type)
		lo.emitStore(slotSub(p.Type), Reg(reg, irTy(p.Type)), Reg(l.slot, TyPtr))
	}
	lo.lowerStmt(fn.Body)
	// Implicit return at the end of the function.
	if lo.cur.Term() == nil {
		if fn.Ret.Base == cc.TyVoid && !fn.Ret.IsPointer() {
			lo.emit(lo.instr(OpRet, ""))
		} else if fn.Ret.IsPointer() {
			lo.emit(lo.instr(OpRet, "", NullOp()))
		} else {
			lo.emit(lo.instr(OpRet, "", ConstOp(0)))
		}
	}
	lo.popScope()
}

// slotSub is the store/load width for a local slot of C type t. Slots hold
// full IR values: pointers and i32s ("4" covers both; width is notional).
func slotSub(t cc.Type) string {
	if t.IsPointer() {
		return "p"
	}
	return "4"
}

func (lo *lowerer) lowerStmt(s cc.Stmt) {
	switch st := s.(type) {
	case *cc.EmptyStmt:
	case *cc.Block:
		lo.pushScope()
		for _, inner := range st.Stmts {
			lo.lowerStmt(inner)
		}
		lo.popScope()
	case *cc.DeclStmt:
		for _, d := range st.Decls {
			l := lo.declare(d.Name, d.Type)
			if d.Init != nil {
				v := lo.rvalue(d.Init)
				v = lo.convert(v, d.Type)
				lo.emitStore(slotSub(d.Type), v.op, Reg(l.slot, TyPtr))
			}
		}
	case *cc.ExprStmt:
		lo.rvalue(st.X)
	case *cc.If:
		then := lo.newBlock("then")
		join := lo.newBlock("endif")
		els := join
		if st.Else != nil {
			els = lo.newBlock("else")
		}
		cond := lo.lowerCond(st.Cond)
		lo.condBr(cond, then, els)
		lo.cur = then
		lo.lowerStmt(st.Then)
		lo.br(join)
		if st.Else != nil {
			lo.cur = els
			lo.lowerStmt(st.Else)
			lo.br(join)
		}
		lo.cur = join
	case *cc.While:
		head := lo.newBlock("while.head")
		body := lo.newBlock("while.body")
		exit := lo.newBlock("while.exit")
		lo.br(head)
		lo.cur = head
		cond := lo.lowerCond(st.Cond)
		lo.condBr(cond, body, exit)
		lo.cur = body
		lo.pushLoop(exit, head)
		lo.lowerStmt(st.Body)
		lo.popLoop()
		lo.br(head)
		lo.cur = exit
	case *cc.DoWhile:
		body := lo.newBlock("do.body")
		head := lo.newBlock("do.cond")
		exit := lo.newBlock("do.exit")
		lo.br(body)
		lo.cur = body
		lo.pushLoop(exit, head)
		lo.lowerStmt(st.Body)
		lo.popLoop()
		lo.br(head)
		lo.cur = head
		cond := lo.lowerCond(st.Cond)
		lo.condBr(cond, body, exit)
		lo.cur = exit
	case *cc.For:
		lo.pushScope()
		if st.Init != nil {
			lo.lowerStmt(st.Init)
		}
		head := lo.newBlock("for.head")
		body := lo.newBlock("for.body")
		post := lo.newBlock("for.post")
		exit := lo.newBlock("for.exit")
		lo.br(head)
		lo.cur = head
		if st.Cond != nil {
			cond := lo.lowerCond(st.Cond)
			lo.condBr(cond, body, exit)
		} else {
			lo.br(body)
		}
		lo.cur = body
		lo.pushLoop(exit, post)
		lo.lowerStmt(st.Body)
		lo.popLoop()
		lo.br(post)
		lo.cur = post
		if st.Post != nil {
			lo.rvalue(st.Post)
		}
		lo.br(head)
		lo.cur = exit
		lo.popScope()
	case *cc.Return:
		if st.X == nil {
			lo.emit(lo.instr(OpRet, ""))
		} else {
			v := lo.convert(lo.rvalue(st.X), lo.retTy)
			lo.emit(lo.instr(OpRet, "", v.op))
		}
	case *cc.Break:
		if len(lo.breaks) == 0 {
			fail("break outside loop")
		}
		lo.br(lo.breaks[len(lo.breaks)-1])
		lo.cur = lo.newBlock("after.break")
	case *cc.Continue:
		if len(lo.conts) == 0 {
			fail("continue outside loop")
		}
		lo.br(lo.conts[len(lo.conts)-1])
		lo.cur = lo.newBlock("after.continue")
	case *cc.Goto:
		lo.br(lo.labelBlock(st.Label))
		lo.cur = lo.newBlock("after.goto")
	case *cc.Labeled:
		b := lo.labelBlock(st.Label)
		lo.br(b)
		lo.cur = b
		lo.lowerStmt(st.Stmt)
	default:
		fail("unsupported statement %T", s)
	}
}

func (lo *lowerer) labelBlock(name string) *Block {
	if b, ok := lo.labels[name]; ok {
		return b
	}
	if lo.labels == nil {
		lo.labels = map[string]*Block{}
	}
	b := lo.newBlock("label." + name)
	lo.labels[name] = b
	return b
}

func (lo *lowerer) pushLoop(brk, cont *Block) {
	lo.breaks = append(lo.breaks, brk)
	lo.conts = append(lo.conts, cont)
}

func (lo *lowerer) popLoop() {
	lo.breaks = lo.breaks[:len(lo.breaks)-1]
	lo.conts = lo.conts[:len(lo.conts)-1]
}

// lowerCond lowers an expression used as a branch condition into an i32
// operand that is nonzero iff the condition holds.
func (lo *lowerer) lowerCond(e cc.Expr) Operand {
	v := lo.rvalue(e)
	return lo.truth(v).op
}

// truth converts a value to a 0/1 i32.
func (lo *lowerer) truth(v typed) typed {
	boolTy := cc.Type{Base: cc.TyInt}
	if v.ty.IsPointer() {
		r := lo.emitRes(OpCmp, TyI32, "ne", v.op, NullOp())
		return typed{r, boolTy}
	}
	if v.op.Kind == KConst {
		if v.op.Imm != 0 {
			return typed{ConstOp(1), boolTy}
		}
		return typed{ConstOp(0), boolTy}
	}
	r := lo.emitRes(OpCmp, TyI32, "ne", v.op, ConstOp(0))
	return typed{r, boolTy}
}

// convert adapts v to C type want (pointer/int adjustments; integer widths
// are uniform in the IR so only pointerness matters).
func (lo *lowerer) convert(v typed, want cc.Type) typed {
	if want.IsPointer() && !v.ty.IsPointer() {
		if v.op.Kind == KConst && v.op.Imm == 0 {
			return typed{NullOp(), want}
		}
		fail("cannot convert integer %s to pointer", v.op)
	}
	if !want.IsPointer() && v.ty.IsPointer() {
		fail("cannot convert pointer to integer")
	}
	return typed{v.op, want}
}

// lvalue lowers an expression to an address plus the C type of the stored
// value. kindSlot marks addresses of local slots (alloca) as opposed to
// addresses derived from pointers.
type place struct {
	addr   Operand
	ty     cc.Type // type of the value stored at addr
	isSlot bool
}

func (lo *lowerer) lvalue(e cc.Expr) place {
	switch x := e.(type) {
	case *cc.Ident:
		l, ok := lo.lookup(x.Name)
		if !ok {
			fail("undeclared identifier %q", x.Name)
		}
		return place{addr: Reg(l.slot, TyPtr), ty: l.ty, isSlot: true}
	case *cc.Unary:
		if x.Op == "*" {
			v := lo.rvalue(x.X)
			if !v.ty.IsPointer() {
				fail("dereference of non-pointer")
			}
			return place{addr: v.op, ty: v.ty.Deref()}
		}
	case *cc.Index:
		base := lo.rvalue(x.Base)
		idx := lo.rvalue(x.Idx)
		if !base.ty.IsPointer() {
			// C allows i[p]; normalise.
			base, idx = idx, base
		}
		if !base.ty.IsPointer() {
			fail("indexing a non-pointer")
		}
		elem := base.ty.Deref()
		addr := lo.emitRes(OpGep, TyPtr, "", base.op, idx.op)
		lo.lastInstr().Scale = elemSize(elem)
		return place{addr: addr, ty: elem}
	case *cc.Cast:
		// Casts of lvalues appear as (char *)p dereferences; treat the cast
		// as applying to the rvalue.
	}
	fail("expression %s is not an lvalue", e.String())
	return place{}
}

func (lo *lowerer) lastInstr() *Instr {
	return lo.cur.Instrs[len(lo.cur.Instrs)-1]
}

func elemSize(t cc.Type) int {
	if t.IsPointer() {
		return 8
	}
	switch t.Base {
	case cc.TyChar:
		return 1
	case cc.TyShort:
		return 2
	case cc.TyLong:
		return 8
	default:
		return 4
	}
}

// loadPlace emits the load of a place.
func (lo *lowerer) loadPlace(p place) typed {
	var sub string
	switch {
	case p.isSlot:
		sub = slotSub(p.ty)
	case p.ty.IsPointer():
		fail("loading pointers through pointers (char**) is outside the subset")
	default:
		sub = loadSub(p.ty)
	}
	ty := irTy(p.ty)
	r := lo.emitRes(OpLoad, ty, sub, p.addr)
	return typed{r, p.ty}
}

func (lo *lowerer) storePlace(p place, v typed) {
	var sub string
	switch {
	case p.isSlot:
		sub = slotSub(p.ty)
	case p.ty.IsPointer():
		fail("storing pointers through pointers (char**) is outside the subset")
	default:
		sub = storeSub(p.ty)
	}
	lo.emitStore(sub, v.op, p.addr)
}

// rvalue lowers an expression for its value.
func (lo *lowerer) rvalue(e cc.Expr) typed {
	switch x := e.(type) {
	case *cc.IntLit:
		return typed{ConstOp(x.Val), cc.Type{Base: cc.TyInt}}
	case *cc.CharLit:
		return typed{ConstOp(int64(x.Val)), cc.Type{Base: cc.TyInt}}
	case *cc.StringLit:
		idx := len(lo.f.StrLits)
		lo.f.StrLits = append(lo.f.StrLits, x.Val)
		return typed{StrOp(idx), cc.Type{Base: cc.TyChar, Ptr: 1}}
	case *cc.Ident:
		return lo.loadPlace(lo.lvalue(x))
	case *cc.Index:
		return lo.loadPlace(lo.lvalue(x))
	case *cc.Unary:
		return lo.lowerUnary(x)
	case *cc.Postfix:
		p := lo.lvalue(x.X)
		old := lo.loadPlace(p)
		delta := int64(1)
		if x.Op == "--" {
			delta = -1
		}
		lo.storePlace(p, lo.addDelta(old, delta))
		return old
	case *cc.Binary:
		return lo.lowerBinary(x)
	case *cc.Assign:
		return lo.lowerAssign(x)
	case *cc.Cond:
		return lo.lowerCondExpr(x)
	case *cc.Call:
		return lo.lowerCall(x)
	case *cc.Cast:
		v := lo.rvalue(x.X)
		return lo.lowerCast(v, x.To)
	}
	fail("unsupported expression %T", e)
	return typed{}
}

// addDelta adds a constant to a value, respecting pointer arithmetic.
func (lo *lowerer) addDelta(v typed, delta int64) typed {
	if v.ty.IsPointer() {
		r := lo.emitRes(OpGep, TyPtr, "", v.op, ConstOp(delta))
		lo.lastInstr().Scale = elemSize(v.ty.Deref())
		return typed{r, v.ty}
	}
	r := lo.emitRes(OpBin, TyI32, "add", v.op, ConstOp(delta))
	return typed{r, v.ty}
}

func (lo *lowerer) lowerCast(v typed, to cc.Type) typed {
	switch {
	case to.IsPointer() && v.ty.IsPointer():
		return typed{v.op, to}
	case to.IsPointer():
		if v.op.Kind == KConst && v.op.Imm == 0 {
			return typed{NullOp(), to}
		}
		fail("int-to-pointer cast outside the subset")
	case v.ty.IsPointer():
		fail("pointer-to-int cast outside the subset")
	case to.Base == cc.TyChar:
		// Truncate to 8 bits, then re-extend per signedness.
		masked := lo.emitRes(OpBin, TyI32, "and", v.op, ConstOp(0xff))
		if to.Unsigned {
			return typed{masked, to}
		}
		// Sign extension: ((x & 0xff) ^ 0x80) - 0x80.
		x := lo.emitRes(OpBin, TyI32, "xor", masked, ConstOp(0x80))
		r := lo.emitRes(OpBin, TyI32, "sub", x, ConstOp(0x80))
		return typed{r, to}
	default:
		return typed{v.op, to}
	}
	return typed{}
}

func (lo *lowerer) lowerUnary(x *cc.Unary) typed {
	switch x.Op {
	case "-":
		v := lo.rvalue(x.X)
		r := lo.emitRes(OpBin, TyI32, "sub", ConstOp(0), v.op)
		return typed{r, v.ty}
	case "~":
		v := lo.rvalue(x.X)
		r := lo.emitRes(OpBin, TyI32, "xor", v.op, ConstOp(-1))
		return typed{r, v.ty}
	case "!":
		v := lo.rvalue(x.X)
		var r Operand
		if v.ty.IsPointer() {
			r = lo.emitRes(OpCmp, TyI32, "eq", v.op, NullOp())
		} else {
			r = lo.emitRes(OpCmp, TyI32, "eq", v.op, ConstOp(0))
		}
		return typed{r, cc.Type{Base: cc.TyInt}}
	case "*":
		return lo.loadPlace(lo.lvalue(x))
	case "&":
		p := lo.lvalue(x.X)
		if p.isSlot {
			// Taking the address of a local defeats promotion; the filters
			// treat such loops as non-memoryless, matching the paper.
			return typed{p.addr, p.ty.AddrOf()}
		}
		return typed{p.addr, p.ty.AddrOf()}
	case "++", "--":
		p := lo.lvalue(x.X)
		old := lo.loadPlace(p)
		delta := int64(1)
		if x.Op == "--" {
			delta = -1
		}
		nv := lo.addDelta(old, delta)
		lo.storePlace(p, nv)
		return nv
	}
	fail("unsupported unary operator %q", x.Op)
	return typed{}
}

func (lo *lowerer) lowerBinary(x *cc.Binary) typed {
	switch x.Op {
	case "&&", "||":
		return lo.lowerShortCircuit(x)
	case ",":
		lo.rvalue(x.L)
		return lo.rvalue(x.R)
	}
	l := lo.rvalue(x.L)
	r := lo.rvalue(x.R)
	intTy := cc.Type{Base: cc.TyInt}
	switch x.Op {
	case "==", "!=", "<", "<=", ">", ">=":
		sub := cmpSub(x.Op, l.ty, r.ty)
		if l.ty.IsPointer() != r.ty.IsPointer() {
			// Comparing a pointer against 0.
			if !l.ty.IsPointer() {
				l, r = r, l
				sub = cmpSub(flipCmp(x.Op), l.ty, r.ty)
			}
			r = lo.convert(r, l.ty)
		}
		res := lo.emitRes(OpCmp, TyI32, sub, l.op, r.op)
		return typed{res, intTy}
	case "+":
		if l.ty.IsPointer() && r.ty.IsPointer() {
			fail("pointer + pointer")
		}
		if l.ty.IsPointer() || r.ty.IsPointer() {
			if r.ty.IsPointer() {
				l, r = r, l
			}
			res := lo.emitRes(OpGep, TyPtr, "", l.op, r.op)
			lo.lastInstr().Scale = elemSize(l.ty.Deref())
			return typed{res, l.ty}
		}
		res := lo.emitRes(OpBin, TyI32, "add", l.op, r.op)
		return typed{res, arith(l.ty, r.ty)}
	case "-":
		if l.ty.IsPointer() && r.ty.IsPointer() {
			res := lo.emitRes(OpBin, TyI32, "psub", l.op, r.op)
			sz := elemSize(l.ty.Deref())
			if sz > 1 {
				res = lo.emitRes(OpBin, TyI32, "div", res, ConstOp(int64(sz)))
			}
			return typed{res, intTy}
		}
		if l.ty.IsPointer() {
			neg := lo.emitRes(OpBin, TyI32, "sub", ConstOp(0), r.op)
			res := lo.emitRes(OpGep, TyPtr, "", l.op, neg)
			lo.lastInstr().Scale = elemSize(l.ty.Deref())
			return typed{res, l.ty}
		}
		res := lo.emitRes(OpBin, TyI32, "sub", l.op, r.op)
		return typed{res, arith(l.ty, r.ty)}
	case "*", "/", "%", "&", "|", "^", "<<", ">>":
		sub := binSub(x.Op)
		if x.Op == ">>" && !l.ty.Unsigned {
			sub = "sar"
		}
		res := lo.emitRes(OpBin, TyI32, sub, l.op, r.op)
		return typed{res, arith(l.ty, r.ty)}
	}
	fail("unsupported binary operator %q", x.Op)
	return typed{}
}

// binSub returns the OpBin operation of the C arithmetic operator op, or ""
// if it has none.
func binSub(op string) string {
	switch op {
	case "+":
		return "add"
	case "-":
		return "sub"
	case "*":
		return "mul"
	case "/":
		return "div"
	case "%":
		return "rem"
	case "&":
		return "and"
	case "|":
		return "or"
	case "^":
		return "xor"
	case "<<":
		return "shl"
	case ">>":
		return "shr"
	}
	return ""
}

// arith computes the usual-arithmetic-conversion result type (only
// signedness matters in this IR).
func arith(a, b cc.Type) cc.Type {
	out := cc.Type{Base: cc.TyInt}
	if a.Unsigned || b.Unsigned {
		out.Unsigned = true
	}
	return out
}

func flipCmp(op string) string {
	switch op {
	case "<":
		return ">"
	case ">":
		return "<"
	case "<=":
		return ">="
	case ">=":
		return "<="
	}
	return op
}

func cmpSub(op string, l, r cc.Type) string {
	unsigned := l.IsPointer() || r.IsPointer() || l.Unsigned || r.Unsigned
	switch op {
	case "==":
		return "eq"
	case "!=":
		return "ne"
	case "<":
		if unsigned {
			return "ult"
		}
		return "slt"
	case "<=":
		if unsigned {
			return "ule"
		}
		return "sle"
	case ">":
		if unsigned {
			return "ugt"
		}
		return "sgt"
	case ">=":
		if unsigned {
			return "uge"
		}
		return "sge"
	}
	fail("bad comparison %q", op)
	return ""
}

// lowerShortCircuit lowers && and || through control flow and a temporary
// slot, which mem2reg later turns into phis — exactly LLVM's shape.
func (lo *lowerer) lowerShortCircuit(x *cc.Binary) typed {
	intTy := cc.Type{Base: cc.TyInt}
	lo.pushScope()
	tmp := lo.declare("$sc", intTy)
	rhs := lo.newBlock("sc.rhs")
	short := lo.newBlock("sc.short")
	join := lo.newBlock("sc.join")

	l := lo.truth(lo.rvalue(x.L))
	if x.Op == "&&" {
		lo.condBr(l.op, rhs, short)
	} else {
		lo.condBr(l.op, short, rhs)
	}
	lo.cur = short
	shortVal := int64(0)
	if x.Op == "||" {
		shortVal = 1
	}
	lo.emitStore("4", ConstOp(shortVal), Reg(tmp.slot, TyPtr))
	lo.br(join)

	lo.cur = rhs
	r := lo.truth(lo.rvalue(x.R))
	lo.emitStore("4", r.op, Reg(tmp.slot, TyPtr))
	lo.br(join)

	lo.cur = join
	res := lo.emitRes(OpLoad, TyI32, "4", Reg(tmp.slot, TyPtr))
	lo.popScope()
	return typed{res, intTy}
}

func (lo *lowerer) lowerCondExpr(x *cc.Cond) typed {
	// Lower both arms through a temporary slot. The arms must agree on
	// pointerness; we discover the result type from the first arm. The slot
	// is allocated up front so it exists on both paths.
	lo.pushScope()
	tmp := lo.declare("$cond", cc.Type{Base: cc.TyInt})
	cond := lo.lowerCond(x.C)
	thenB := lo.newBlock("cond.then")
	elseB := lo.newBlock("cond.else")
	join := lo.newBlock("cond.join")
	lo.condBr(cond, thenB, elseB)
	lo.cur = thenB
	tv := lo.rvalue(x.T)
	lo.storePlace(place{addr: Reg(tmp.slot, TyPtr), ty: tv.ty, isSlot: true}, tv)
	lo.br(join)
	lo.cur = elseB
	ev := lo.rvalue(x.F)
	ev = lo.convert(ev, tv.ty)
	lo.storePlace(place{addr: Reg(tmp.slot, TyPtr), ty: tv.ty, isSlot: true}, ev)
	lo.br(join)
	lo.cur = join
	res := lo.loadPlace(place{addr: Reg(tmp.slot, TyPtr), ty: tv.ty, isSlot: true})
	lo.popScope()
	return res
}

func (lo *lowerer) lowerAssign(x *cc.Assign) typed {
	p := lo.lvalue(x.L)
	if x.Op == "=" {
		v := lo.rvalue(x.R)
		v = lo.convert(v, p.ty)
		lo.storePlace(p, v)
		return typed{v.op, p.ty}
	}
	// Compound assignment: load, apply, store.
	old := lo.loadPlace(p)
	r := lo.rvalue(x.R)
	op := x.Op[:len(x.Op)-1]
	var nv typed
	if p.ty.IsPointer() {
		switch op {
		case "+":
			res := lo.emitRes(OpGep, TyPtr, "", old.op, r.op)
			lo.lastInstr().Scale = elemSize(p.ty.Deref())
			nv = typed{res, p.ty}
		case "-":
			neg := lo.emitRes(OpBin, TyI32, "sub", ConstOp(0), r.op)
			res := lo.emitRes(OpGep, TyPtr, "", old.op, neg)
			lo.lastInstr().Scale = elemSize(p.ty.Deref())
			nv = typed{res, p.ty}
		default:
			fail("unsupported pointer compound assignment %q", x.Op)
		}
	} else {
		sub := binSub(op)
		if sub == "" {
			fail("unsupported compound assignment %q", x.Op)
		}
		if op == ">>" && !p.ty.Unsigned {
			sub = "sar"
		}
		res := lo.emitRes(OpBin, TyI32, sub, old.op, r.op)
		nv = typed{res, arith(old.ty, r.ty)}
	}
	lo.storePlace(p, nv)
	return nv
}

func (lo *lowerer) lowerCall(x *cc.Call) typed {
	ret := callRetType(x.Name, lo.file)
	in := lo.instr(OpCall, x.Name)
	if len(x.Args) > 0 {
		in.Args = lo.ops.take(len(x.Args))
		for i, a := range x.Args {
			in.Args[i] = lo.rvalue(a).op
		}
	}
	in.Res, in.Ty = lo.f.NewReg(), irTy(ret)
	lo.emit(in)
	return typed{Reg(in.Res, in.Ty), ret}
}

// knownCallRets lists the return types of external functions the corpus
// calls. Everything else defaults to int, which is the conservative C rule.
var knownCallRets = map[string]cc.Type{
	"strchr":    {Base: cc.TyChar, Ptr: 1},
	"strrchr":   {Base: cc.TyChar, Ptr: 1},
	"strpbrk":   {Base: cc.TyChar, Ptr: 1},
	"strstr":    {Base: cc.TyChar, Ptr: 1},
	"rawmemchr": {Base: cc.TyChar, Ptr: 1},
	"memchr":    {Base: cc.TyChar, Ptr: 1},
	"strcpy":    {Base: cc.TyChar, Ptr: 1},
	"strcat":    {Base: cc.TyChar, Ptr: 1},
	"malloc":    {Base: cc.TyVoid, Ptr: 1},
	"strlen":    {Base: cc.TyLong, Unsigned: true},
	"strspn":    {Base: cc.TyLong, Unsigned: true},
	"strcspn":   {Base: cc.TyLong, Unsigned: true},
}

func callRetType(name string, file *cc.File) cc.Type {
	if t, ok := knownCallRets[name]; ok {
		return t
	}
	if file != nil {
		if fn := file.Lookup(name); fn != nil {
			return fn.Ret
		}
	}
	return cc.Type{Base: cc.TyInt}
}
