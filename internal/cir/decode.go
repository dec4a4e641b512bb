package cir

import (
	"errors"
	"fmt"
)

// A Program is a function decoded for execution, the form both
// interpreters run: the Machine here and the symbolic executor (package
// symex). Every instruction becomes an Opcode with its operands resolved to
// slots of one value array (registers, then the function's string literals,
// then its constants), every branch names a decoded Edge, and every edge
// carries the phi copies its target block runs on entry, read in parallel.
// Only the blocks reachable from the entry are decoded.
//
// Decoding never fails. What the IR gets wrong (an operand of unknown kind
// or out of range, a phi with no edge from the predecessor, a block that
// falls through) decodes to a trap, an instruction or edge that raises the
// error when, and only when, a run reaches it (TrapErr); an unknown binop,
// comparison or callee decodes to DBinBad, CmpBad or FnUnknown, which fail
// when run (Fault). A Program belongs to the function as it was when decoded.
//
// Blocks are numbered in the order the edges first reach them, the entry
// first; block k's code is one run of Code that ends in its terminator, a
// DTrap or a DFall. Joins (joins.go) reads the control flow off this form.
type Program struct {
	Code     []DInstr
	Edges    []Edge
	Copies   []PhiCopy
	CallArgs []int32 // a DCall's argument slots are CallArgs[A:A+B]
	Consts   []CVal  // the values of the slots after the string literals
	Entry    int32   // the edge into the entry block
	Start    int32   // a trap raised before the run starts, or -1

	f       *Func
	blocks  []*Block // the IR block of each block number
	pcs     []int32  // each block's first instruction
	nregs   int
	nslots  int
	src     []*Instr // the instruction each code entry was decoded from
	maxArgs int
	maxPhis int
	traps   []trap
}

// An Opcode is a decoded instruction's operation. The D (decoded) prefix
// keeps them apart from the IR's Op constants.
type Opcode uint8

// Decoded opcodes. Operand fields are slots unless noted.
const (
	DNop    Opcode = iota // an Op no interpreter knows (Aux): the Machine steps over it
	DAlloca               // Res = a fresh cell
	DLoad1s               // Res = load A
	DLoad1u
	DLoad4
	DStore1 // store A into B
	DStore4
	DAdd // Res = A op B, DAdd through DPsub
	DSub
	DMul
	DDiv
	DRem
	DAnd
	DOr
	DXor
	DShl
	DShr
	DSar
	DPsub
	DBinBad // a binop of unknown name
	DCmp    // Res = A cmp B, Aux the CmpKind
	DGep    // Res = A + B*C, C the scale
	DCall   // Res = Aux(CallArgs[A:A+B]), Aux the Intrinsic
	DBr     // edge B
	DCondBr // if A edge B else edge C
	DRet    // return A
	DRetVoid
	DTrap // A: the trap the instruction raises, after counting its step
	DFall // A: the trap of a block without terminator, raised stepless
)

// A CmpKind is a comparison's predicate.
type CmpKind uint8

// Comparison kinds; CmpBad is one of unknown name.
const (
	CmpEq CmpKind = iota
	CmpNe
	CmpSlt
	CmpSle
	CmpSgt
	CmpSge
	CmpUlt
	CmpUle
	CmpUgt
	CmpUge
	CmpBad
)

// cmpSubs and opNames name each comparison kind, load and binop by its
// Sub. Arrays, not maps: they need no initialisation at program start.
var (
	cmpSubs = [...]string{CmpEq: "eq", CmpNe: "ne", CmpSlt: "slt", CmpSle: "sle", CmpSgt: "sgt",
		CmpSge: "sge", CmpUlt: "ult", CmpUle: "ule", CmpUgt: "ugt", CmpUge: "uge"}
	opNames = [...]string{DLoad1s: "1s", DLoad1u: "1u", DLoad4: "4",
		DAdd: "add", DSub: "sub", DMul: "mul", DDiv: "div", DRem: "rem",
		DAnd: "and", DOr: "or", DXor: "xor", DShl: "shl", DShr: "shr", DSar: "sar", DPsub: "psub"}
)

// String names a load by its width and a binop by its name, as the IR's
// Sub does.
func (op Opcode) String() string {
	if int(op) < len(opNames) {
		return opNames[op]
	}
	return ""
}

// cmpKindOf maps a comparison's Sub to its kind.
func cmpKindOf(sub string) CmpKind {
	for k, name := range cmpSubs {
		if name == sub {
			return CmpKind(k)
		}
	}
	return CmpBad
}

// binOpOf maps a binop's Sub to its Opcode.
func binOpOf(sub string) Opcode {
	for op := DAdd; op <= DPsub; op++ {
		if opNames[op] == sub {
			return op
		}
	}
	return DBinBad
}

// A DInstr is one decoded instruction.
type DInstr struct {
	Op      Opcode
	Aux     uint8
	Res     int32
	A, B, C int32
}

// An Edge is one decoded control-flow edge: the phi copies its target runs
// on entry, read in parallel, then the jump.
type Edge struct {
	Block    int32 // the target block's number
	PC       int32 // the target block's first instruction
	From, To int32 // its copies are Copies[From:To]
	parallel bool  // a copy reads a slot an earlier copy writes
	Trap     int32 // the trap the edge raises, or -1
}

// A PhiCopy sets slot Dst to slot Src.
type PhiCopy struct{ Dst, Src int32 }

// trap is an error a run raises where it meets malformed IR. Errors are
// built when raised, as the IR reads then.
type trap struct {
	kind   trapKind
	block  *Block
	prev   *Block      // trapNoEdge: the predecessor
	instr  *Instr      // trapBadOperand: the instruction (a phi, or not)
	opKind OperandKind // trapBadOperand
	msg    string      // trapMalformed: the whole error text
}

type trapKind uint8

const (
	trapBadOperand trapKind = iota
	trapNoEdge
	trapFall
	trapMalformed
)

// TrapErr is the error trap t raises.
func (p *Program) TrapErr(t int32) error {
	tr := &p.traps[t]
	switch tr.kind {
	case trapBadOperand:
		return fmt.Errorf("cir: %s: block %s: %s: bad operand kind %d", p.f.Name, tr.block.Label(), tr.instr, tr.opKind)
	case trapNoEdge:
		return fmt.Errorf("cir: phi in %s has no incoming edge from %s", tr.block.Label(), predLabel(tr.prev))
	case trapFall:
		return fmt.Errorf("cir: block %s falls through", tr.block.Label())
	}
	return errors.New(tr.msg)
}

// Fault is the error the Machine raises running instruction pc on operands
// that are pointers as ptr says, when pc is one no interpreter can run: a
// DBinBad, a CmpBad comparison, or a DCall to FnUnknown or to a character
// function with the wrong arguments. It is nil where the Machine would not
// fail.
func (p *Program) Fault(pc int32, ptr ...bool) error {
	var v [3]CVal
	for i, isPtr := range ptr {
		v[i].IsPtr = isPtr
	}
	in := &p.Code[pc]
	var f fault
	switch in.Op {
	case DCmp:
		f = fUnknownCmp
		if v[0].IsPtr || v[1].IsPtr {
			_, f = comparePtrs(CmpKind(in.Aux), v[0], v[1])
		}
	case DCall:
		// Character functions and unknown callees touch no memory.
		_, f = (*Memory)(nil).call(Intrinsic(in.Aux), v[:], int(in.B))
	default:
		_, f = binop(in.Op, v[0], v[1])
	}
	if f == 0 {
		return nil
	}
	return f.err(p.src[pc])
}

// decoder builds a program, decoding the blocks reachable from the entry in
// the order the edges first reach them.
type decoder struct {
	p      *Program
	index  map[*Block]int32 // block -> its number
	edgeOf map[[2]*Block]int32
	consts map[CVal]int32
}

// Decode decodes f. Each call builds a new Program.
func Decode(f *Func) *Program {
	p := &Program{f: f, nregs: f.NumRegs, nslots: f.NumRegs + len(f.StrLits), Start: -1}
	d := &decoder{p: p, index: map[*Block]int32{}, edgeOf: map[[2]*Block]int32{}, consts: map[CVal]int32{}}
	for _, par := range f.Params {
		if !d.register(par.Reg) {
			p.Start = d.malformed(fmt.Sprintf("cir: %s: parameter %s in register %d of %d", f.Name, par.Name, par.Reg, f.NumRegs))
			return p
		}
	}
	if len(f.Blocks) == 0 {
		p.Start = d.malformed(fmt.Sprintf("cir: %s has no blocks", f.Name))
		return p
	}
	p.Entry = d.edge(nil, f.Entry())
	for i := 0; i < len(p.blocks); i++ {
		p.pcs = append(p.pcs, int32(len(p.Code)))
		d.block(p.blocks[i])
	}
	for i := range p.Edges {
		p.Edges[i].PC = p.pcs[p.Edges[i].Block]
	}
	return p
}

func (d *decoder) register(r int) bool { return r >= 0 && r < d.p.nregs }

func (d *decoder) addTrap(t trap) int32 {
	d.p.traps = append(d.p.traps, t)
	return int32(len(d.p.traps) - 1)
}

func (d *decoder) malformed(msg string) int32 {
	return d.addTrap(trap{kind: trapMalformed, msg: msg})
}

// operand resolves o to its slot, or returns the trap reading it raises.
func (d *decoder) operand(o Operand, b *Block, in *Instr) (slot, trapIdx int32) {
	switch o.Kind {
	case KReg:
		if d.register(o.Reg) {
			return int32(o.Reg), -1
		}
		return 0, d.malformed(fmt.Sprintf("cir: %s: block %s: op %d reads register %d of %d", d.p.f.Name, b.Label(), in.Op, o.Reg, d.p.nregs))
	case KConst:
		return d.constant(IntVal(o.Imm)), -1
	case KNull:
		return d.constant(NullVal()), -1
	case KStr:
		if o.Str >= 0 && o.Str < len(d.p.f.StrLits) {
			return int32(d.p.nregs + o.Str), -1
		}
		return 0, d.malformed(fmt.Sprintf("cir: %s: block %s: op %d reads string %d of %d", d.p.f.Name, b.Label(), in.Op, o.Str, len(d.p.f.StrLits)))
	}
	return 0, d.addTrap(trap{kind: trapBadOperand, block: b, instr: in, opKind: o.Kind})
}

func (d *decoder) constant(v CVal) int32 {
	if s, ok := d.consts[v]; ok {
		return s
	}
	s := int32(d.p.nslots)
	d.p.nslots++
	d.p.Consts = append(d.p.Consts, v)
	d.consts[v] = s
	return s
}

// edge returns the edge from prev (nil for the run's start) into b,
// decoding it on first use: b's leading phis, read in order, become copies,
// and the first phi that cannot be read makes the edge a trap.
func (d *decoder) edge(prev, b *Block) int32 {
	key := [2]*Block{prev, b}
	if e, ok := d.edgeOf[key]; ok {
		return e
	}
	p := d.p
	target, ok := d.index[b]
	if !ok {
		target = int32(len(p.blocks))
		d.index[b] = target
		p.blocks = append(p.blocks, b)
	}
	// Decode sets PC once the target's code is laid out.
	e := Edge{Block: target, From: int32(len(p.Copies)), Trap: -1}
	badRes := false
	for _, in := range b.Instrs {
		if in.Op != OpPhi {
			break
		}
		i := indexOf(in.Blocks, prev)
		if i < 0 {
			e.Trap = d.addTrap(trap{kind: trapNoEdge, block: b, prev: prev})
			break
		}
		if i >= len(in.Args) {
			e.Trap = d.malformed(fmt.Sprintf("cir: %s: block %s: phi with %d incoming values for %d blocks", p.f.Name, b.Label(), len(in.Args), len(in.Blocks)))
			break
		}
		src, t := d.operand(in.Args[i], b, in)
		if t >= 0 {
			e.Trap = t
			break
		}
		// A bad result register is raised only once every phi was read,
		// after the reads' own errors.
		badRes = badRes || !d.register(in.Res)
		p.Copies = append(p.Copies, PhiCopy{Dst: int32(in.Res), Src: src})
	}
	e.To = int32(len(p.Copies))
	if e.Trap < 0 && badRes {
		e.Trap = d.malformed(fmt.Sprintf("cir: %s: block %s: phi result out of range", p.f.Name, b.Label()))
	}
	cs := p.Copies[e.From:e.To]
	for i, c := range cs {
		for _, later := range cs[i+1:] {
			if later.Src == c.Dst {
				e.parallel = true
			}
		}
	}
	p.maxPhis = max(p.maxPhis, len(cs))
	p.Edges = append(p.Edges, e)
	d.edgeOf[key] = int32(len(p.Edges) - 1)
	return int32(len(p.Edges) - 1)
}

func indexOf(bs []*Block, b *Block) int {
	for i, x := range bs {
		if x == b {
			return i
		}
	}
	return -1
}

// block decodes b's instructions up to its first terminator. Phis are its
// edges' business, and a phi after the first non-phi is never read; a block
// without terminator ends in DFall.
func (d *decoder) block(b *Block) {
	for _, in := range b.Instrs {
		if in.Op == OpPhi {
			continue
		}
		if d.instr(b, in) {
			return
		}
	}
	d.emit(DInstr{Op: DFall, A: d.addTrap(trap{kind: trapFall, block: b})}, nil)
}

func (d *decoder) emit(di DInstr, in *Instr) {
	d.p.Code = append(d.p.Code, di)
	d.p.src = append(d.p.src, in)
}

// operandsRead lists the indices of the operands in reads, in the order
// the interpreter reads them: the first that cannot be read is the trap. A
// call's arguments are resolved apart, in order.
func operandsRead(in *Instr) []int {
	switch in.Op {
	case OpLoad, OpCondBr:
		return []int{0}
	case OpStore:
		return []int{1, 0}
	case OpBin, OpCmp, OpGep:
		return []int{0, 1}
	case OpRet:
		if len(in.Args) > 0 {
			return []int{0}
		}
	}
	return nil
}

// instr decodes one non-phi instruction and reports whether it ends the
// block.
func (d *decoder) instr(b *Block, in *Instr) (terminator bool) {
	p := d.p
	di := DInstr{Res: int32(in.Res)}
	trapAt := func(t int32) bool {
		d.emit(DInstr{Op: DTrap, A: t}, in)
		return true
	}
	bad := func(what string) bool {
		return trapAt(d.malformed(fmt.Sprintf("cir: %s: block %s: op %d with %s", p.f.Name, b.Label(), in.Op, what)))
	}

	// Operands.
	var slots [2]int32
	reads := operandsRead(in)
	for _, i := range reads {
		if i >= len(in.Args) {
			return bad(fmt.Sprintf("%d operands", len(in.Args)))
		}
	}
	for _, i := range reads {
		s, t := d.operand(in.Args[i], b, in)
		if t >= 0 {
			return trapAt(t)
		}
		slots[i] = s
	}
	di.A, di.B = slots[0], slots[1]
	if in.Op == OpCall {
		di.A = int32(len(p.CallArgs))
		di.B = int32(len(in.Args))
		for _, a := range in.Args {
			s, t := d.operand(a, b, in)
			if t >= 0 {
				p.CallArgs = p.CallArgs[:di.A]
				return trapAt(t)
			}
			p.CallArgs = append(p.CallArgs, s)
		}
		p.maxArgs = max(p.maxArgs, len(in.Args))
	}

	// Result register.
	switch in.Op {
	case OpAlloca, OpLoad, OpBin, OpCmp, OpGep, OpCall:
		if !d.register(in.Res) {
			return bad(fmt.Sprintf("result register %d of %d", in.Res, p.nregs))
		}
	}

	switch in.Op {
	case OpAlloca:
		di.Op = DAlloca
	case OpLoad:
		switch in.Sub {
		case "1s":
			di.Op = DLoad1s
		case "1u", "1":
			di.Op = DLoad1u
		default: // "4", "p": four bytes from a data object
			di.Op = DLoad4
		}
	case OpStore:
		di.Op = DStore4
		if in.Sub == "1" {
			di.Op = DStore1
		}
	case OpBin:
		di.Op = binOpOf(in.Sub)
	case OpCmp:
		di.Op, di.Aux = DCmp, uint8(cmpKindOf(in.Sub))
	case OpGep:
		di.Op = DGep
		di.C = int32(in.Scale)
	case OpCall:
		di.Op, di.Aux = DCall, uint8(intrinsicOf(in.Sub))
	case OpBr:
		if len(in.Blocks) < 1 || in.Blocks[0] == nil {
			return bad("no target")
		}
		di.Op = DBr
		di.B = d.edge(b, in.Blocks[0])
		d.emit(di, in)
		return true
	case OpCondBr:
		if len(in.Blocks) < 2 || in.Blocks[0] == nil || in.Blocks[1] == nil {
			return bad("missing targets")
		}
		di.Op = DCondBr
		di.B = d.edge(b, in.Blocks[0])
		di.C = d.edge(b, in.Blocks[1])
		d.emit(di, in)
		return true
	case OpRet:
		di.Op = DRetVoid
		if len(in.Args) > 0 {
			di.Op = DRet
		}
		d.emit(di, in)
		return true
	default:
		di.Op, di.Aux = DNop, uint8(in.Op)
	}
	d.emit(di, in)
	return false
}
