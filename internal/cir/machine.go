package cir

import (
	"errors"
	"fmt"
)

// A Machine is the concrete interpreter. NewMachine decodes a function once
// into a flat program: every instruction becomes an opcode enum with its
// operands resolved to slots of one value array (registers, then the
// function's string literals, then its constants), every branch names a
// decoded edge, and every edge carries the phi copies its target block runs
// on entry. Exec then runs the program over a heap. The machine keeps its
// value array and its own heap between runs, so a warm machine running a
// function on its own heap allocates nothing.
//
// Decoding never fails. What the IR gets wrong (an operand of unknown kind,
// an unknown binop, comparison or intrinsic, a phi with no edge from the
// predecessor, a block that falls through) decodes to an instruction or an
// edge that raises the error when, and only when, a run reaches it.
//
// A Machine belongs to one goroutine, and to the function as it was when
// NewMachine decoded it: a pass that mutates the function (Mem2Reg) needs a
// new machine.
type Machine struct {
	p *program
	// slots holds the registers, then one slot per string literal, then the
	// constants; registers and literals are set at the start of each run.
	slots []CVal
	args  []CVal // call arguments, padded with zero values
	phis  []CVal // the values of a parallel phi copy
	heap  Memory
}

type opcode uint8

const (
	opNop opcode = iota // an Op this machine does not know: a step, nothing else
	opAlloca
	opLoad1s // a: pointer
	opLoad1u
	opLoad4
	opStore1 // a: value, b: pointer
	opStore4
	opAdd // a, b: operands
	opSub
	opMul
	opDiv
	opRem
	opAnd
	opOr
	opXor
	opShl
	opShr
	opSar
	opPsub
	opBinBad // a binop of unknown name
	opCmp    // aux: cmpKind
	opGep    // a: pointer, b: index, c: scale
	opCall   // aux: intrinsic; args are callArgs[a:a+b]
	opBr     // b: edge
	opCondBr // a: condition, b: edge when true, c: edge when false
	opRet    // a: value
	opRetVoid
	opTrap // a: the trap the instruction raises, after counting its step
	opFall // a: the trap of a block without terminator, raised stepless
)

type cmpKind uint8

const (
	cmpEq cmpKind = iota
	cmpNe
	cmpSlt
	cmpSle
	cmpSgt
	cmpSge
	cmpUlt
	cmpUle
	cmpUgt
	cmpUge
	cmpBad
)

// cmpSubs and binSubs name each comparison kind and binop opcode by its
// Sub. Arrays, not maps: they need no initialisation at program start.
var (
	cmpSubs = [...]string{cmpEq: "eq", cmpNe: "ne", cmpSlt: "slt", cmpSle: "sle", cmpSgt: "sgt",
		cmpSge: "sge", cmpUlt: "ult", cmpUle: "ule", cmpUgt: "ugt", cmpUge: "uge"}
	binSubs = [...]string{opAdd: "add", opSub: "sub", opMul: "mul", opDiv: "div", opRem: "rem",
		opAnd: "and", opOr: "or", opXor: "xor", opShl: "shl", opShr: "shr", opSar: "sar", opPsub: "psub"}
)

// cmpKindOf maps a comparison's Sub to its kind.
func cmpKindOf(sub string) cmpKind {
	for k, name := range cmpSubs {
		if name == sub {
			return cmpKind(k)
		}
	}
	return cmpBad
}

// binOpOf maps a binop's Sub to its opcode.
func binOpOf(sub string) opcode {
	for op := opAdd; op <= opPsub; op++ {
		if binSubs[op] == sub {
			return op
		}
	}
	return opBinBad
}

// dinstr is one decoded instruction. Operand fields are slot indices unless
// the opcode says otherwise.
type dinstr struct {
	op      opcode
	aux     uint8
	res     int32
	a, b, c int32
}

// edge is one decoded control-flow edge: the phi copies its target runs on
// entry, read in parallel, then the jump.
type edge struct {
	pc       int32 // the target block's first instruction
	from, to int32 // its copies are copies[from:to]
	parallel bool  // a copy reads a slot an earlier copy writes
	trap     int32 // the trap the edge raises, or -1
}

type phiCopy struct{ dst, src int32 }

type program struct {
	f        *Func
	nregs    int
	nslots   int
	consts   []CVal // the values of slots nregs+len(f.StrLits) on
	code     []dinstr
	src      []*Instr // the instruction each code entry was decoded from
	edges    []edge
	copies   []phiCopy
	callArgs []int32
	maxArgs  int
	maxPhis  int
	traps    []trap
	entry    int32 // the edge into the entry block
	start    int32 // a trap raised before the run starts, or -1
}

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

// NewMachine decodes f into a machine that runs it.
func NewMachine(f *Func) *Machine {
	p := decode(f)
	m := &Machine{
		p:     p,
		slots: make([]CVal, p.nslots),
		args:  make([]CVal, max(p.maxArgs, 3)),
		phis:  make([]CVal, p.maxPhis),
	}
	copy(m.slots[p.nregs+len(f.StrLits):], p.consts)
	return m
}

// Heap empties the machine's own heap and returns it, for the caller to
// place a run's argument objects in before calling Exec with it.
func (m *Machine) Heap() *Memory {
	m.heap.reset()
	return &m.heap
}

// Exec runs the function on args over mem, with the semantics of the
// package-level Exec: string literals become fresh data objects on mem,
// each executed alloca a fresh cell, and maxSteps bounds the instruction
// count (0 means a generous default).
func (m *Machine) Exec(args []CVal, mem *Memory, maxSteps int) (ExecResult, error) {
	p := m.p
	f := p.f
	if maxSteps <= 0 {
		maxSteps = 1 << 20
	}
	if len(args) != len(f.Params) {
		return ExecResult{}, fmt.Errorf("cir: %s expects %d args, got %d", f.Name, len(f.Params), len(args))
	}
	if p.start >= 0 {
		return p.raise(p.start, 0)
	}
	slots := m.slots
	clear(slots[:p.nregs])
	for i, par := range f.Params {
		slots[par.Reg] = args[i]
	}
	for i, s := range f.StrLits {
		slots[p.nregs+i] = PtrVal(mem.allocString(s), 0)
	}

	steps := 0
	e := &p.edges[p.entry]
	if e.trap >= 0 {
		return p.raise(e.trap, steps)
	}
	m.cross(e)
	code := p.code
	pc := e.pc
	for {
		in := &code[pc]
		pc++
		steps++
		if steps > maxSteps {
			if in.op == opFall {
				return p.raise(in.a, steps-1)
			}
			return ExecResult{Steps: steps}, ErrStepLimit
		}
		var flt fault
		switch in.op {
		case opAlloca:
			slots[in.res] = PtrVal(mem.AllocCell(), 0)
		case opLoad1s, opLoad1u, opLoad4:
			ptr := slots[in.a]
			o := mem.at(ptr)
			if o == nil {
				return ExecResult{Steps: steps}, ErrMemory
			}
			if !o.isData {
				slots[in.res] = o.cell
				break
			}
			v, ok := load(o.data, ptr.Off, in.op)
			if !ok {
				return ExecResult{Steps: steps}, ErrMemory
			}
			slots[in.res] = v
		case opStore1, opStore4:
			o := mem.at(slots[in.b])
			if o == nil {
				return ExecResult{Steps: steps}, ErrMemory
			}
			if !o.isData {
				o.cell = slots[in.a]
				break
			}
			if !store(o.data, slots[in.b].Off, slots[in.a], in.op == opStore1) {
				return ExecResult{Steps: steps}, ErrMemory
			}
		case opAdd, opSub, opMul, opDiv, opRem, opAnd, opOr, opXor, opShl, opShr, opSar, opPsub, opBinBad:
			slots[in.res], flt = binop(in.op, slots[in.a], slots[in.b])
		case opCmp:
			x, y := slots[in.a], slots[in.b]
			if x.IsPtr || y.IsPtr {
				slots[in.res], flt = comparePtrs(cmpKind(in.aux), x, y)
				break
			}
			var r bool
			switch cmpKind(in.aux) {
			case cmpEq:
				r = int32(x.Int) == int32(y.Int)
			case cmpNe:
				r = int32(x.Int) != int32(y.Int)
			case cmpSlt:
				r = int32(x.Int) < int32(y.Int)
			case cmpSle:
				r = int32(x.Int) <= int32(y.Int)
			case cmpSgt:
				r = int32(x.Int) > int32(y.Int)
			case cmpSge:
				r = int32(x.Int) >= int32(y.Int)
			case cmpUlt:
				r = uint32(x.Int) < uint32(y.Int)
			case cmpUle:
				r = uint32(x.Int) <= uint32(y.Int)
			case cmpUgt:
				r = uint32(x.Int) > uint32(y.Int)
			case cmpUge:
				r = uint32(x.Int) >= uint32(y.Int)
			default:
				flt = fUnknownCmp
			}
			slots[in.res] = boolVal(r)
		case opGep:
			ptr, idx := slots[in.a], slots[in.b]
			if !ptr.IsPtr || idx.IsPtr || ptr.IsNull() {
				// Pointer arithmetic on NULL is undefined behaviour, as
				// in the symbolic engine.
				return ExecResult{Steps: steps}, ErrMemory
			}
			slots[in.res] = PtrVal(ptr.Obj, ptr.Off+int(idx.Int)*int(in.c))
		case opCall:
			n := int(in.b)
			for i, s := range p.callArgs[in.a : int(in.a)+n] {
				m.args[i] = slots[s]
			}
			clear(m.args[n:])
			slots[in.res], flt = mem.call(intrinsic(in.aux), m.args, n)
		case opBr:
			e := &p.edges[in.b]
			if e.trap >= 0 {
				return p.raise(e.trap, steps)
			}
			m.cross(e)
			pc = e.pc
		case opCondBr:
			c := slots[in.a]
			taken := c.Int != 0
			if c.IsPtr {
				taken = !c.IsNull()
			}
			e := &p.edges[in.c]
			if taken {
				e = &p.edges[in.b]
			}
			if e.trap >= 0 {
				return p.raise(e.trap, steps)
			}
			m.cross(e)
			pc = e.pc
		case opRet:
			return ExecResult{Ret: slots[in.a], Steps: steps}, nil
		case opRetVoid:
			return ExecResult{Steps: steps}, nil
		case opTrap:
			return p.raise(in.a, steps)
		case opFall:
			return p.raise(in.a, steps-1)
		}
		if flt != 0 {
			return ExecResult{Steps: steps}, flt.err(p.src[pc-1])
		}
	}
}

// cross runs edge e's phi copies.
func (m *Machine) cross(e *edge) {
	cs := m.p.copies[e.from:e.to]
	if !e.parallel {
		for _, c := range cs {
			m.slots[c.dst] = m.slots[c.src]
		}
		return
	}
	vals := m.phis[:len(cs)]
	for i, c := range cs {
		vals[i] = m.slots[c.src]
	}
	for i, c := range cs {
		m.slots[c.dst] = vals[i]
	}
}

// predLabel names the block a run entered a phi's block from: its label, or
// "function entry" for the entry block, which has no predecessor.
func predLabel(prev *Block) string {
	if prev == nil {
		return "function entry"
	}
	return prev.Label()
}

// raise ends a run on trap t after steps steps.
func (p *program) raise(t int32, steps int) (ExecResult, error) {
	tr := &p.traps[t]
	switch tr.kind {
	case trapBadOperand:
		return ExecResult{Steps: steps}, fmt.Errorf("cir: %s: block %s: %s: bad operand kind %d", p.f.Name, tr.block.Label(), tr.instr, tr.opKind)
	case trapNoEdge:
		return ExecResult{}, fmt.Errorf("cir: phi in %s has no incoming edge from %s", tr.block.Label(), predLabel(tr.prev))
	case trapFall:
		return ExecResult{Steps: steps}, fmt.Errorf("cir: block %s falls through", tr.block.Label())
	}
	return ExecResult{Steps: steps}, errors.New(tr.msg)
}

// fault is how an operation failed; the machine turns it into an error
// naming the instruction only when a run fails.
type fault uint8

const (
	fMemory fault = iota + 1
	fDivZero
	fPtrOperand
	fUnknownBin
	fMixedCmp
	fUnknownPtrCmp
	fUnknownCmp
	fUnsupportedCall
	fUnknownFunc
)

func (f fault) err(in *Instr) error {
	switch f {
	case fMemory:
		return ErrMemory
	case fDivZero:
		return errDivZero
	case fPtrOperand:
		return fmt.Errorf("cir: pointer operand in %s", in.Sub)
	case fUnknownBin:
		return fmt.Errorf("cir: unknown binop %q", in.Sub)
	case fMixedCmp:
		return fmt.Errorf("cir: mixed pointer/int comparison %q", in.Sub)
	case fUnknownPtrCmp:
		return fmt.Errorf("cir: unknown pointer comparison %q", in.Sub)
	case fUnknownCmp:
		return fmt.Errorf("cir: unknown comparison %q", in.Sub)
	case fUnsupportedCall:
		return fmt.Errorf("cir: unsupported call %s", in.Sub)
	}
	return fmt.Errorf("cir: unknown function %q", in.Sub)
}

// load reads a data object's bytes at off: one byte, signed or not, or
// four little-endian bytes.
func load(buf []byte, off int, op opcode) (CVal, bool) {
	if op != opLoad4 {
		if off < 0 || off >= len(buf) {
			return CVal{}, false
		}
		if op == opLoad1s {
			return IntVal(int64(int8(buf[off]))), true
		}
		return IntVal(int64(buf[off])), true
	}
	if off < 0 || off+4 > len(buf) {
		return CVal{}, false
	}
	v := int64(buf[off]) | int64(buf[off+1])<<8 | int64(buf[off+2])<<16 | int64(buf[off+3])<<24
	return IntVal(v), true
}

// store writes v into a data object's bytes at off: one byte or four
// little-endian ones. Storing a pointer into bytes is outside the subset.
func store(buf []byte, off int, v CVal, byteWide bool) bool {
	if v.IsPtr {
		return false
	}
	if byteWide {
		if off < 0 || off >= len(buf) {
			return false
		}
		buf[off] = byte(v.Int)
		return true
	}
	if off < 0 || off+4 > len(buf) {
		return false
	}
	for i := range 4 {
		buf[off+i] = byte(v.Int >> (8 * i))
	}
	return true
}

func binop(op opcode, a, b CVal) (CVal, fault) {
	if op == opPsub {
		if !a.IsPtr || !b.IsPtr || a.Obj != b.Obj {
			return CVal{}, fMemory
		}
		return IntVal(int64(a.Off - b.Off)), 0
	}
	if a.IsPtr || b.IsPtr {
		return CVal{}, fPtrOperand
	}
	x, y := int32(a.Int), int32(b.Int)
	var r int32
	switch op {
	case opAdd:
		r = x + y
	case opSub:
		r = x - y
	case opMul:
		r = x * y
	case opDiv, opRem:
		if y == 0 {
			return CVal{}, fDivZero
		}
		if op == opDiv {
			r = x / y
		} else {
			r = x % y
		}
	case opAnd:
		r = x & y
	case opOr:
		r = x | y
	case opXor:
		r = x ^ y
	case opShl:
		r = x << (uint32(y) & 31)
	case opShr:
		r = int32(uint32(x) >> (uint32(y) & 31))
	case opSar:
		r = x >> (uint32(y) & 31)
	default:
		return CVal{}, fUnknownBin
	}
	return CVal{Int: int64(r)}, 0
}

func boolVal(b bool) CVal {
	if b {
		return CVal{Int: 1}
	}
	return CVal{}
}

// comparePtrs compares two values at least one of which is a pointer:
// equality across objects, ordering within one.
func comparePtrs(k cmpKind, a, b CVal) (CVal, fault) {
	if !a.IsPtr || !b.IsPtr {
		return CVal{}, fMixedCmp
	}
	eq := a.Obj == b.Obj && (a.IsNull() || a.Off == b.Off)
	switch k {
	case cmpEq:
		return boolVal(eq), 0
	case cmpNe:
		return boolVal(!eq), 0
	}
	if a.Obj != b.Obj {
		return CVal{}, fMemory
	}
	switch k {
	case cmpUlt, cmpSlt:
		return boolVal(a.Off < b.Off), 0
	case cmpUle, cmpSle:
		return boolVal(a.Off <= b.Off), 0
	case cmpUgt, cmpSgt:
		return boolVal(a.Off > b.Off), 0
	case cmpUge, cmpSge:
		return boolVal(a.Off >= b.Off), 0
	}
	return CVal{}, fUnknownPtrCmp
}
