package cir

import "fmt"

// A Machine is the concrete interpreter of a decoded Program (Decode): Exec
// runs the program over a heap. The machine keeps its value array and its
// own heap between runs, so a warm machine running a function on its own
// heap allocates nothing.
//
// A Machine belongs to one goroutine, and to the function as it was when
// NewMachine decoded it: a pass that mutates the function (Mem2Reg) needs a
// new machine.
type Machine struct {
	p *Program
	// slots holds the registers, then one slot per string literal, then the
	// constants; registers and literals are set at the start of each run.
	slots []CVal
	args  []CVal // call arguments, padded with zero values
	phis  []CVal // the values of a parallel phi copy
	heap  Memory
}

// NewMachine decodes f into a machine that runs it.
func NewMachine(f *Func) *Machine {
	p := Decode(f)
	m := &Machine{
		p:     p,
		slots: make([]CVal, p.nslots),
		args:  make([]CVal, max(p.maxArgs, 3)),
		phis:  make([]CVal, p.maxPhis),
	}
	copy(m.slots[p.nregs+len(f.StrLits):], p.Consts)
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
	if p.Start >= 0 {
		return p.raise(p.Start, 0)
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
	e := &p.Edges[p.Entry]
	if e.Trap >= 0 {
		return p.raise(e.Trap, steps)
	}
	m.cross(e)
	code := p.Code
	pc := e.PC
	for {
		in := &code[pc]
		pc++
		steps++
		if steps > maxSteps {
			if in.Op == DFall {
				return p.raise(in.A, steps-1)
			}
			return ExecResult{Steps: steps}, ErrStepLimit
		}
		var flt fault
		switch in.Op {
		case DAlloca:
			slots[in.Res] = PtrVal(mem.AllocCell(), 0)
		case DLoad1s, DLoad1u, DLoad4:
			ptr := slots[in.A]
			o := mem.at(ptr)
			if o == nil {
				return ExecResult{Steps: steps}, ErrMemory
			}
			if !o.isData {
				slots[in.Res] = o.cell
				break
			}
			v, ok := load(o.data, ptr.Off, in.Op)
			if !ok {
				return ExecResult{Steps: steps}, ErrMemory
			}
			slots[in.Res] = v
		case DStore1, DStore4:
			o := mem.at(slots[in.B])
			if o == nil {
				return ExecResult{Steps: steps}, ErrMemory
			}
			if !o.isData {
				o.cell = slots[in.A]
				break
			}
			if !store(o.data, slots[in.B].Off, slots[in.A], in.Op == DStore1) {
				return ExecResult{Steps: steps}, ErrMemory
			}
		case DAdd, DSub, DMul, DDiv, DRem, DAnd, DOr, DXor, DShl, DShr, DSar, DPsub, DBinBad:
			slots[in.Res], flt = binop(in.Op, slots[in.A], slots[in.B])
		case DCmp:
			x, y := slots[in.A], slots[in.B]
			if x.IsPtr || y.IsPtr {
				slots[in.Res], flt = comparePtrs(CmpKind(in.Aux), x, y)
				break
			}
			var r bool
			switch CmpKind(in.Aux) {
			case CmpEq:
				r = int32(x.Int) == int32(y.Int)
			case CmpNe:
				r = int32(x.Int) != int32(y.Int)
			case CmpSlt:
				r = int32(x.Int) < int32(y.Int)
			case CmpSle:
				r = int32(x.Int) <= int32(y.Int)
			case CmpSgt:
				r = int32(x.Int) > int32(y.Int)
			case CmpSge:
				r = int32(x.Int) >= int32(y.Int)
			case CmpUlt:
				r = uint32(x.Int) < uint32(y.Int)
			case CmpUle:
				r = uint32(x.Int) <= uint32(y.Int)
			case CmpUgt:
				r = uint32(x.Int) > uint32(y.Int)
			case CmpUge:
				r = uint32(x.Int) >= uint32(y.Int)
			default:
				flt = fUnknownCmp
			}
			slots[in.Res] = boolVal(r)
		case DGep:
			ptr, idx := slots[in.A], slots[in.B]
			if !ptr.IsPtr || idx.IsPtr || ptr.IsNull() {
				// Pointer arithmetic on NULL is undefined behaviour, as
				// in the symbolic engine.
				return ExecResult{Steps: steps}, ErrMemory
			}
			slots[in.Res] = PtrVal(ptr.Obj, ptr.Off+int(idx.Int)*int(in.C))
		case DCall:
			n := int(in.B)
			for i, s := range p.CallArgs[in.A : int(in.A)+n] {
				m.args[i] = slots[s]
			}
			clear(m.args[n:])
			slots[in.Res], flt = mem.call(Intrinsic(in.Aux), m.args, n)
		case DBr:
			e := &p.Edges[in.B]
			if e.Trap >= 0 {
				return p.raise(e.Trap, steps)
			}
			m.cross(e)
			pc = e.PC
		case DCondBr:
			c := slots[in.A]
			taken := c.Int != 0
			if c.IsPtr {
				taken = !c.IsNull()
			}
			e := &p.Edges[in.C]
			if taken {
				e = &p.Edges[in.B]
			}
			if e.Trap >= 0 {
				return p.raise(e.Trap, steps)
			}
			m.cross(e)
			pc = e.PC
		case DRet:
			return ExecResult{Ret: slots[in.A], Steps: steps}, nil
		case DRetVoid:
			return ExecResult{Steps: steps}, nil
		case DTrap:
			return p.raise(in.A, steps)
		case DFall:
			return p.raise(in.A, steps-1)
		}
		if flt != 0 {
			return ExecResult{Steps: steps}, flt.err(p.src[pc-1])
		}
	}
}

// cross runs edge e's phi copies.
func (m *Machine) cross(e *Edge) {
	cs := m.p.Copies[e.From:e.To]
	if !e.parallel {
		for _, c := range cs {
			m.slots[c.Dst] = m.slots[c.Src]
		}
		return
	}
	vals := m.phis[:len(cs)]
	for i, c := range cs {
		vals[i] = m.slots[c.Src]
	}
	for i, c := range cs {
		m.slots[c.Dst] = vals[i]
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

// raise ends a run on trap t after steps steps; a missing phi edge is
// raised before the run takes any.
func (p *Program) raise(t int32, steps int) (ExecResult, error) {
	if p.traps[t].kind == trapNoEdge {
		steps = 0
	}
	return ExecResult{Steps: steps}, p.TrapErr(t)
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
func load(buf []byte, off int, op Opcode) (CVal, bool) {
	if op != DLoad4 {
		if off < 0 || off >= len(buf) {
			return CVal{}, false
		}
		if op == DLoad1s {
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

func binop(op Opcode, a, b CVal) (CVal, fault) {
	if op == DPsub {
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
	case DAdd:
		r = x + y
	case DSub:
		r = x - y
	case DMul:
		r = x * y
	case DDiv, DRem:
		if y == 0 {
			return CVal{}, fDivZero
		}
		if op == DDiv {
			r = x / y
		} else {
			r = x % y
		}
	case DAnd:
		r = x & y
	case DOr:
		r = x | y
	case DXor:
		r = x ^ y
	case DShl:
		r = x << (uint32(y) & 31)
	case DShr:
		r = int32(uint32(x) >> (uint32(y) & 31))
	case DSar:
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
func comparePtrs(k CmpKind, a, b CVal) (CVal, fault) {
	if !a.IsPtr || !b.IsPtr {
		return CVal{}, fMixedCmp
	}
	eq := a.Obj == b.Obj && (a.IsNull() || a.Off == b.Off)
	switch k {
	case CmpEq:
		return boolVal(eq), 0
	case CmpNe:
		return boolVal(!eq), 0
	}
	if a.Obj != b.Obj {
		return CVal{}, fMemory
	}
	switch k {
	case CmpUlt, CmpSlt:
		return boolVal(a.Off < b.Off), 0
	case CmpUle, CmpSle:
		return boolVal(a.Off <= b.Off), 0
	case CmpUgt, CmpSgt:
		return boolVal(a.Off > b.Off), 0
	case CmpUge, CmpSge:
		return boolVal(a.Off >= b.Off), 0
	}
	return CVal{}, fUnknownPtrCmp
}
