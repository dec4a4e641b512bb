package cir

import "fmt"

// decoder builds a program, decoding the blocks reachable from the entry in
// the order the edges first reach them.
type decoder struct {
	p      *program
	blocks []*Block
	index  map[*Block]int32 // block -> position in blocks
	pcs    []int32          // first instruction of each block
	edgeOf map[[2]*Block]int32
	consts map[CVal]int32
}

func decode(f *Func) *program {
	p := &program{f: f, nregs: f.NumRegs, nslots: f.NumRegs + len(f.StrLits), start: -1}
	d := &decoder{p: p, index: map[*Block]int32{}, edgeOf: map[[2]*Block]int32{}, consts: map[CVal]int32{}}
	for _, par := range f.Params {
		if !d.register(par.Reg) {
			p.start = d.malformed(fmt.Sprintf("cir: %s: parameter %s in register %d of %d", f.Name, par.Name, par.Reg, f.NumRegs))
			return p
		}
	}
	if len(f.Blocks) == 0 {
		p.start = d.malformed(fmt.Sprintf("cir: %s has no blocks", f.Name))
		return p
	}
	p.entry = d.edge(nil, f.Entry())
	for i := 0; i < len(d.blocks); i++ {
		d.pcs = append(d.pcs, int32(len(p.code)))
		d.block(d.blocks[i])
	}
	for i := range p.edges {
		p.edges[i].pc = d.pcs[p.edges[i].pc]
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
	d.p.consts = append(d.p.consts, v)
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
	target, ok := d.index[b]
	if !ok {
		target = int32(len(d.blocks))
		d.index[b] = target
		d.blocks = append(d.blocks, b)
	}
	p := d.p
	// pc holds the target's block index until decode resolves it.
	e := edge{pc: target, from: int32(len(p.copies)), trap: -1}
	badRes := false
	for _, in := range b.Instrs {
		if in.Op != OpPhi {
			break
		}
		i := indexOf(in.Blocks, prev)
		if i < 0 {
			e.trap = d.addTrap(trap{kind: trapNoEdge, block: b, prev: prev})
			break
		}
		if i >= len(in.Args) {
			e.trap = d.malformed(fmt.Sprintf("cir: %s: block %s: phi with %d incoming values for %d blocks", p.f.Name, b.Label(), len(in.Args), len(in.Blocks)))
			break
		}
		src, t := d.operand(in.Args[i], b, in)
		if t >= 0 {
			e.trap = t
			break
		}
		// A bad result register is raised only once every phi was read,
		// after the reads' own errors.
		badRes = badRes || !d.register(in.Res)
		p.copies = append(p.copies, phiCopy{dst: int32(in.Res), src: src})
	}
	e.to = int32(len(p.copies))
	if e.trap < 0 && badRes {
		e.trap = d.malformed(fmt.Sprintf("cir: %s: block %s: phi result out of range", p.f.Name, b.Label()))
	}
	cs := p.copies[e.from:e.to]
	for i, c := range cs {
		for _, later := range cs[i+1:] {
			if later.src == c.dst {
				e.parallel = true
			}
		}
	}
	p.maxPhis = max(p.maxPhis, len(cs))
	p.edges = append(p.edges, e)
	d.edgeOf[key] = int32(len(p.edges) - 1)
	return int32(len(p.edges) - 1)
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
// without terminator ends in opFall.
func (d *decoder) block(b *Block) {
	for _, in := range b.Instrs {
		if in.Op == OpPhi {
			continue
		}
		if d.instr(b, in) {
			return
		}
	}
	d.emit(dinstr{op: opFall, a: d.addTrap(trap{kind: trapFall, block: b})}, nil)
}

func (d *decoder) emit(di dinstr, in *Instr) {
	d.p.code = append(d.p.code, di)
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
	di := dinstr{res: int32(in.Res)}
	trapAt := func(t int32) bool {
		d.emit(dinstr{op: opTrap, a: t}, in)
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
	di.a, di.b = slots[0], slots[1]
	if in.Op == OpCall {
		di.a = int32(len(p.callArgs))
		di.b = int32(len(in.Args))
		for _, a := range in.Args {
			s, t := d.operand(a, b, in)
			if t >= 0 {
				p.callArgs = p.callArgs[:di.a]
				return trapAt(t)
			}
			p.callArgs = append(p.callArgs, s)
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
		di.op = opAlloca
	case OpLoad:
		switch in.Sub {
		case "1s":
			di.op = opLoad1s
		case "1u", "1":
			di.op = opLoad1u
		default: // "4", "p": four bytes from a data object
			di.op = opLoad4
		}
	case OpStore:
		di.op = opStore4
		if in.Sub == "1" {
			di.op = opStore1
		}
	case OpBin:
		di.op = binOpOf(in.Sub)
	case OpCmp:
		di.op, di.aux = opCmp, uint8(cmpKindOf(in.Sub))
	case OpGep:
		di.op = opGep
		di.c = int32(in.Scale)
	case OpCall:
		di.op, di.aux = opCall, uint8(intrinsicOf(in.Sub))
	case OpBr:
		if len(in.Blocks) < 1 || in.Blocks[0] == nil {
			return bad("no target")
		}
		di.op = opBr
		di.b = d.edge(b, in.Blocks[0])
		d.emit(di, in)
		return true
	case OpCondBr:
		if len(in.Blocks) < 2 || in.Blocks[0] == nil || in.Blocks[1] == nil {
			return bad("missing targets")
		}
		di.op = opCondBr
		di.b = d.edge(b, in.Blocks[0])
		di.c = d.edge(b, in.Blocks[1])
		d.emit(di, in)
		return true
	case OpRet:
		di.op = opRetVoid
		if len(in.Args) > 0 {
			di.op = opRet
		}
		d.emit(di, in)
		return true
	default:
		di.op = opNop
	}
	d.emit(di, in)
	return false
}
