package cir

import (
	"errors"
	"fmt"
)

// This file keeps the tree-walking interpreter the decoded Machine replaced,
// as the reference the machine is cross-checked against: it walks the
// *Func directly, builds a fresh register file per run, allocates every
// string-literal copy and alloca cell on the heap it is given, and picks
// each instruction's behaviour by its Sub string. Tests only.

// refBadOperand is the panic value raised when an instruction references an
// operand of unknown kind — malformed IR rather than bad input. refExec recovers
// it at its boundary and reports a contextual error instead of crashing, so a
// fuzzer-built function can never kill the process.
type refBadOperand struct{ o Operand }

// refExec runs f on the given arguments with the given heap. maxSteps bounds the
// instruction count (0 means a generous default). Malformed IR (operands of
// unknown kind) is reported as an error naming the function, block and
// instruction, never as a panic.
func refExec(f *Func, args []CVal, mem *Memory, maxSteps int) (result ExecResult, rerr error) {
	if maxSteps <= 0 {
		maxSteps = 1 << 20
	}
	if len(args) != len(f.Params) {
		return ExecResult{}, fmt.Errorf("cir: %s expects %d args, got %d", f.Name, len(f.Params), len(args))
	}
	regs := make([]CVal, f.NumRegs)
	for i, p := range f.Params {
		regs[p.Reg] = args[i]
	}
	// String literals become fresh data objects per run.
	strObjs := make([]int, len(f.StrLits))
	for i, s := range f.StrLits {
		buf := append([]byte(s), 0)
		strObjs[i] = mem.AllocData(buf)
	}

	val := func(o Operand) CVal {
		switch o.Kind {
		case KReg:
			return regs[o.Reg]
		case KConst:
			return IntVal(o.Imm)
		case KNull:
			return NullVal()
		case KStr:
			return PtrVal(strObjs[o.Str], 0)
		}
		panic(refBadOperand{o})
	}

	steps := 0
	block := f.Entry()
	var prev *Block
	var curInstr *Instr
	defer func() {
		if r := recover(); r != nil {
			bo, ok := r.(refBadOperand)
			if !ok {
				panic(r)
			}
			instr := "<phi>"
			if curInstr != nil {
				instr = curInstr.String()
			}
			result = ExecResult{Steps: steps}
			rerr = fmt.Errorf("cir: %s: block %s: %s: bad operand kind %d", f.Name, block.Label(), instr, bo.o.Kind)
		}
	}()
	for {
		// Evaluate phis simultaneously at block entry.
		var phiVals []CVal
		var phiRegs []int
		for _, in := range block.Instrs {
			if in.Op != OpPhi {
				break
			}
			curInstr = in
			found := false
			for i, pb := range in.Blocks {
				if pb == prev {
					phiVals = append(phiVals, val(in.Args[i]))
					phiRegs = append(phiRegs, in.Res)
					found = true
					break
				}
			}
			if !found {
				return ExecResult{}, fmt.Errorf("cir: phi in %s has no incoming edge from %s", block.Label(), predLabel(prev))
			}
		}
		for i, r := range phiRegs {
			regs[r] = phiVals[i]
		}

		for _, in := range block.Instrs {
			if in.Op == OpPhi {
				continue
			}
			curInstr = in
			steps++
			if steps > maxSteps {
				return ExecResult{Steps: steps}, ErrStepLimit
			}
			switch in.Op {
			case OpAlloca:
				regs[in.Res] = PtrVal(mem.AllocCell(), 0)
			case OpLoad:
				v, err := refLoad(mem, val(in.Args[0]), in.Sub)
				if err != nil {
					return ExecResult{Steps: steps}, err
				}
				regs[in.Res] = v
			case OpStore:
				if err := refStore(mem, val(in.Args[1]), val(in.Args[0]), in.Sub); err != nil {
					return ExecResult{Steps: steps}, err
				}
			case OpBin:
				v, err := refBinop(in.Sub, val(in.Args[0]), val(in.Args[1]))
				if err != nil {
					return ExecResult{Steps: steps}, err
				}
				regs[in.Res] = v
			case OpCmp:
				v, err := refCmpop(in.Sub, val(in.Args[0]), val(in.Args[1]))
				if err != nil {
					return ExecResult{Steps: steps}, err
				}
				regs[in.Res] = v
			case OpGep:
				p := val(in.Args[0])
				idx := val(in.Args[1])
				if !p.IsPtr || idx.IsPtr || p.IsNull() {
					// Pointer arithmetic on NULL is undefined behaviour, as
					// in the symbolic engine.
					return ExecResult{Steps: steps}, ErrMemory
				}
				regs[in.Res] = PtrVal(p.Obj, p.Off+int(idx.Int)*in.Scale)
			case OpCall:
				vals := make([]CVal, len(in.Args))
				for i, a := range in.Args {
					vals[i] = val(a)
				}
				if v, handled, err := refStringIntrinsic(mem, in.Sub, vals); handled {
					if err != nil {
						return ExecResult{Steps: steps}, err
					}
					regs[in.Res] = v
					break
				}
				v, err := refCallIntrinsic(in.Sub, vals)
				if err != nil {
					return ExecResult{Steps: steps}, err
				}
				regs[in.Res] = v
			case OpBr:
				prev, block = block, in.Blocks[0]
				goto nextBlock
			case OpCondBr:
				c := val(in.Args[0])
				taken := c.Int != 0
				if c.IsPtr {
					taken = !c.IsNull()
				}
				if taken {
					prev, block = block, in.Blocks[0]
				} else {
					prev, block = block, in.Blocks[1]
				}
				goto nextBlock
			case OpRet:
				res := ExecResult{Steps: steps}
				if len(in.Args) > 0 {
					res.Ret = val(in.Args[0])
				}
				return res, nil
			}
		}
		return ExecResult{Steps: steps}, fmt.Errorf("cir: block %s falls through", block.Label())
	nextBlock:
	}
}

func refLoad(m *Memory, p CVal, sub string) (CVal, error) {
	if !p.IsPtr || p.IsNull() || p.Obj >= len(m.objs) {
		return CVal{}, ErrMemory
	}
	if !m.objs[p.Obj].isData {
		return m.objs[p.Obj].cell, nil
	}
	buf := m.objs[p.Obj].data
	switch sub {
	case "1s", "1u", "1":
		if p.Off < 0 || p.Off >= len(buf) {
			return CVal{}, ErrMemory
		}
		b := buf[p.Off]
		if sub == "1s" {
			return IntVal(int64(int8(b))), nil
		}
		return IntVal(int64(b)), nil
	default: // "4", "p" from a data object: 4-byte little-endian
		if p.Off < 0 || p.Off+4 > len(buf) {
			return CVal{}, ErrMemory
		}
		v := int64(buf[p.Off]) | int64(buf[p.Off+1])<<8 | int64(buf[p.Off+2])<<16 | int64(buf[p.Off+3])<<24
		return IntVal(v), nil
	}
}

func refStore(m *Memory, p, v CVal, sub string) error {
	if !p.IsPtr || p.IsNull() || p.Obj >= len(m.objs) {
		return ErrMemory
	}
	if !m.objs[p.Obj].isData {
		m.objs[p.Obj].cell = v
		return nil
	}
	buf := m.objs[p.Obj].data
	if v.IsPtr {
		return ErrMemory // storing pointers into byte arrays is outside the subset
	}
	switch sub {
	case "1":
		if p.Off < 0 || p.Off >= len(buf) {
			return ErrMemory
		}
		buf[p.Off] = byte(v.Int)
	default:
		if p.Off < 0 || p.Off+4 > len(buf) {
			return ErrMemory
		}
		for i := 0; i < 4; i++ {
			buf[p.Off+i] = byte(v.Int >> (8 * i))
		}
	}
	return nil
}

func refBinop(sub string, a, b CVal) (CVal, error) {
	if sub == "psub" {
		if !a.IsPtr || !b.IsPtr || a.Obj != b.Obj {
			return CVal{}, ErrMemory
		}
		return IntVal(int64(a.Off - b.Off)), nil
	}
	if a.IsPtr || b.IsPtr {
		return CVal{}, fmt.Errorf("cir: pointer operand in %s", sub)
	}
	x, y := int32(a.Int), int32(b.Int)
	switch sub {
	case "add":
		return IntVal(int64(x + y)), nil
	case "sub":
		return IntVal(int64(x - y)), nil
	case "mul":
		return IntVal(int64(x * y)), nil
	case "div":
		if y == 0 {
			return CVal{}, errors.New("cir: division by zero")
		}
		return IntVal(int64(x / y)), nil
	case "rem":
		if y == 0 {
			return CVal{}, errors.New("cir: division by zero")
		}
		return IntVal(int64(x % y)), nil
	case "and":
		return IntVal(int64(x & y)), nil
	case "or":
		return IntVal(int64(x | y)), nil
	case "xor":
		return IntVal(int64(x ^ y)), nil
	case "shl":
		return IntVal(int64(x << (uint32(y) & 31))), nil
	case "shr":
		return IntVal(int64(int32(uint32(x) >> (uint32(y) & 31)))), nil
	case "sar":
		return IntVal(int64(x >> (uint32(y) & 31))), nil
	}
	return CVal{}, fmt.Errorf("cir: unknown binop %q", sub)
}

func refCmpop(sub string, a, b CVal) (CVal, error) {
	toInt := func(cond bool) CVal {
		if cond {
			return IntVal(1)
		}
		return IntVal(0)
	}
	if a.IsPtr || b.IsPtr {
		// Pointer comparisons: equality across objects, ordering within one.
		if !a.IsPtr || !b.IsPtr {
			return CVal{}, fmt.Errorf("cir: mixed pointer/int comparison %q", sub)
		}
		switch sub {
		case "eq":
			return toInt(a.Obj == b.Obj && (a.IsNull() || a.Off == b.Off)), nil
		case "ne":
			return toInt(!(a.Obj == b.Obj && (a.IsNull() || a.Off == b.Off))), nil
		}
		if a.Obj != b.Obj {
			return CVal{}, ErrMemory
		}
		switch sub {
		case "ult", "slt":
			return toInt(a.Off < b.Off), nil
		case "ule", "sle":
			return toInt(a.Off <= b.Off), nil
		case "ugt", "sgt":
			return toInt(a.Off > b.Off), nil
		case "uge", "sge":
			return toInt(a.Off >= b.Off), nil
		}
		return CVal{}, fmt.Errorf("cir: unknown pointer comparison %q", sub)
	}
	x, y := int32(a.Int), int32(b.Int)
	ux, uy := uint32(a.Int), uint32(b.Int)
	switch sub {
	case "eq":
		return toInt(x == y), nil
	case "ne":
		return toInt(x != y), nil
	case "slt":
		return toInt(x < y), nil
	case "sle":
		return toInt(x <= y), nil
	case "sgt":
		return toInt(x > y), nil
	case "sge":
		return toInt(x >= y), nil
	case "ult":
		return toInt(ux < uy), nil
	case "ule":
		return toInt(ux <= uy), nil
	case "ugt":
		return toInt(ux > uy), nil
	case "uge":
		return toInt(ux >= uy), nil
	}
	return CVal{}, fmt.Errorf("cir: unknown comparison %q", sub)
}

// stringIntrinsic implements the string.h functions over data objects, so
// idiom-rewritten and refactored code runs concretely. Undefined behaviour
// (NULL or unterminated arguments, rawmemchr scanning off the buffer)
// surfaces as a memory error. The second result reports whether the name was
// recognised.
func refStringIntrinsic(m *Memory, name string, args []CVal) (CVal, bool, error) {
	switch name {
	case "strlen", "strchr", "strrchr", "rawmemchr", "strspn", "strcspn", "strpbrk", "memchr":
	default:
		return CVal{}, false, nil
	}
	raw := func(i int) ([]byte, int, error) {
		if i >= len(args) || !args[i].IsPtr || args[i].IsNull() {
			return nil, 0, ErrMemory
		}
		p := args[i]
		if p.Obj >= len(m.objs) || !m.objs[p.Obj].isData {
			return nil, 0, ErrMemory
		}
		buf := m.objs[p.Obj].data
		if p.Off < 0 || p.Off > len(buf) {
			return nil, 0, ErrMemory
		}
		return buf, p.Off, nil
	}
	str := func(i int) ([]byte, int, error) {
		buf, off, err := raw(i)
		if err != nil {
			return nil, 0, err
		}
		for k := off; k < len(buf); k++ {
			if buf[k] == 0 {
				return buf, off, nil
			}
		}
		return nil, 0, ErrMemory
	}
	chr := func(i int) byte { return byte(args[i].Int) }
	ptrAt := func(i, off int) CVal { return PtrVal(args[i].Obj, off) }

	fail := func() (CVal, bool, error) { return CVal{}, true, ErrMemory }
	switch name {
	case "strlen":
		buf, off, err := str(0)
		if err != nil {
			return fail()
		}
		n := 0
		for buf[off+n] != 0 {
			n++
		}
		return IntVal(int64(n)), true, nil
	case "strchr", "strrchr", "rawmemchr":
		buf, off, err := raw(0)
		if err != nil {
			return fail()
		}
		if name != "rawmemchr" {
			if buf, off, err = str(0); err != nil {
				return fail()
			}
		}
		c := chr(1)
		switch name {
		case "strchr":
			for i := off; ; i++ {
				if buf[i] == c {
					return ptrAt(0, i), true, nil
				}
				if buf[i] == 0 {
					return NullVal(), true, nil
				}
			}
		case "strrchr":
			last := -1
			for i := off; ; i++ {
				if buf[i] == c {
					last = i
				}
				if buf[i] == 0 {
					break
				}
			}
			if last < 0 {
				return NullVal(), true, nil
			}
			return ptrAt(0, last), true, nil
		default: // rawmemchr: no terminator check; off-buffer is UB
			for i := off; i < len(buf); i++ {
				if buf[i] == c {
					return ptrAt(0, i), true, nil
				}
			}
			return fail()
		}
	case "strspn", "strcspn", "strpbrk":
		buf, off, err := str(0)
		if err != nil {
			return fail()
		}
		set, setOff, err := str(1)
		if err != nil {
			return fail()
		}
		inSet := func(c byte) bool {
			for k := setOff; set[k] != 0; k++ {
				if set[k] == c {
					return true
				}
			}
			return false
		}
		switch name {
		case "strspn":
			n := 0
			for buf[off+n] != 0 && inSet(buf[off+n]) {
				n++
			}
			return IntVal(int64(n)), true, nil
		case "strcspn":
			n := 0
			for buf[off+n] != 0 && !inSet(buf[off+n]) {
				n++
			}
			return IntVal(int64(n)), true, nil
		default: // strpbrk
			for i := off; buf[i] != 0; i++ {
				if inSet(buf[i]) {
					return ptrAt(0, i), true, nil
				}
			}
			return NullVal(), true, nil
		}
	case "memchr":
		buf, off, err := raw(0)
		if err != nil {
			return fail()
		}
		c := chr(1)
		n := int(args[2].Int)
		for i := off; i < off+n && i < len(buf); i++ {
			if buf[i] == c {
				return ptrAt(0, i), true, nil
			}
		}
		return NullVal(), true, nil
	}
	return CVal{}, false, nil
}

// callIntrinsic implements the ctype.h-style character functions loops call;
// these take and return ints, so the automatic pointer-call filter keeps
// loops using them — exactly the loops whose synthesis needs meta-characters
// (§2.2).
func refCallIntrinsic(name string, args []CVal) (CVal, error) {
	one := func(cond bool) (CVal, error) {
		if cond {
			return IntVal(1), nil
		}
		return IntVal(0), nil
	}
	if len(args) != 1 || args[0].IsPtr {
		return CVal{}, fmt.Errorf("cir: unsupported call %s", name)
	}
	c := args[0].Int
	inRange := c >= 0 && c <= 255
	b := byte(c)
	switch name {
	case "isdigit":
		return one(inRange && b >= '0' && b <= '9')
	case "isspace":
		return one(inRange && (b == ' ' || b == '\t' || b == '\n' || b == '\r' || b == '\v' || b == '\f'))
	case "isblank":
		return one(inRange && (b == ' ' || b == '\t'))
	case "isupper":
		return one(inRange && b >= 'A' && b <= 'Z')
	case "islower":
		return one(inRange && b >= 'a' && b <= 'z')
	case "isalpha":
		return one(inRange && (b >= 'A' && b <= 'Z' || b >= 'a' && b <= 'z'))
	case "isalnum":
		return one(inRange && (b >= '0' && b <= '9' || b >= 'A' && b <= 'Z' || b >= 'a' && b <= 'z'))
	case "toupper":
		if inRange && b >= 'a' && b <= 'z' {
			return IntVal(c - 32), nil
		}
		return IntVal(c), nil
	case "tolower":
		if inRange && b >= 'A' && b <= 'Z' {
			return IntVal(c + 32), nil
		}
		return IntVal(c), nil
	case "putchar":
		return IntVal(c), nil // I/O side effect modelled as a no-op
	}
	return CVal{}, fmt.Errorf("cir: unknown function %q", name)
}
