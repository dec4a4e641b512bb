// Package cir is the intermediate representation underneath the analyses:
// a control-flow graph of three-address instructions in the style of LLVM
// bitcode, with locals as alloca slots (before mem2reg) or SSA registers with
// phi nodes (after mem2reg). It hosts the dominator analysis, natural-loop
// detection and the automatic loop filtering pipeline of §4.1.1 (Table 2),
// mirroring the paper's use of LLVM's mem2reg and LoopAnalysis passes.
package cir

import (
	"fmt"
	"strings"
)

// Ty is an IR value type. The IR models all C integers as 32-bit values
// (chars are widened at load) and pointers as an opaque pointer type; loop
// analyses and the bounded symbolic executor are width-agnostic beyond that.
type Ty uint8

// IR types.
const (
	TyI32 Ty = iota
	TyPtr
	TyVoid
)

func (t Ty) String() string {
	switch t {
	case TyI32:
		return "i32"
	case TyPtr:
		return "ptr"
	default:
		return "void"
	}
}

// Op is an instruction opcode.
type Op uint8

// Instruction opcodes.
const (
	OpAlloca Op = iota // res = address of a fresh local slot
	OpLoad             // res = load [args: ptr]; Sub: "1s","1u","4"
	OpStore            // store [args: val, ptr]; Sub: "1","4"
	OpBin              // res = binop [args: a, b]; Sub: add,sub,mul,div,rem,and,or,xor,shl,shr
	OpCmp              // res = cmp [args: a, b]; Sub: eq,ne,slt,sle,sgt,sge,ult,ule,ugt,uge
	OpGep              // res = ptr + idx*Scale [args: ptr, idx]
	OpCall             // res = call Sub(args...)
	OpPhi              // res = phi [args aligned with Blocks]
	OpBr               // br Blocks[0]
	OpCondBr           // br cond ? Blocks[0] : Blocks[1] [args: cond]
	OpRet              // ret [args: val?]
)

// Operand is an instruction operand: a register, an integer constant, the
// null pointer, or a string-literal object.
type Operand struct {
	Kind OperandKind
	Ty   Ty
	Reg  int   // for KReg
	Imm  int64 // for KConst
	Str  int   // for KStr: index into Func.StrLits
}

// OperandKind discriminates Operand.
type OperandKind uint8

// Operand kinds.
const (
	KReg OperandKind = iota
	KConst
	KNull
	KStr
)

// Reg returns a register operand.
func Reg(r int, ty Ty) Operand { return Operand{Kind: KReg, Reg: r, Ty: ty} }

// ConstOp returns an integer-constant operand.
func ConstOp(v int64) Operand { return Operand{Kind: KConst, Imm: v, Ty: TyI32} }

// NullOp returns the null-pointer operand.
func NullOp() Operand { return Operand{Kind: KNull, Ty: TyPtr} }

// StrOp returns a string-literal operand.
func StrOp(idx int) Operand { return Operand{Kind: KStr, Str: idx, Ty: TyPtr} }

func (o Operand) String() string {
	switch o.Kind {
	case KReg:
		return fmt.Sprintf("%%%d", o.Reg)
	case KConst:
		return fmt.Sprintf("%d", o.Imm)
	case KNull:
		return "null"
	case KStr:
		return fmt.Sprintf("@str%d", o.Str)
	}
	return "?"
}

// Instr is a single IR instruction.
type Instr struct {
	Op     Op
	Ty     Ty  // type of Res
	Res    int // destination register, -1 when none
	Sub    string
	Args   []Operand
	Blocks []*Block // branch targets, or phi incoming blocks
	Scale  int      // for OpGep: element size in bytes
}

// Block is a basic block.
type Block struct {
	ID     int
	Name   string
	Instrs []*Instr // terminator is the last instruction
}

// Term returns the block terminator (the last instruction), or nil for an
// unterminated block (only during construction).
func (b *Block) Term() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	t := b.Instrs[len(b.Instrs)-1]
	switch t.Op {
	case OpBr, OpCondBr, OpRet:
		return t
	}
	return nil
}

// Succs returns the successor blocks.
func (b *Block) Succs() []*Block {
	t := b.Term()
	if t == nil || t.Op == OpRet {
		return nil
	}
	return t.Blocks
}

// Func is an IR function.
type Func struct {
	Name    string
	Params  []FuncParam
	Blocks  []*Block
	NumRegs int
	StrLits []string
	// SSA reports whether mem2reg has run.
	SSA bool
}

// FuncParam describes a parameter; its value enters the function in register
// Reg.
type FuncParam struct {
	Name string
	Ty   Ty
	Reg  int
}

// Entry returns the entry block.
func (f *Func) Entry() *Block { return f.Blocks[0] }

// NewReg allocates a fresh register.
func (f *Func) NewReg() int {
	r := f.NumRegs
	f.NumRegs++
	return r
}

// String renders the function as readable IR text.
func (f *Func) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "func %s(", f.Name)
	for i, p := range f.Params {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%s %%%d", p.Ty, p.Reg)
	}
	sb.WriteString(") {\n")
	for _, b := range f.Blocks {
		fmt.Fprintf(&sb, "%s:\n", b.Label())
		for _, in := range b.Instrs {
			sb.WriteString("  " + in.String() + "\n")
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}

// Label returns a printable block label.
func (b *Block) Label() string {
	if b.Name != "" {
		return fmt.Sprintf("b%d.%s", b.ID, b.Name)
	}
	return fmt.Sprintf("b%d", b.ID)
}

// String renders the instruction readably (the form Func.String prints).
func (in *Instr) String() string {
	args := make([]string, len(in.Args))
	for i, a := range in.Args {
		args[i] = a.String()
	}
	switch in.Op {
	case OpAlloca:
		return fmt.Sprintf("%%%d = alloca", in.Res)
	case OpLoad:
		return fmt.Sprintf("%%%d = load.%s %s", in.Res, in.Sub, args[0])
	case OpStore:
		return fmt.Sprintf("store.%s %s, %s", in.Sub, args[0], args[1])
	case OpBin:
		return fmt.Sprintf("%%%d = %s %s, %s", in.Res, in.Sub, args[0], args[1])
	case OpCmp:
		return fmt.Sprintf("%%%d = cmp.%s %s, %s", in.Res, in.Sub, args[0], args[1])
	case OpGep:
		return fmt.Sprintf("%%%d = gep %s, %s x%d", in.Res, args[0], args[1], in.Scale)
	case OpCall:
		return fmt.Sprintf("%%%d = call %s(%s)", in.Res, in.Sub, strings.Join(args, ", "))
	case OpPhi:
		parts := make([]string, len(in.Args))
		for i := range in.Args {
			parts[i] = fmt.Sprintf("[%s, %s]", in.Args[i], in.Blocks[i].Label())
		}
		return fmt.Sprintf("%%%d = phi %s", in.Res, strings.Join(parts, " "))
	case OpBr:
		return fmt.Sprintf("br %s", in.Blocks[0].Label())
	case OpCondBr:
		return fmt.Sprintf("br %s, %s, %s", args[0], in.Blocks[0].Label(), in.Blocks[1].Label())
	case OpRet:
		if len(in.Args) == 0 {
			return "ret"
		}
		return fmt.Sprintf("ret %s", args[0])
	}
	return "?"
}
