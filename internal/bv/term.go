// Package bv implements a small bit-vector theory on top of the CDCL SAT
// solver in internal/sat: a term language with aggressive constant folding
// and local simplification, a Tseitin bit-blaster, and model extraction.
// Together with internal/sat it plays the role Z3/STP play for KLEE in the
// paper's artifact. Widths up to 64 bits are supported; this project uses
// 8-bit terms for characters and 32-bit terms for lengths and offsets.
package bv

import (
	"fmt"
	"strings"
)

// Kind identifies a term constructor.
type Kind uint8

// Term kinds.
const (
	KConst Kind = iota
	KVar
	KNot // bitwise complement
	KAnd // bitwise and
	KOr  // bitwise or
	KXor // bitwise xor
	KAdd
	KSub
	KIte   // if-then-else on a Bool condition
	KZext  // zero extension to a wider width
	KShlC  // shift left by the constant in Val
	KLshrC // logical shift right by the constant in Val
	KAshrC // arithmetic shift right by the constant in Val
)

// Term is an immutable bit-vector expression node. Terms are built with the
// package's smart constructors, which fold constants and apply local
// rewrites; client code never mutates a Term.
type Term struct {
	Kind  Kind
	Width int    // bit width, 1..64
	Val   uint64 // for KConst
	Name  string // for KVar
	Cond  *Bool  // for KIte
	A, B  *Term  // operands
}

// BKind identifies a boolean-formula constructor.
type BKind uint8

// Bool kinds.
const (
	BConst BKind = iota
	BVar
	BNot
	BAnd
	BOr
	BEq  // term equality
	BUlt // unsigned less-than on terms
	BUle // unsigned less-or-equal on terms
)

// Bool is an immutable propositional formula over bit-vector atoms.
type Bool struct {
	Kind BKind
	Val  bool   // for BConst
	Name string // for BVar
	A, B *Bool  // operands for BNot/BAnd/BOr
	X, Y *Term  // operands for BEq/BUlt/BUle
}

// True and False are the boolean constants.
var (
	True  = &Bool{Kind: BConst, Val: true}
	False = &Bool{Kind: BConst, Val: false}
)

func maskFor(width int) uint64 {
	if width >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << width) - 1
}

// Const returns a constant term of the given width; the value is truncated to
// the width.
func (in *Interner) Const(width int, val uint64) *Term {
	if width < 1 || width > 64 {
		panic(fmt.Sprintf("bv: invalid width %d", width))
	}
	val &= maskFor(width)
	if width == 8 {
		if t := in.bytes[val].Load(); t != nil {
			return t
		}
	}
	return in.intern(Term{Kind: KConst, Width: width, Val: val})
}

// Byte returns an 8-bit constant.
func (in *Interner) Byte(b byte) *Term { return in.Const(8, uint64(b)) }

// Int32 returns a 32-bit constant.
func (in *Interner) Int32(v int64) *Term { return in.Const(32, uint64(v)) }

// Var returns a fresh-by-name variable term of the given width. Two Var calls
// with the same name denote the same solver variable.
func (in *Interner) Var(name string, width int) *Term {
	if width < 1 || width > 64 {
		panic(fmt.Sprintf("bv: invalid width %d", width))
	}
	return in.intern(Term{Kind: KVar, Width: width, Name: name})
}

// IsConst reports whether t is a constant, and its value if so.
func (t *Term) IsConst() (uint64, bool) {
	if t.Kind == KConst {
		return t.Val, true
	}
	return 0, false
}

func checkSameWidth(op string, a, b *Term) {
	if a.Width != b.Width {
		panic(fmt.Sprintf("bv: %s width mismatch %d vs %d", op, a.Width, b.Width))
	}
}

// Not returns the bitwise complement of a.
func (in *Interner) Not(a *Term) *Term {
	if v, ok := a.IsConst(); ok {
		return in.Const(a.Width, ^v)
	}
	if a.Kind == KNot {
		return a.A
	}
	return in.intern(Term{Kind: KNot, Width: a.Width, A: a})
}

// And returns the bitwise conjunction of a and b.
func (in *Interner) And(a, b *Term) *Term {
	checkSameWidth("and", a, b)
	av, aok := a.IsConst()
	bv_, bok := b.IsConst()
	switch {
	case aok && bok:
		return in.Const(a.Width, av&bv_)
	case aok && av == 0:
		return a
	case bok && bv_ == 0:
		return b
	case aok && av == maskFor(a.Width):
		return b
	case bok && bv_ == maskFor(a.Width):
		return a
	case a == b:
		return a
	}
	return in.intern(Term{Kind: KAnd, Width: a.Width, A: a, B: b})
}

// Or returns the bitwise disjunction of a and b.
func (in *Interner) Or(a, b *Term) *Term {
	checkSameWidth("or", a, b)
	av, aok := a.IsConst()
	bv_, bok := b.IsConst()
	switch {
	case aok && bok:
		return in.Const(a.Width, av|bv_)
	case aok && av == 0:
		return b
	case bok && bv_ == 0:
		return a
	case aok && av == maskFor(a.Width):
		return a
	case bok && bv_ == maskFor(a.Width):
		return b
	case a == b:
		return a
	}
	return in.intern(Term{Kind: KOr, Width: a.Width, A: a, B: b})
}

// Xor returns the bitwise exclusive-or of a and b.
func (in *Interner) Xor(a, b *Term) *Term {
	checkSameWidth("xor", a, b)
	av, aok := a.IsConst()
	bv_, bok := b.IsConst()
	switch {
	case aok && bok:
		return in.Const(a.Width, av^bv_)
	case aok && av == 0:
		return b
	case bok && bv_ == 0:
		return a
	case a == b:
		return in.Const(a.Width, 0)
	}
	return in.intern(Term{Kind: KXor, Width: a.Width, A: a, B: b})
}

// Add returns a+b (modular).
func (in *Interner) Add(a, b *Term) *Term {
	checkSameWidth("add", a, b)
	av, aok := a.IsConst()
	bv_, bok := b.IsConst()
	switch {
	case aok && bok:
		return in.Const(a.Width, av+bv_)
	case aok && av == 0:
		return b
	case bok && bv_ == 0:
		return a
	}
	// Normalise constant to the right for (x+c)+c' folding.
	if aok {
		a, b = b, a
	}
	if cb, ok := b.IsConst(); ok && a.Kind == KAdd {
		if ca, ok2 := a.B.IsConst(); ok2 {
			return in.Add(a.A, in.Const(a.Width, ca+cb))
		}
	}
	return in.intern(Term{Kind: KAdd, Width: a.Width, A: a, B: b})
}

// Sub returns a-b (modular).
func (in *Interner) Sub(a, b *Term) *Term {
	checkSameWidth("sub", a, b)
	av, aok := a.IsConst()
	bv_, bok := b.IsConst()
	switch {
	case aok && bok:
		return in.Const(a.Width, av-bv_)
	case bok && bv_ == 0:
		return a
	case a == b:
		return in.Const(a.Width, 0)
	case bok:
		return in.Add(a, in.Const(a.Width, -bv_))
	}
	return in.intern(Term{Kind: KSub, Width: a.Width, A: a, B: b})
}

// Ite returns the term equal to a when cond holds and b otherwise.
func (in *Interner) Ite(cond *Bool, a, b *Term) *Term {
	checkSameWidth("ite", a, b)
	switch {
	case cond == True:
		return a
	case cond == False:
		return b
	case a == b:
		return a
	}
	if cond.Kind == BConst {
		if cond.Val {
			return a
		}
		return b
	}
	if in.VNEnabled() {
		// Normalise a negated guard: ¬c ? a : b  ⇒  c ? b : a, so the two
		// spellings of the same mux value-number to one node.
		if cond.Kind == BNot {
			cond, a, b = cond.A, b, a
		}
		// Nested same-guard collapse at construction: inside the then-arm
		// cond is known true, inside the else-arm known false.
		if a.Kind == KIte && a.Cond == cond {
			a = a.A
		}
		if b.Kind == KIte && b.Cond == cond {
			b = b.B
		}
		if a == b {
			return a
		}
	}
	return in.intern(Term{Kind: KIte, Width: a.Width, Cond: cond, A: a, B: b})
}

// ShlC returns a shifted left by the constant k (modular).
func (in *Interner) ShlC(a *Term, k int) *Term {
	if k == 0 {
		return a
	}
	if k >= a.Width {
		return in.Const(a.Width, 0)
	}
	if v, ok := a.IsConst(); ok {
		return in.Const(a.Width, v<<uint(k))
	}
	return in.intern(Term{Kind: KShlC, Width: a.Width, Val: uint64(k), A: a})
}

// LshrC returns a logically shifted right by the constant k.
func (in *Interner) LshrC(a *Term, k int) *Term {
	if k == 0 {
		return a
	}
	if k >= a.Width {
		return in.Const(a.Width, 0)
	}
	if v, ok := a.IsConst(); ok {
		return in.Const(a.Width, v>>uint(k))
	}
	return in.intern(Term{Kind: KLshrC, Width: a.Width, Val: uint64(k), A: a})
}

// AshrC returns a arithmetically shifted right by the constant k.
func (in *Interner) AshrC(a *Term, k int) *Term {
	if k == 0 {
		return a
	}
	if v, ok := a.IsConst(); ok {
		// Sign-extend v at a.Width, shift, re-truncate.
		sv := int64(v<<(64-uint(a.Width))) >> (64 - uint(a.Width))
		if k >= a.Width {
			k = a.Width - 1
		}
		return in.Const(a.Width, uint64(sv>>uint(k)))
	}
	if k >= a.Width {
		k = a.Width - 1
	}
	return in.intern(Term{Kind: KAshrC, Width: a.Width, Val: uint64(k), A: a})
}

// MulC returns a multiplied by the constant c, built from shifts and adds
// (the IR only ever multiplies by constants: gep scales and literal factors).
func (in *Interner) MulC(a *Term, c int64) *Term {
	if v, ok := a.IsConst(); ok {
		return in.Const(a.Width, v*uint64(c))
	}
	neg := c < 0
	u := uint64(c)
	if neg {
		u = uint64(-c)
	}
	acc := in.Const(a.Width, 0)
	for k := 0; k < a.Width && u != 0; k++ {
		if u&1 == 1 {
			acc = in.Add(acc, in.ShlC(a, k))
		}
		u >>= 1
	}
	if neg {
		return in.Sub(in.Const(a.Width, 0), acc)
	}
	return acc
}

// Sext sign-extends a to the given wider width using the xor/sub identity.
func (in *Interner) Sext(a *Term, width int) *Term {
	if width == a.Width {
		return a
	}
	bias := uint64(1) << (a.Width - 1)
	z := in.Zext(a, width)
	return in.Sub(in.Xor(z, in.Const(width, bias)), in.Const(width, bias))
}

// Zext zero-extends a to the given wider width.
func (in *Interner) Zext(a *Term, width int) *Term {
	if width < a.Width {
		panic("bv: zext to narrower width")
	}
	if width == a.Width {
		return a
	}
	if v, ok := a.IsConst(); ok {
		return in.Const(width, v)
	}
	return in.intern(Term{Kind: KZext, Width: width, A: a})
}

// ---- Boolean constructors ----

// BoolConst returns the boolean constant v.
func (in *Interner) BoolConst(v bool) *Bool {
	if v {
		return True
	}
	return False
}

// BoolVar returns a named boolean variable.
func (in *Interner) BoolVar(name string) *Bool { return in.internBool(Bool{Kind: BVar, Name: name}) }

// BNot1 returns the negation of a.
func (in *Interner) BNot1(a *Bool) *Bool {
	switch {
	case a == True:
		return False
	case a == False:
		return True
	case a.Kind == BNot:
		return a.A
	}
	return in.internBool(Bool{Kind: BNot, A: a})
}

// BAnd2 returns the conjunction of a and b.
func (in *Interner) BAnd2(a, b *Bool) *Bool {
	switch {
	case a == False || b == False:
		return False
	case a == True:
		return b
	case b == True:
		return a
	case a == b:
		return a
	}
	return in.internBool(Bool{Kind: BAnd, A: a, B: b})
}

// BOr2 returns the disjunction of a and b.
func (in *Interner) BOr2(a, b *Bool) *Bool {
	switch {
	case a == True || b == True:
		return True
	case a == False:
		return b
	case b == False:
		return a
	case a == b:
		return a
	}
	return in.internBool(Bool{Kind: BOr, A: a, B: b})
}

// BAndAll folds a list of booleans with conjunction.
func (in *Interner) BAndAll(bs ...*Bool) *Bool {
	out := True
	for _, b := range bs {
		out = in.BAnd2(out, b)
	}
	return out
}

// BOrAll folds a list of booleans with disjunction.
func (in *Interner) BOrAll(bs ...*Bool) *Bool {
	out := False
	for _, b := range bs {
		out = in.BOr2(out, b)
	}
	return out
}

// Implies returns a -> b.
func (in *Interner) Implies(a, b *Bool) *Bool { return in.BOr2(in.BNot1(a), b) }

// BIte returns the boolean if-then-else.
func (in *Interner) BIte(c, a, b *Bool) *Bool {
	return in.BOr2(in.BAnd2(c, a), in.BAnd2(in.BNot1(c), b))
}

// Eq returns the atom a = b.
func (in *Interner) Eq(a, b *Term) *Bool {
	checkSameWidth("eq", a, b)
	if a == b {
		return True
	}
	av, aok := a.IsConst()
	bv_, bok := b.IsConst()
	if aok && bok {
		return in.BoolConst(av == bv_)
	}
	return in.internBool(Bool{Kind: BEq, X: a, Y: b})
}

// Ne returns the atom a != b.
func (in *Interner) Ne(a, b *Term) *Bool { return in.BNot1(in.Eq(a, b)) }

// Ult returns the unsigned comparison a < b.
func (in *Interner) Ult(a, b *Term) *Bool {
	checkSameWidth("ult", a, b)
	av, aok := a.IsConst()
	bv_, bok := b.IsConst()
	switch {
	case aok && bok:
		return in.BoolConst(av < bv_)
	case bok && bv_ == 0:
		return False
	case a == b:
		return False
	}
	return in.internBool(Bool{Kind: BUlt, X: a, Y: b})
}

// Ule returns the unsigned comparison a <= b.
func (in *Interner) Ule(a, b *Term) *Bool {
	checkSameWidth("ule", a, b)
	av, aok := a.IsConst()
	bv_, bok := b.IsConst()
	switch {
	case aok && bok:
		return in.BoolConst(av <= bv_)
	case aok && av == 0:
		return True
	case a == b:
		return True
	}
	return in.internBool(Bool{Kind: BUle, X: a, Y: b})
}

// Ugt returns a > b, Uge returns a >= b (unsigned).
func (in *Interner) Ugt(a, b *Term) *Bool { return in.Ult(b, a) }

// Uge returns a >= b (unsigned).
func (in *Interner) Uge(a, b *Term) *Bool { return in.Ule(b, a) }

// Slt returns the signed comparison a < b, implemented by biasing the sign
// bit: a <s b iff (a ^ msb) <u (b ^ msb).
func (in *Interner) Slt(a, b *Term) *Bool {
	checkSameWidth("slt", a, b)
	msb := in.Const(a.Width, uint64(1)<<(a.Width-1))
	return in.Ult(in.Xor(a, msb), in.Xor(b, msb))
}

// Sle returns the signed comparison a <= b.
func (in *Interner) Sle(a, b *Term) *Bool {
	msb := in.Const(a.Width, uint64(1)<<(a.Width-1))
	return in.Ule(in.Xor(a, msb), in.Xor(b, msb))
}

// ---- Concrete evaluation (used for testing and model-based evaluation) ----

// Assignment maps variable names to concrete values (booleans use 0/1).
type Assignment struct {
	Terms map[string]uint64
	Bools map[string]bool
}

// Eval evaluates t under the assignment a; unbound variables evaluate to 0.
// Evaluation is memoized per call, so shared sub-DAGs cost linear time; for
// many evaluations under one assignment, reuse an Evaluator.
func (t *Term) Eval(a *Assignment) uint64 { return NewEvaluator(a).Term(t) }

// Eval evaluates b under the assignment a; unbound boolean variables evaluate
// to false.
func (b *Bool) Eval(a *Assignment) bool { return NewEvaluator(a).Bool(b) }

// Evaluator evaluates terms and formulas under one fixed assignment with
// node-level memoization (expression DAGs share subterms heavily; naive
// recursion is exponential on them).
type Evaluator struct {
	a      *Assignment
	tcache map[*Term]uint64
	bcache map[*Bool]bool
}

// NewEvaluator returns an evaluator for the assignment (nil means all-zero).
func NewEvaluator(a *Assignment) *Evaluator {
	return &Evaluator{a: a, tcache: map[*Term]uint64{}, bcache: map[*Bool]bool{}}
}

// Term evaluates t.
func (e *Evaluator) Term(t *Term) uint64 {
	if t.Kind == KConst {
		return t.Val
	}
	if v, ok := e.tcache[t]; ok {
		return v
	}
	var v uint64
	switch t.Kind {
	case KVar:
		if e.a != nil && e.a.Terms != nil {
			v = e.a.Terms[t.Name] & maskFor(t.Width)
		}
	case KNot:
		v = ^e.Term(t.A) & maskFor(t.Width)
	case KAnd:
		v = e.Term(t.A) & e.Term(t.B)
	case KOr:
		v = e.Term(t.A) | e.Term(t.B)
	case KXor:
		v = e.Term(t.A) ^ e.Term(t.B)
	case KAdd:
		v = (e.Term(t.A) + e.Term(t.B)) & maskFor(t.Width)
	case KSub:
		v = (e.Term(t.A) - e.Term(t.B)) & maskFor(t.Width)
	case KIte:
		if e.Bool(t.Cond) {
			v = e.Term(t.A)
		} else {
			v = e.Term(t.B)
		}
	case KZext:
		v = e.Term(t.A)
	case KShlC:
		v = (e.Term(t.A) << t.Val) & maskFor(t.Width)
	case KLshrC:
		v = e.Term(t.A) >> t.Val
	case KAshrC:
		x := e.Term(t.A)
		sv := int64(x<<(64-uint(t.Width))) >> (64 - uint(t.Width))
		v = uint64(sv>>t.Val) & maskFor(t.Width)
	default:
		panic("bv: unknown term kind")
	}
	e.tcache[t] = v
	return v
}

// Bool evaluates b.
func (e *Evaluator) Bool(b *Bool) bool {
	if b.Kind == BConst {
		return b.Val
	}
	if v, ok := e.bcache[b]; ok {
		return v
	}
	var v bool
	switch b.Kind {
	case BVar:
		if e.a != nil && e.a.Bools != nil {
			v = e.a.Bools[b.Name]
		}
	case BNot:
		v = !e.Bool(b.A)
	case BAnd:
		v = e.Bool(b.A) && e.Bool(b.B)
	case BOr:
		v = e.Bool(b.A) || e.Bool(b.B)
	case BEq:
		v = e.Term(b.X) == e.Term(b.Y)
	case BUlt:
		v = e.Term(b.X) < e.Term(b.Y)
	case BUle:
		v = e.Term(b.X) <= e.Term(b.Y)
	default:
		panic("bv: unknown bool kind")
	}
	e.bcache[b] = v
	return v
}

// ---- Pretty printing (debugging aid) ----

func (t *Term) String() string {
	var sb strings.Builder
	t.write(&sb)
	return sb.String()
}

func (t *Term) write(sb *strings.Builder) {
	switch t.Kind {
	case KConst:
		fmt.Fprintf(sb, "%d:%d", t.Val, t.Width)
	case KVar:
		sb.WriteString(t.Name)
	case KNot:
		sb.WriteString("~")
		t.A.write(sb)
	case KIte:
		sb.WriteString("ite(")
		sb.WriteString(t.Cond.String())
		sb.WriteString(", ")
		t.A.write(sb)
		sb.WriteString(", ")
		t.B.write(sb)
		sb.WriteString(")")
	case KZext:
		fmt.Fprintf(sb, "zext%d(", t.Width)
		t.A.write(sb)
		sb.WriteString(")")
	case KShlC, KLshrC, KAshrC:
		op := map[Kind]string{KShlC: "<<", KLshrC: ">>u", KAshrC: ">>s"}[t.Kind]
		sb.WriteString("(")
		t.A.write(sb)
		fmt.Fprintf(sb, " %s %d)", op, t.Val)
	default:
		op := map[Kind]string{KAnd: "&", KOr: "|", KXor: "^", KAdd: "+", KSub: "-"}[t.Kind]
		sb.WriteString("(")
		t.A.write(sb)
		sb.WriteString(" " + op + " ")
		t.B.write(sb)
		sb.WriteString(")")
	}
}

func (b *Bool) String() string {
	switch b.Kind {
	case BConst:
		if b.Val {
			return "true"
		}
		return "false"
	case BVar:
		return b.Name
	case BNot:
		return "!" + b.A.String()
	case BAnd:
		return "(" + b.A.String() + " && " + b.B.String() + ")"
	case BOr:
		return "(" + b.A.String() + " || " + b.B.String() + ")"
	case BEq:
		return "(" + b.X.String() + " == " + b.Y.String() + ")"
	case BUlt:
		return "(" + b.X.String() + " <u " + b.Y.String() + ")"
	case BUle:
		return "(" + b.X.String() + " <=u " + b.Y.String() + ")"
	}
	return "?"
}
