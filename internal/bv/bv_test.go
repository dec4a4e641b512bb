package bv

import (
	"math/rand"
	"testing"
	"testing/quick"

	"stringloops/internal/sat"
)

func TestConstFolding(t *testing.T) {
	a, b := Byte(0x0f), Byte(0x3c)
	if v, _ := And(a, b).IsConst(); v != 0x0c {
		t.Fatalf("And fold = %x", v)
	}
	if v, _ := Or(a, b).IsConst(); v != 0x3f {
		t.Fatalf("Or fold = %x", v)
	}
	if v, _ := Xor(a, b).IsConst(); v != 0x33 {
		t.Fatalf("Xor fold = %x", v)
	}
	if v, _ := Add(a, b).IsConst(); v != 0x4b {
		t.Fatalf("Add fold = %x", v)
	}
	if v, _ := Sub(b, a).IsConst(); v != 0x2d {
		t.Fatalf("Sub fold = %x", v)
	}
	if v, _ := Not(a).IsConst(); v != 0xf0 {
		t.Fatalf("Not fold = %x", v)
	}
	// Overflow wraps at width.
	if v, _ := Add(Byte(0xff), Byte(1)).IsConst(); v != 0 {
		t.Fatalf("Add wrap = %x", v)
	}
}

func TestLocalRewrites(t *testing.T) {
	x := Var("x", 8)
	if And(x, Byte(0)) != Byte(0) && And(x, Byte(0)).Val != 0 {
		t.Fatal("x & 0 should fold to 0")
	}
	if And(x, Byte(0xff)) != x {
		t.Fatal("x & ff should fold to x")
	}
	if Or(x, Byte(0)) != x {
		t.Fatal("x | 0 should fold to x")
	}
	if Add(x, Byte(0)) != x {
		t.Fatal("x + 0 should fold to x")
	}
	if Not(Not(x)) != x {
		t.Fatal("~~x should fold to x")
	}
	if Xor(x, x).Val != 0 {
		t.Fatal("x ^ x should fold to 0")
	}
	if Sub(x, x).Val != 0 {
		t.Fatal("x - x should fold to 0")
	}
	if Eq(x, x) != True {
		t.Fatal("x == x should fold to true")
	}
	if Ult(x, x) != False {
		t.Fatal("x < x should fold to false")
	}
	if Ule(x, x) != True {
		t.Fatal("x <= x should fold to true")
	}
	// Nested constant addition folds: (x+3)+4 = x+7.
	sum := Add(Add(x, Byte(3)), Byte(4))
	if sum.Kind != KAdd || sum.B.Val != 7 {
		t.Fatalf("nested add did not fold: %v", sum)
	}
}

func TestIteFolding(t *testing.T) {
	x, y := Var("x", 8), Var("y", 8)
	if Ite(True, x, y) != x || Ite(False, x, y) != y {
		t.Fatal("constant-condition ite should fold")
	}
	if Ite(BoolVar("c"), x, x) != x {
		t.Fatal("same-branch ite should fold")
	}
}

func TestBoolFolding(t *testing.T) {
	c := BoolVar("c")
	if BAnd2(True, c) != c || BAnd2(c, False) != False {
		t.Fatal("and folding broken")
	}
	if BOr2(False, c) != c || BOr2(c, True) != True {
		t.Fatal("or folding broken")
	}
	if BNot1(BNot1(c)) != c {
		t.Fatal("double negation should fold")
	}
	if Implies(False, c) != True {
		t.Fatal("false -> c should be true")
	}
}

func solveOne(t *testing.T, f *Bool) *Assignment {
	t.Helper()
	st, model := CheckSat(nil, f)
	if st != sat.Sat {
		t.Fatalf("expected sat, got %v for %v", st, f)
	}
	if !f.Eval(model) {
		t.Fatalf("model does not satisfy formula %v", f)
	}
	return model
}

func TestSolveSimpleEquality(t *testing.T) {
	x := Var("x", 8)
	m := solveOne(t, Eq(x, Byte('A')))
	if m.Terms["x"] != 'A' {
		t.Fatalf("x = %d", m.Terms["x"])
	}
}

func TestSolveArithmetic(t *testing.T) {
	x, y := Var("x", 8), Var("y", 8)
	// x + y == 10 && x < y && x != 0
	f := BAndAll(Eq(Add(x, y), Byte(10)), Ult(x, y), Ne(x, Byte(0)))
	m := solveOne(t, f)
	xv, yv := m.Terms["x"], m.Terms["y"]
	if (xv+yv)&0xff != 10 || xv >= yv || xv == 0 {
		t.Fatalf("bad model x=%d y=%d", xv, yv)
	}
}

func TestSolveUnsatArith(t *testing.T) {
	x := Var("x", 8)
	// x < 5 && x > 10 is unsat.
	st, _ := CheckSat(nil, BAnd2(Ult(x, Byte(5)), Ugt(x, Byte(10))))
	if st != sat.Unsat {
		t.Fatalf("expected unsat, got %v", st)
	}
}

func TestSolveSubtractionBorrow(t *testing.T) {
	x := Var("x", 8)
	// x - 1 == 255 forces x == 0 (wraparound).
	m := solveOne(t, Eq(Sub(x, Byte(1)), Byte(255)))
	if m.Terms["x"] != 0 {
		t.Fatalf("x = %d, want 0", m.Terms["x"])
	}
}

func TestSolve32Bit(t *testing.T) {
	n := Var("n", 32)
	f := BAnd2(Ult(Int32(1000), n), Ult(n, Int32(1003)))
	m := solveOne(t, f)
	if v := m.Terms["n"]; v != 1001 && v != 1002 {
		t.Fatalf("n = %d", v)
	}
}

func TestSolveIte(t *testing.T) {
	c := BoolVar("c")
	x := Var("x", 8)
	// ite(c, x+1, x-1) == 5 && x == 4 forces c true.
	f := BAnd2(Eq(Ite(c, Add(x, Byte(1)), Sub(x, Byte(1))), Byte(5)), Eq(x, Byte(4)))
	m := solveOne(t, f)
	if !m.Bools["c"] {
		t.Fatal("c should be true")
	}
}

func TestSignedComparison(t *testing.T) {
	x := Var("x", 8)
	// Signed: x < 0 && x > -3 (i.e. x in {-2,-1} = {254,255}).
	f := BAnd2(Slt(x, Byte(0)), Slt(Byte(0xfd), x))
	m := solveOne(t, f)
	if v := m.Terms["x"]; v != 0xfe && v != 0xff {
		t.Fatalf("x = %d", v)
	}
	// Sle boundary: 0x80 is INT8_MIN, so x <=s INT8_MIN forces x == INT8_MIN.
	st, _ := CheckSat(nil, BAnd2(Sle(x, Byte(0x80)), Ne(x, Byte(0x80))))
	if st != sat.Unsat {
		t.Fatal("x <=s INT8_MIN with x != INT8_MIN should be unsat")
	}
}

func TestZext(t *testing.T) {
	x := Var("x", 8)
	f := Eq(Zext(x, 32), Int32(200))
	m := solveOne(t, f)
	if m.Terms["x"] != 200 {
		t.Fatalf("x = %d", m.Terms["x"])
	}
	// Zext can never produce a value >= 256.
	st, _ := CheckSat(nil, Eq(Zext(x, 32), Int32(300)))
	if st != sat.Unsat {
		t.Fatal("zext(x,32) == 300 should be unsat")
	}
}

// TestRandomTermEquivalenceProperty builds random terms over two byte
// variables, evaluates them concretely on random inputs, and checks that the
// solver agrees the term equals its concrete value under those inputs.
func TestRandomTermEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var build func(depth int) *Term
	x, y := Var("x", 8), Var("y", 8)
	build = func(depth int) *Term {
		if depth == 0 {
			switch rng.Intn(3) {
			case 0:
				return x
			case 1:
				return y
			default:
				return Byte(byte(rng.Intn(256)))
			}
		}
		a, b := build(depth-1), build(depth-1)
		switch rng.Intn(6) {
		case 0:
			return And(a, b)
		case 1:
			return Or(a, b)
		case 2:
			return Xor(a, b)
		case 3:
			return Add(a, b)
		case 4:
			return Sub(a, b)
		default:
			return Ite(Ult(a, b), a, b)
		}
	}
	for iter := 0; iter < 40; iter++ {
		term := build(3)
		xv, yv := uint64(rng.Intn(256)), uint64(rng.Intn(256))
		want := term.Eval(&Assignment{Terms: map[string]uint64{"x": xv, "y": yv}})
		f := BAndAll(Eq(x, Byte(byte(xv))), Eq(y, Byte(byte(yv))), Eq(term, Byte(byte(want))))
		st, _ := CheckSat(nil, f)
		if st != sat.Sat {
			t.Fatalf("iter %d: solver disagrees with Eval on %v (x=%d y=%d want=%d)", iter, term, xv, yv, want)
		}
		// And that a different value is unsat.
		g := BAndAll(Eq(x, Byte(byte(xv))), Eq(y, Byte(byte(yv))), Eq(term, Byte(byte(want+1))))
		st, _ = CheckSat(nil, g)
		if st != sat.Unsat {
			t.Fatalf("iter %d: solver admits wrong value for %v", iter, term)
		}
	}
}

func TestEvalQuickProperties(t *testing.T) {
	// Commutativity and identities of Eval-level semantics.
	add := func(a, b byte) bool {
		x, y := Byte(a), Byte(b)
		return Add(x, y).Val == Add(y, x).Val
	}
	if err := quick.Check(add, nil); err != nil {
		t.Fatal(err)
	}
	xorInv := func(a, b byte) bool {
		x, y := Byte(a), Byte(b)
		return Xor(Xor(x, y), y).Val == uint64(a)
	}
	if err := quick.Check(xorInv, nil); err != nil {
		t.Fatal(err)
	}
	subAdd := func(a, b byte) bool {
		x, y := Byte(a), Byte(b)
		return Add(Sub(x, y), y).Val == uint64(a)
	}
	if err := quick.Check(subAdd, nil); err != nil {
		t.Fatal(err)
	}
}

func TestShiftsAndMulC(t *testing.T) {
	x := Var("x", 8)
	for _, xv := range []uint64{0, 1, 0x80, 0xff, 0x5a} {
		a := &Assignment{Terms: map[string]uint64{"x": xv}}
		for k := 0; k <= 9; k++ {
			if got, want := ShlC(x, k).Eval(a), (xv<<uint(k))&0xff; got != want {
				t.Fatalf("ShlC(%#x, %d) = %#x, want %#x", xv, k, got, want)
			}
			if got, want := LshrC(x, k).Eval(a), xv>>uint(min(k, 8)); got != want {
				t.Fatalf("LshrC(%#x, %d) = %#x, want %#x", xv, k, got, want)
			}
			sv := int64(int8(xv))
			kk := k
			if kk > 7 {
				kk = 7
			}
			if got, want := AshrC(x, k).Eval(a), uint64(sv>>uint(kk))&0xff; got != want {
				t.Fatalf("AshrC(%#x, %d) = %#x, want %#x", xv, k, got, want)
			}
		}
		for _, c := range []int64{0, 1, 3, 7, -2, 100} {
			if got, want := MulC(x, c).Eval(a), uint64(int64(xv)*c)&0xff; got != want {
				t.Fatalf("MulC(%#x, %d) = %#x, want %#x", xv, c, got, want)
			}
		}
	}
	// Solver agreement for shifts.
	m := solveOne(t, Eq(ShlC(x, 2), Byte(0x54)))
	if v := m.Terms["x"] & 0x3f; v != 0x15 {
		t.Fatalf("shl model x = %#x", m.Terms["x"])
	}
}

func TestSext(t *testing.T) {
	x := Var("x", 8)
	for _, xv := range []uint64{0, 1, 0x7f, 0x80, 0xff} {
		a := &Assignment{Terms: map[string]uint64{"x": xv}}
		want := uint64(int64(int8(xv))) & 0xffffffff
		if got := Sext(x, 32).Eval(a); got != want {
			t.Fatalf("Sext(%#x) = %#x, want %#x", xv, got, want)
		}
	}
	// Solver: sext(x) == -1 (32-bit) forces x == 0xff.
	m := solveOne(t, Eq(Sext(x, 32), Int32(-1)))
	if m.Terms["x"] != 0xff {
		t.Fatalf("sext model x = %#x", m.Terms["x"])
	}
}

func TestInterningSharesStructure(t *testing.T) {
	x := Var("ix", 8)
	a := Add(x, Byte(3))
	b := Add(Var("ix", 8), Byte(3))
	if a != b {
		t.Fatal("structurally equal terms must be pointer-equal")
	}
	c1 := Ult(a, Byte(10))
	c2 := Ult(b, Byte(10))
	if c1 != c2 {
		t.Fatal("structurally equal formulas must be pointer-equal")
	}
	// And therefore the fold x == x fires across construction sites.
	if Eq(a, b) != True {
		t.Fatal("interned equality should fold to true")
	}
}

func TestOneBitWidth(t *testing.T) {
	x := Var("bit", 1)
	m := solveOne(t, Eq(x, Const(1, 1)))
	if m.Terms["bit"] != 1 {
		t.Fatalf("bit = %d", m.Terms["bit"])
	}
	st, _ := CheckSat(nil, BAnd2(Eq(x, Const(1, 1)), Eq(x, Const(1, 0))))
	if st != sat.Unsat {
		t.Fatal("1-bit contradiction should be unsat")
	}
}

func TestSixtyFourBitWidth(t *testing.T) {
	x := Var("wide", 64)
	target := uint64(0xdeadbeefcafe0123)
	m := solveOne(t, Eq(x, Const(64, target)))
	if m.Terms["wide"] != target {
		t.Fatalf("wide = %#x", m.Terms["wide"])
	}
	// 64-bit wraparound.
	m = solveOne(t, Eq(Add(x, Const(64, 1)), Const(64, 0)))
	if m.Terms["wide"] != ^uint64(0) {
		t.Fatalf("wraparound wide = %#x", m.Terms["wide"])
	}
}

func TestDeepSharedDAGEvaluation(t *testing.T) {
	// A DAG with 2^40 paths but only 40 distinct nodes: memoized evaluation
	// must be instant.
	x := Var("x", 32)
	t40 := x
	for i := 0; i < 40; i++ {
		t40 = Add(t40, t40)
	}
	a := &Assignment{Terms: map[string]uint64{"x": 3}}
	want := (uint64(3) << 40) & 0xffffffff
	if got := t40.Eval(a); got != want {
		t.Fatalf("deep DAG eval = %#x, want %#x", got, want)
	}
}

func TestWidthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected width-mismatch panic")
		}
	}()
	Add(Byte(1), Int32(1))
}

func TestVarWidthConflictPanics(t *testing.T) {
	s := NewSolver()
	s.Assert(Eq(Var("w", 8), Byte(1)))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on reusing name at another width")
		}
	}()
	s.Assert(Eq(Var("w", 32), Int32(1)))
}
