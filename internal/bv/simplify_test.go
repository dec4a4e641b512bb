package bv

import (
	"math/rand"
	"testing"
)

func TestSimplifyEqAddIdentity(t *testing.T) {
	in := NewInterner()
	x := in.Var("x", 8)
	f := in.Eq(in.Add(x, in.Byte(5)), in.Byte(12))
	got := in.SimplifyBool(f)
	want := in.Eq(x, in.Byte(7))
	if got != want {
		t.Fatalf("x+5=12 simplified to %v, want %v", got, want)
	}
	// Modular: x+250 = 4 ⇒ x = 10 (mod 256).
	f2 := in.Eq(in.Add(x, in.Byte(250)), in.Byte(4))
	if got := in.SimplifyBool(f2); got != in.Eq(x, in.Byte(10)) {
		t.Fatalf("x+250=4 simplified to %v, want x=10", got)
	}
}

func TestSimplifyEqSubIdentity(t *testing.T) {
	in := NewInterner()
	a, b := in.Var("a", 8), in.Var("b", 8)
	f := in.Eq(in.Sub(a, b), in.Byte(0))
	if got, want := in.SimplifyBool(f), in.Eq(a, b); got != want {
		t.Fatalf("a-b=0 simplified to %v, want %v", got, want)
	}
}

func TestSimplifyItePushAgainstConst(t *testing.T) {
	in := NewInterner()
	c := in.BoolVar("c")
	x := in.Var("x", 8)
	// (c ? 0 : x) = 0  ⇒  c ∨ x=0
	f := in.Eq(in.Ite(c, in.Byte(0), x), in.Byte(0))
	if got, want := in.SimplifyBool(f), in.BOr2(c, in.Eq(x, in.Byte(0))); got != want {
		t.Fatalf("(c?0:x)=0 simplified to %v, want %v", got, want)
	}
	// (c ? 7 : x) = 0  ⇒  ¬c ∧ x=0
	f2 := in.Eq(in.Ite(c, in.Byte(7), x), in.Byte(0))
	want2 := in.BAnd2(in.BNot1(c), in.Eq(x, in.Byte(0)))
	if got := in.SimplifyBool(f2); got != want2 {
		t.Fatalf("(c?7:x)=0 simplified to %v, want %v", got, want2)
	}
}

func TestSimplifyNestedSameGuardIte(t *testing.T) {
	in := NewInterner()
	c := in.BoolVar("c")
	a, b, d := in.Var("a", 8), in.Var("b", 8), in.Var("d", 8)
	// c ? a : (c ? b : d)  ⇒  c ? a : d
	f := in.Ite(c, a, in.Ite(c, b, d))
	if got, want := in.SimplifyTerm(f), in.Ite(c, a, d); got != want {
		t.Fatalf("nested ite simplified to %v, want %v", got, want)
	}
}

func TestSimplifyComplementLiterals(t *testing.T) {
	in := NewInterner()
	a := in.BoolVar("a")
	// Build via raw interning so the constructor fast paths don't pre-fold.
	and := in.internBool(Bool{Kind: BAnd, A: a, B: in.BNot1(a)})
	if got := in.SimplifyBool(and); got != False {
		t.Fatalf("a∧¬a simplified to %v, want false", got)
	}
	or := in.internBool(Bool{Kind: BOr, A: in.BNot1(a), B: a})
	if got := in.SimplifyBool(or); got != True {
		t.Fatalf("¬a∨a simplified to %v, want true", got)
	}
}

// TestSimplifyMergedGuardChainShrinks builds the shape state merging emits —
// a selectByte-style ite chain compared against a constant — and checks the
// pass collapses it when the offset is concrete, and shrinks it otherwise.
func TestSimplifyMergedGuardChainShrinks(t *testing.T) {
	in, bud := countingInterner()
	off := in.Var("off", 32)
	chain := in.Byte(0)
	for i := 7; i >= 0; i-- {
		chain = in.Ite(in.Eq(off, in.Int32(int64(i))), in.Var("s"+string(rune('0'+i)), 8), chain)
	}
	f := in.Eq(chain, in.Byte(0))
	got := in.SimplifyBool(f)
	if CountBoolNodes(got) > CountBoolNodes(f) {
		t.Fatalf("simplify grew the formula: %d -> %d nodes", CountBoolNodes(f), CountBoolNodes(got))
	}
	st := bud.Spend()
	if st.SimplifyCalls == 0 || st.SimplifyNodesIn == 0 {
		t.Fatalf("stats not recorded: %+v", st)
	}
}

// TestSimplifyEquivalenceRandom cross-checks simplify against the concrete
// evaluator on randomly generated formulas and assignments: for every
// formula f and assignment σ, σ ⊨ f iff σ ⊨ simplify(f).
func TestSimplifyEquivalenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	in := NewInterner()
	vars := []string{"a", "b", "c", "d"}
	bvars := []string{"p", "q"}

	var genTerm func(depth int) *Term
	var genBool func(depth int) *Bool
	genTerm = func(depth int) *Term {
		if depth <= 0 || rng.Intn(4) == 0 {
			if rng.Intn(2) == 0 {
				return in.Byte(byte(rng.Intn(256)))
			}
			return in.Var(vars[rng.Intn(len(vars))], 8)
		}
		switch rng.Intn(6) {
		case 0:
			return in.Add(genTerm(depth-1), genTerm(depth-1))
		case 1:
			return in.Sub(genTerm(depth-1), genTerm(depth-1))
		case 2:
			return in.And(genTerm(depth-1), genTerm(depth-1))
		case 3:
			return in.Xor(genTerm(depth-1), genTerm(depth-1))
		case 4:
			return in.Ite(genBool(depth-1), genTerm(depth-1), genTerm(depth-1))
		default:
			return in.Not(genTerm(depth - 1))
		}
	}
	genBool = func(depth int) *Bool {
		if depth <= 0 || rng.Intn(4) == 0 {
			if rng.Intn(3) == 0 {
				return in.BoolVar(bvars[rng.Intn(len(bvars))])
			}
			return in.Eq(genTerm(0), genTerm(0))
		}
		switch rng.Intn(6) {
		case 0:
			return in.BAnd2(genBool(depth-1), genBool(depth-1))
		case 1:
			return in.BOr2(genBool(depth-1), genBool(depth-1))
		case 2:
			return in.BNot1(genBool(depth - 1))
		case 3:
			return in.Eq(genTerm(depth-1), genTerm(depth-1))
		case 4:
			return in.Ult(genTerm(depth-1), genTerm(depth-1))
		default:
			return in.Ule(genTerm(depth-1), genTerm(depth-1))
		}
	}

	for i := 0; i < 300; i++ {
		f := genBool(4)
		g := in.SimplifyBool(f)
		for j := 0; j < 16; j++ {
			a := &Assignment{Terms: map[string]uint64{}, Bools: map[string]bool{}}
			for _, v := range vars {
				a.Terms[v] = uint64(rng.Intn(256))
			}
			for _, v := range bvars {
				a.Bools[v] = rng.Intn(2) == 0
			}
			if f.Eval(a) != g.Eval(a) {
				t.Fatalf("formula %d: simplify changed semantics under %v:\n  orig: %v\n  simp: %v", i, a, f, g)
			}
		}
	}
}

// TestSimplifyIdempotentAndMemoized pins that simplifying an already
// simplified formula is the identity (and hits the memo).
func TestSimplifyIdempotentAndMemoized(t *testing.T) {
	in := NewInterner()
	x := in.Var("x", 8)
	c := in.BoolVar("c")
	f := in.Eq(in.Ite(c, in.Byte(3), in.Add(x, in.Byte(1))), in.Byte(3))
	g := in.SimplifyBool(f)
	if gg := in.SimplifyBool(g); gg != g {
		t.Fatalf("simplify not idempotent: %v -> %v", g, gg)
	}
	if g2 := in.SimplifyBool(f); g2 != g {
		t.Fatalf("memo miss: same input gave %v then %v", g, g2)
	}
}

type nodeCounter struct {
	bools map[*Bool]bool
	terms map[*Term]bool
}

func (c *nodeCounter) boolNode(b *Bool) {
	if b == nil || c.bools[b] {
		return
	}
	c.bools[b] = true
	switch b.Kind {
	case BNot, BAnd, BOr:
		c.boolNode(b.A)
		c.boolNode(b.B)
	case BEq, BUlt, BUle:
		c.termNode(b.X)
		c.termNode(b.Y)
	}
}

func (c *nodeCounter) termNode(t *Term) {
	if t == nil || c.terms[t] {
		return
	}
	c.terms[t] = true
	c.boolNode(t.Cond)
	c.termNode(t.A)
	c.termNode(t.B)
}

// CountBoolNodes returns the number of distinct DAG nodes (terms and bools)
// reachable from f.
func CountBoolNodes(f *Bool) int64 {
	c := &nodeCounter{bools: map[*Bool]bool{}, terms: map[*Term]bool{}}
	c.boolNode(f)
	return int64(len(c.bools) + len(c.terms))
}
