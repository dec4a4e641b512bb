package bv

import (
	"context"
	"fmt"
	"testing"

	"stringloops/internal/engine"
)

// sampleVals is the 8-bit value sample used by the brute-force equivalence
// checks below: boundary values plus a few interior points. Full 256^n
// enumeration is overkill for rewrites that are structural, not arithmetic.
var sampleVals = []uint64{0, 1, 2, 5, 9, 10, 11, 127, 128, 254, 255}

// checkEquiv brute-forces f ≡ g over the given 8-bit term variables and
// boolean variables, with an optional filter restricting the checked
// assignments (nil = all). Used to pin that a rewrite is
// equivalence-preserving, not just shape-changing.
func checkEquiv(t *testing.T, f, g *Bool, termVars, boolVars []string, filter func(*Assignment) bool) {
	t.Helper()
	var rec func(a *Assignment, i int)
	rec = func(a *Assignment, i int) {
		if i < len(termVars) {
			for _, v := range sampleVals {
				a.Terms[termVars[i]] = v
				rec(a, i+1)
			}
			return
		}
		bi := i - len(termVars)
		if bi < len(boolVars) {
			for _, v := range []bool{false, true} {
				a.Bools[boolVars[bi]] = v
				rec(a, i+1)
			}
			return
		}
		if filter != nil && !filter(a) {
			return
		}
		if f.Eval(a) != g.Eval(a) {
			t.Fatalf("formulas differ under %v / %v:\n  f = %v\n  g = %v", a.Terms, a.Bools, f, g)
		}
	}
	rec(&Assignment{Terms: map[string]uint64{}, Bools: map[string]bool{}}, 0)
}

// containsIte reports whether any term reachable from f is a KIte node.
func containsIte(f *Bool) bool {
	seenB, seenT := map[*Bool]bool{}, map[*Term]bool{}
	var walkB func(*Bool) bool
	var walkT func(*Term) bool
	walkT = func(t *Term) bool {
		if t == nil || seenT[t] {
			return false
		}
		seenT[t] = true
		if t.Kind == KIte {
			return true
		}
		return walkB(t.Cond) || walkT(t.A) || walkT(t.B)
	}
	walkB = func(b *Bool) bool {
		if b == nil || seenB[b] {
			return false
		}
		seenB[b] = true
		return walkB(b.A) || walkB(b.B) || walkT(b.X) || walkT(b.Y)
	}
	return walkB(f)
}

func TestIteConstructorVNRules(t *testing.T) {
	in := NewInterner()
	c := in.BoolVar("c")
	x, y, z := in.Var("x", 8), in.Var("y", 8), in.Var("z", 8)

	// Negated-guard normalization: ¬c ? x : y and c ? y : x value-number to
	// the same node.
	if in.Ite(in.BNot1(c), x, y) != in.Ite(c, y, x) {
		t.Fatal("negated-guard ite did not normalize to the positive spelling")
	}
	// Nested same-guard collapse, then-arm: c ? (c ? x : y) : z keeps only x.
	if in.Ite(c, in.Ite(c, x, y), z) != in.Ite(c, x, z) {
		t.Fatal("same-guard then-arm did not collapse")
	}
	// Else-arm: c ? x : (c ? y : z) keeps only z — and when that makes the
	// arms equal the whole mux folds away.
	if in.Ite(c, x, in.Ite(c, y, x)) != x {
		t.Fatal("same-guard else-arm collapse should fold the mux to x")
	}

	// With value numbering off the two spellings stay distinct nodes: the
	// PR 6 constructor only had the constant/equal-arm folds.
	off := NewInterner().SetVN(false)
	co := off.BoolVar("c")
	xo, yo := off.Var("x", 8), off.Var("y", 8)
	neg := off.Ite(off.BNot1(co), xo, yo)
	if neg.Cond.Kind != BNot {
		t.Fatal("vn-off ite should keep its negated guard")
	}
	if neg == off.Ite(co, yo, xo) {
		t.Fatal("vn-off spellings should not value-number together")
	}
}

func TestSimplifyFuseAtomIte(t *testing.T) {
	in := NewInterner()
	c := in.BoolVar("c")
	x := in.Var("x", 8)
	// Two values merged under the same path split, then compared: the
	// shared-guard pull-up turns Eq(ite, ite) into a guard-level formula
	// with no residual mux.
	l := in.Ite(c, x, in.Byte(1))
	r := in.Ite(c, in.Byte(3), x)
	f := in.Eq(l, r)
	if !containsIte(f) {
		t.Fatal("test shape already folded at construction; fusion not exercised")
	}
	g := in.SimplifyBool(f)
	if containsIte(g) {
		t.Fatalf("shared-guard Eq fusion left an ite behind: %v", g)
	}
	checkEquiv(t, f, g, []string{"x"}, []string{"c"}, nil)
	if st := in.SimplifyStats(); st.Fusions == 0 {
		t.Fatalf("stats = %+v, want Fusions > 0", st)
	}

	// Same shape with value numbering off: no fusion, no vn counters, but
	// the memo still serves repeat calls with identical results.
	off := NewInterner().SetVN(false)
	co := off.BoolVar("c")
	xo := off.Var("x", 8)
	fo := off.Eq(off.Ite(co, xo, off.Byte(1)), off.Ite(co, off.Byte(3), xo))
	g1 := off.SimplifyBool(fo)
	g2 := off.SimplifyBool(fo)
	if g1 != g2 {
		t.Fatal("vn-off simplify not deterministic across calls")
	}
	if !containsIte(g1) {
		t.Fatal("vn-off simplify fused ites; the PR 6 rewrite set has no fusion")
	}
	if st := off.SimplifyStats(); st.Fusions != 0 || st.VNHits != 0 {
		t.Fatalf("vn-off stats = %+v, want zero Fusions and VNHits", st)
	}
}

func TestSimplifyFuseBinop(t *testing.T) {
	in := NewInterner()
	c := in.BoolVar("c")
	x := in.Var("x", 8)

	// Shared-guard fusion with constant arms folds the op away entirely:
	// (c?1:2) + (c?10:20) ⇒ c ? 11 : 22.
	s := in.SimplifyTerm(in.Add(in.Ite(c, in.Byte(1), in.Byte(2)), in.Ite(c, in.Byte(10), in.Byte(20))))
	if s.Kind != KIte {
		t.Fatalf("fused sum = %v, want an ite", s)
	}
	if a, _ := s.A.IsConst(); a != 11 {
		t.Fatalf("then-arm = %v, want 11", s.A)
	}
	if b, _ := s.B.IsConst(); b != 22 {
		t.Fatalf("else-arm = %v, want 22", s.B)
	}

	// Const distribution over a const-armed ite: (c?1:x) + 5 ⇒ c ? 6 : x+5.
	d := in.SimplifyTerm(in.Add(in.Ite(c, in.Byte(1), x), in.Byte(5)))
	if d.Kind != KIte {
		t.Fatalf("distributed sum = %v, want an ite", d)
	}
	if a, _ := d.A.IsConst(); a != 6 {
		t.Fatalf("then-arm = %v, want 6", d.A)
	}
	if d.B != in.Add(x, in.Byte(5)) {
		t.Fatalf("else-arm = %v, want x+5", d.B)
	}
	if st := in.SimplifyStats(); st.Fusions < 2 {
		t.Fatalf("stats = %+v, want >= 2 fusions", st)
	}
}

func TestSimplifyMemoAndBudgetMirror(t *testing.T) {
	in := NewInterner()
	bud := engine.NewBudget(context.Background(), engine.Limits{})
	in.SetBudget(bud)
	x, y := in.Var("x", 8), in.Var("y", 8)
	f := in.BAnd2(in.Eq(in.Add(x, in.Byte(3)), in.Byte(7)), in.Ult(y, x))

	in.SimplifyBool(f)
	st1 := in.SimplifyStats()
	if st1.Calls != 1 || st1.NodesIn == 0 {
		t.Fatalf("first call stats = %+v", st1)
	}
	// The second call over the same formula is a pure memo hit: no new
	// nodes visited or produced, one vn hit at the root.
	in.SimplifyBool(f)
	st2 := in.SimplifyStats()
	if st2.Calls != 2 {
		t.Fatalf("stats = %+v, want 2 calls", st2)
	}
	if st2.NodesIn != st1.NodesIn || st2.NodesOut != st1.NodesOut {
		t.Fatalf("memoized re-simplify recounted nodes: %+v then %+v", st1, st2)
	}
	if st2.VNHits <= st1.VNHits {
		t.Fatalf("memoized re-simplify recorded no vn hit: %+v then %+v", st1, st2)
	}

	// Every interner counter mirrors 1:1 into engine.Budget — spend
	// reconciliation depends on the two never drifting.
	sp := bud.Spend()
	if sp.SimplifyCalls != st2.Calls || sp.SimplifyNodesIn != st2.NodesIn ||
		sp.SimplifyNodesOut != st2.NodesOut || sp.VNHits != st2.VNHits || sp.IteFusions != st2.Fusions {
		t.Fatalf("budget mirror drifted: budget spend %+v vs stats %+v", sp, st2)
	}
}

func TestPruneUnderCollapsesDecidedGuards(t *testing.T) {
	in := NewInterner()
	x, y := in.Var("x", 8), in.Var("y", 8)
	g := in.Ult(x, in.Byte(10))
	f := in.Eq(y, in.Ite(g, in.Byte(1), in.Byte(2)))

	// Guard known true: the ite collapses to its then-arm.
	rt := in.PruneUnder(f, map[*Bool]bool{g: true})
	if rt != in.Eq(y, in.Byte(1)) {
		t.Fatalf("prune under g=true gave %v", rt)
	}
	// Guard known false: else-arm.
	rf := in.PruneUnder(f, map[*Bool]bool{g: false})
	if rf != in.Eq(y, in.Byte(2)) {
		t.Fatalf("prune under g=false gave %v", rf)
	}
	// The rewrite must preserve equivalence on the models that satisfy the
	// assumption — that is the one-at-a-time soundness contract.
	holds := func(a *Assignment) bool { return g.Eval(a) }
	checkEquiv(t, f, rt, []string{"x", "y"}, nil, holds)

	// A decided guard appearing as a boolean subnode is replaced too.
	other := in.Ult(y, in.Byte(50))
	if r := in.PruneUnder(in.BAnd2(g, other), map[*Bool]bool{g: true}); r != other {
		t.Fatalf("boolean-subnode prune gave %v, want the other conjunct", r)
	}
	if st := in.SimplifyStats(); st.Fusions == 0 {
		t.Fatalf("stats = %+v, want pruning counted as fusions", st)
	}

	// No truth map, nil interner, or vn off: identity.
	if in.PruneUnder(f, nil) != f {
		t.Fatal("empty truth map must be identity")
	}
	off := NewInterner().SetVN(false)
	xo := off.Var("x", 8)
	go_ := off.Ult(xo, off.Byte(10))
	fo := off.BAnd2(go_, off.Ult(off.Var("y", 8), xo))
	if off.PruneUnder(fo, map[*Bool]bool{go_: true}) != fo {
		t.Fatal("vn-off PruneUnder must be identity")
	}
}

func TestPruneUnderDepthCapBoundary(t *testing.T) {
	in := NewInterner()
	g := in.Ult(in.Var("x", 8), in.Byte(10))

	// chainOver builds a left-deep conjunction with g exactly `levels` BAnd
	// nodes below the root.
	chainOver := func(levels int) *Bool {
		f := g
		for i := 0; i < levels; i++ {
			f = in.BAnd2(f, in.BoolVar(fmt.Sprintf("b%d", i)))
		}
		return f
	}

	// At nesting level maxPruneDepth the walk arrives at g with depth 0 —
	// the truth-map check runs before the depth check, so the prune still
	// fires.
	at := chainOver(maxPruneDepth)
	if r := in.PruneUnder(at, map[*Bool]bool{g: true}); r == at {
		t.Fatalf("decided guard at the cap boundary (depth %d) was not pruned", maxPruneDepth)
	}
	// One level deeper the walk never reaches g: the conjunct is returned
	// unchanged (pointer-identical), which is the sound skip.
	below := chainOver(maxPruneDepth + 1)
	if r := in.PruneUnder(below, map[*Bool]bool{g: true}); r != below {
		t.Fatalf("guard below the cap was rewritten; the capped walk should skip it")
	}
}

func TestPruneUnderIteGuardSubformula(t *testing.T) {
	// The pruned guard can sit on an ite inside a term: x < 10 assumed true
	// collapses ite(x<10, y, 0) inside a comparison.
	in := NewInterner()
	x, y := in.Var("x", 8), in.Var("y", 8)
	g := in.Ult(x, in.Byte(10))
	f := in.Eq(in.Ite(g, y, in.Byte(0)), in.Byte(5))
	r := in.PruneUnder(f, map[*Bool]bool{g: true})
	if r != in.Eq(y, in.Byte(5)) {
		t.Fatalf("ite-guard prune gave %v, want y == 5", r)
	}
	holds := func(a *Assignment) bool { return g.Eval(a) }
	checkEquiv(t, f, r, []string{"x", "y"}, nil, holds)
}

func TestBlastCacheHits(t *testing.T) {
	in := NewInterner()
	x := in.Var("x", 8)
	shared := in.Ult(x, in.Byte(100))
	f1 := in.BAnd2(shared, in.Eq(x, in.Byte(3)))
	f2 := in.BAnd2(shared, in.Eq(x, in.Byte(4)))

	s := NewSolver()
	s.Lit(f1)
	h1 := s.BlastHits()
	// f2 shares the x<100 subformula (and x's bit vector): encoding it must
	// reuse the cached CNF, not re-emit it.
	s.Lit(f2)
	h2 := s.BlastHits()
	if h2 <= h1 {
		t.Fatalf("shared subformula re-encoded: hits %d then %d", h1, h2)
	}
	// Re-encoding f1 wholesale is a single O(1) root hit.
	s.Lit(f1)
	if s.BlastHits() != h2+1 {
		t.Fatalf("whole-formula re-encode hits = %d, want %d", s.BlastHits(), h2+1)
	}
}
