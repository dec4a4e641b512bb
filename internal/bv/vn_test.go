package bv

import (
	"fmt"
	"math/rand"
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
}

func TestSimplifyFuseAtomIte(t *testing.T) {
	in, bud := countingInterner()
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
	if st := bud.Spend(); st.IteFusions == 0 {
		t.Fatalf("stats = %+v, want Fusions > 0", st)
	}
}

func TestSimplifyFuseBinop(t *testing.T) {
	in, bud := countingInterner()
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
	if st := bud.Spend(); st.IteFusions < 2 {
		t.Fatalf("stats = %+v, want >= 2 fusions", st)
	}
}

// countingInterner returns an interner whose simplifier and pruning work is
// charged to a fresh budget, the one place those counts are kept.
func countingInterner() (*Interner, *engine.Budget) {
	b := engine.NewBudget(nil, engine.Limits{})
	return NewInterner().SetBudget(b), b
}

func TestSimplifyMemoAndBudgetMirror(t *testing.T) {
	in, bud := countingInterner()
	x, y := in.Var("x", 8), in.Var("y", 8)
	f := in.BAnd2(in.Eq(in.Add(x, in.Byte(3)), in.Byte(7)), in.Ult(y, x))

	in.SimplifyBool(f)
	st1 := bud.Spend()
	if st1.SimplifyCalls != 1 || st1.SimplifyNodesIn == 0 {
		t.Fatalf("first call stats = %+v", st1)
	}
	// The second call over the same formula is a pure memo hit: no new
	// nodes visited or produced, one vn hit at the root.
	in.SimplifyBool(f)
	st2 := bud.Spend()
	if st2.SimplifyCalls != 2 {
		t.Fatalf("stats = %+v, want 2 calls", st2)
	}
	if st2.SimplifyNodesIn != st1.SimplifyNodesIn || st2.SimplifyNodesOut != st1.SimplifyNodesOut {
		t.Fatalf("memoized re-simplify recounted nodes: %+v then %+v", st1, st2)
	}
	if st2.VNHits <= st1.VNHits {
		t.Fatalf("memoized re-simplify recorded no vn hit: %+v then %+v", st1, st2)
	}

	// A pruning pass is not a simplifier call, but its fusions are counted.
	g := in.Ult(x, in.Byte(10))
	conj := []*Bool{in.Eq(y, in.Ite(g, in.Byte(1), in.Byte(2))), g}
	if !in.PruneConjuncts(conj) {
		t.Fatal("decided guard was not pruned")
	}
	st2 = bud.Spend()
	if st2.SimplifyCalls != 2 || st2.IteFusions == 0 {
		t.Fatalf("stats after pruning = %+v, want 2 calls and a fusion", st2)
	}
}

// pruneUnder prunes f under the other conjuncts: it runs PruneConjuncts on
// f ∧ others, f first, and returns f's pruned version.
func pruneUnder(in *Interner, f *Bool, others ...*Bool) *Bool {
	conj := append([]*Bool{f}, others...)
	in.PruneConjuncts(conj)
	return conj[0]
}

func TestPruneUnderCollapsesDecidedGuards(t *testing.T) {
	in, bud := countingInterner()
	x, y := in.Var("x", 8), in.Var("y", 8)
	g := in.Ult(x, in.Byte(10))
	f := in.Eq(y, in.Ite(g, in.Byte(1), in.Byte(2)))

	// Guard known true: the ite collapses to its then-arm.
	rt := pruneUnder(in, f, g)
	if rt != in.Eq(y, in.Byte(1)) {
		t.Fatalf("prune under g gave %v", rt)
	}
	// Guard known false (a negated conjunct): else-arm.
	rf := pruneUnder(in, f, in.BNot1(g))
	if rf != in.Eq(y, in.Byte(2)) {
		t.Fatalf("prune under ¬g gave %v", rf)
	}
	// The rewrite must preserve equivalence on the models that satisfy the
	// assumption — that is the one-at-a-time soundness contract.
	holds := func(a *Assignment) bool { return g.Eval(a) }
	checkEquiv(t, f, rt, []string{"x", "y"}, nil, holds)

	// A decided guard appearing as a boolean subnode is replaced too.
	other := in.Ult(y, in.Byte(50))
	if r := pruneUnder(in, in.BAnd2(g, other), g); r != other {
		t.Fatalf("boolean-subnode prune gave %v, want the other conjunct", r)
	}
	if st := bud.Spend(); st.IteFusions == 0 {
		t.Fatalf("stats = %+v, want pruning counted as fusions", st)
	}

	// A lone conjunct has nothing to be pruned under.
	if pruneUnder(in, f) != f {
		t.Fatal("a single conjunct must be left unchanged")
	}
}

func TestPruneConjunctsSequentialLastWins(t *testing.T) {
	in, bud := countingInterner()
	x, y := in.Var("x", 8), in.Var("y", 8)
	g := in.Ult(x, in.Byte(10))
	f := in.Eq(y, in.Ite(g, in.Byte(1), in.Byte(2)))

	// Both g and ¬g decide g; the later conjunct's value is the one used.
	if r := pruneUnder(in, f, g, in.BNot1(g)); r != in.Eq(y, in.Byte(2)) {
		t.Fatalf("later ¬g should win, got %v", r)
	}
	if r := pruneUnder(in, f, in.BNot1(g), g); r != in.Eq(y, in.Byte(1)) {
		t.Fatalf("later g should win, got %v", r)
	}

	// Later passes see the pruned versions of earlier conjuncts: the first
	// conjunct g ∧ h becomes h under g, and only that pruned h decides the
	// guard of the third.
	h := in.Ult(y, in.Byte(50))
	z := in.Var("z", 8)
	fh := in.Eq(z, in.Ite(h, in.Byte(1), in.Byte(2)))
	conj := []*Bool{in.BAnd2(g, h), g, fh}
	in.PruneConjuncts(conj)
	if conj[0] != h {
		t.Fatalf("first pass gave %v, want %v", conj[0], h)
	}
	if conj[2] != in.Eq(z, in.Byte(1)) {
		t.Fatalf("third pass gave %v; the pruned first conjunct should decide its guard", conj[2])
	}
	// No conjunct decides anything inside f here: the pass is the identity
	// and counts no fusion.
	before := bud.Spend().IteFusions
	conj = []*Bool{f, h}
	in.PruneConjuncts(conj)
	if conj[0] != f || conj[1] != h || bud.Spend().IteFusions != before {
		t.Fatalf("undecided conjunction was rewritten: %v", conj)
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
	// the decided-node check runs before the depth check, so the prune
	// still fires.
	at := chainOver(maxPruneDepth)
	if r := pruneUnder(in, at, g); r == at {
		t.Fatalf("decided guard at the cap boundary (depth %d) was not pruned", maxPruneDepth)
	}
	// One level deeper the walk never reaches g: the conjunct is returned
	// unchanged (pointer-identical), which is the sound skip.
	below := chainOver(maxPruneDepth + 1)
	if r := pruneUnder(in, below, g); r != below {
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
	r := pruneUnder(in, f, g)
	if r != in.Eq(y, in.Byte(5)) {
		t.Fatalf("ite-guard prune gave %v, want y == 5", r)
	}
	holds := func(a *Assignment) bool { return g.Eval(a) }
	checkEquiv(t, f, r, []string{"x", "y"}, nil, holds)
}

// randomConjunction draws k conjuncts over a small pool of atoms — bare,
// negated, combined and used as ite guards — so conjuncts often contain,
// repeat or negate one another's nodes.
func randomConjunction(in *Interner, rng *rand.Rand, k int) []*Bool {
	x, y := in.Var("x", 8), in.Var("y", 8)
	atoms := []*Bool{in.Ult(x, in.Byte(10)), in.Eq(y, in.Byte(3)), in.BoolVar("p"), in.Ule(y, x)}
	var node func(d int) *Bool
	node = func(d int) *Bool {
		if d == 0 {
			a := atoms[rng.Intn(len(atoms))]
			if rng.Intn(2) == 0 {
				return in.BNot1(a)
			}
			return a
		}
		switch rng.Intn(4) {
		case 0:
			return in.BNot1(node(d - 1))
		case 1:
			return in.BAnd2(node(d-1), node(d-1))
		case 2:
			return in.BOr2(node(d-1), node(d-1))
		default:
			return in.Eq(in.Ite(node(d-1), x, in.Byte(byte(rng.Intn(4)))), in.Byte(2))
		}
	}
	conj := make([]*Bool, k)
	for i := range conj {
		conj[i] = node(rng.Intn(3))
	}
	return conj
}

// boolNodes lists every boolean node reachable from conj, ite guards
// included.
func boolNodes(conj []*Bool) []*Bool {
	seenB, seenT := map[*Bool]bool{}, map[*Term]bool{}
	var out []*Bool
	var walkB func(*Bool)
	var walkT func(*Term)
	walkT = func(t *Term) {
		if t == nil || seenT[t] {
			return
		}
		seenT[t] = true
		walkB(t.Cond)
		walkT(t.A)
		walkT(t.B)
	}
	walkB = func(b *Bool) {
		if b == nil || seenB[b] {
			return
		}
		seenB[b] = true
		out = append(out, b)
		walkB(b.A)
		walkB(b.B)
		walkT(b.X)
		walkT(b.Y)
	}
	for _, cj := range conj {
		walkB(cj)
	}
	return out
}

// TestPrunerMatchesTruthMaps replays PruneConjuncts pass by pass against
// the truth-map formulation of guard pruning — for pass i, a map filled in
// conjunct order with every other conjunct true and the operand of every
// negated one false. At every pass the decider lookup must agree with that
// map on every node, and a conjunct the probe skips must be one the full
// walk leaves unchanged without counting a fusion.
func TestPrunerMatchesTruthMaps(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var skipped, rewritten int
	for round := 0; round < 300; round++ {
		in := NewInterner()
		conj := randomConjunction(in, rng, 2+rng.Intn(6))
		want := append([]*Bool(nil), conj...)
		in.PruneConjuncts(want)

		p := &pruner{in: in, conj: conj, bools: &in.pruneBools, terms: &in.pruneTerms}
		for _, cj := range conj {
			p.count(cj, 1)
		}
		for i, cj := range conj {
			truth := map[*Bool]bool{}
			for j, o := range conj {
				if j == i {
					continue
				}
				truth[o] = true
				if o.Kind == BNot {
					truth[o.A] = false
				}
			}
			p.self, p.probes = i, maxPruneProbes
			for _, b := range boolNodes(conj) {
				v, ok := p.decided(b)
				tv, tok := truth[b]
				if ok != tok || v != tv {
					t.Fatalf("round %d pass %d: decided(%v) = %v,%v, truth map says %v,%v", round, i, b, v, ok, tv, tok)
				}
			}
			may := p.mayDecideBool(cj, maxPruneDepth)
			p.bools.Reset()
			p.terms.Reset()
			f0 := in.tally.fusions
			r := p.boolNode(cj, maxPruneDepth)
			if !may && (r != cj || in.tally.fusions != f0) {
				t.Fatalf("round %d pass %d: probe skipped a conjunct the walk rewrites: %v -> %v", round, i, cj, r)
			}
			if !may {
				skipped++
			}
			if r != cj {
				rewritten++
				p.count(cj, -1)
				p.count(r, 1)
				conj[i] = r
			}
		}
		for i := range conj {
			if conj[i] != want[i] {
				t.Fatalf("round %d: replay gave conjunct %d = %v, PruneConjuncts gave %v", round, i, conj[i], want[i])
			}
		}
	}
	if skipped == 0 || rewritten == 0 {
		t.Fatalf("stream exercised %d skipped and %d rewritten passes; want both", skipped, rewritten)
	}
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
