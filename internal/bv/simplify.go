package bv

import "stringloops/internal/engine"

// Rewrite-before-blast simplification. State merging builds deeply nested
// ite terms (one per merged variable per join), and the guards of those ites
// are compared against constants by the very next loop iteration — shapes
// the local smart-constructor rewrites cannot see because they only look one
// node deep at construction time. SimplifyBool re-traverses a formula
// bottom-up through the constructors (re-applying every local fold to
// already-built nodes) and adds the non-local rules that matter for merged
// path conditions:
//
//   - eq/add identities:      x+c1 = c2   ⇒  x = c2-c1   (modular, exact)
//     and                     a-b  = c    ⇒  a = b+c
//   - ite-vs-constant pushes: (c ? k1 : e) = k2  ⇒  c ∨ (e=k2)   [k1 = k2]
//     and                                        ⇒  ¬c ∧ (e=k2)  [k1 ≠ k2]
//     (same for unsigned < and <=, both operand sides)
//   - nested same-guard ites: c ? a : (c ? _ : b)  ⇒  c ? a : b
//   - complement literals:    a ∧ ¬a ⇒ false,  a ∨ ¬a ⇒ true
//
// Results are memoized per interner, in tables indexed by node number
// (dense.go), so the incremental query streams the qcache layer produces
// (each query extending the last by one conjunct) pay only for their new
// suffix. Simplification is equivalence-preserving: a variable can only
// disappear from a formula when its value is a don't-care, so models of the
// simplified formula extend to models of the original by zero-filling —
// exactly the convention the qcache model-restriction code already uses.

// simpTally is the work of one top-level simplifier or pruning call. Node
// accounting piggybacks on the memoized traversal: nodesIn counts each
// distinct input node the first time the simplifier visits it, nodesOut each
// distinct result node the first time the simplifier produces it. Counting a
// node only once per interner keeps repeated calls over a growing path
// condition O(new suffix) instead of O(whole DAG) per call — the cost a
// separate counting pass would reintroduce.
type simpTally struct {
	calls    int64 // top-level SimplifyBool/SimplifyTerm invocations
	nodesIn  int64 // distinct DAG nodes visited
	nodesOut int64 // distinct DAG nodes produced
	hits     int64 // simplification memo-table hits (value numbering)
	fusions  int64 // ite-aware rewrites: fusions, pull-ups, guard prunes
}

// simpEntry is a node's row in the simplifier memo: the node it simplifies
// to (nil until the simplifier has visited it), and whether the simplifier
// has produced the node itself as a result.
type simpEntry[N any] struct {
	to  *N
	out bool
}

// simpExit charges the call's tally to the interner budget, the only place
// the counts are kept, clears it and releases simpMu, which the caller
// holds. The charge happens after simpMu is released (budget adds are
// atomic, and taking the charge outside simpMu keeps the lock order simpMu
// → mu one-way).
func (in *Interner) simpExit() {
	t := in.tally
	in.tally = simpTally{}
	in.simpMu.Unlock()
	b := in.budgetNow()
	b.Add(engine.SimplifyCalls, t.calls)
	b.Add(engine.SimplifyNodesIn, t.nodesIn)
	b.Add(engine.SimplifyNodesOut, t.nodesOut)
	b.Add(engine.VNHits, t.hits)
	b.Add(engine.IteFusions, t.fusions)
}

// SimplifyBool returns a formula equivalent to b, rewritten bottom-up.
// A memoized call — including one whose children are all memoized — costs
// O(new nodes), not O(DAG): the fast path callers like symex feasibility
// checks rely on re-simplifying a grown path condition paying only for the
// new suffix.
func (in *Interner) SimplifyBool(b *Bool) *Bool {
	in.simpMu.Lock()
	r := in.simpBool(b)
	in.tally.calls++
	in.simpExit()
	return r
}

// SimplifyTerm returns a term equivalent to t, rewritten bottom-up.
func (in *Interner) SimplifyTerm(t *Term) *Term {
	in.simpMu.Lock()
	r := in.simpTerm(t)
	in.tally.calls++
	in.simpExit()
	return r
}

// simpBool is the memoized recursive worker. Caller holds simpMu.
func (in *Interner) simpBool(b *Bool) *Bool {
	e := in.simpBools.At(b.num)
	if e.to != nil {
		in.tally.hits++
		return e.to
	}
	in.tally.nodesIn++
	var r *Bool
	switch b.Kind {
	case BConst, BVar:
		r = b
	case BNot:
		r = in.BNot1(in.simpBool(b.A))
	case BAnd:
		x, y := in.simpBool(b.A), in.simpBool(b.B)
		if complementary(x, y) {
			r = False
		} else {
			r = in.BAnd2(x, y)
		}
	case BOr:
		x, y := in.simpBool(b.A), in.simpBool(b.B)
		if complementary(x, y) {
			r = True
		} else {
			r = in.BOr2(x, y)
		}
	case BEq:
		r = in.simpEq(in.simpTerm(b.X), in.simpTerm(b.Y))
	case BUlt:
		r = in.simpUlt(in.simpTerm(b.X), in.simpTerm(b.Y))
	case BUle:
		r = in.simpUle(in.simpTerm(b.X), in.simpTerm(b.Y))
	default:
		r = b
	}
	e.to = r
	if o := in.simpBools.At(r.num); !o.out {
		o.out = true
		in.tally.nodesOut++
	}
	return r
}

// complementary reports a == ¬b (by pointer, valid per-interner).
func complementary(a, b *Bool) bool {
	return (a.Kind == BNot && a.A == b) || (b.Kind == BNot && b.A == a)
}

// simpEq builds x = y with the eq/add, eq/sub, and ite-push rules. Arguments
// are already simplified; every recursive call strictly shrinks one side, so
// the rewrite terminates.
func (in *Interner) simpEq(x, y *Term) *Bool {
	if r, ok := in.fuseAtomIte(in.simpEq, x, y); ok {
		return r
	}
	// Normalise the constant (if any) to the right.
	if _, ok := x.IsConst(); ok {
		x, y = y, x
	}
	if yv, yok := y.IsConst(); yok {
		// x+c1 = c2  ⇒  x = c2-c1 (Add keeps its constant in B).
		if x.Kind == KAdd {
			if c1, ok := x.B.IsConst(); ok {
				return in.simpEq(x.A, in.Const(x.Width, yv-c1))
			}
		}
		// a-b = c  ⇒  a = b+c (both symbolic; Sub folds constant operands).
		if x.Kind == KSub {
			return in.simpEq(x.A, in.Add(x.B, y))
		}
		if r, ok := in.pushAtomIntoIte(in.simpEq, x, y); ok {
			return r
		}
	}
	return in.Eq(x, y)
}

func (in *Interner) simpUlt(x, y *Term) *Bool {
	if r, ok := in.fuseAtomIte(in.simpUlt, x, y); ok {
		return r
	}
	if _, ok := y.IsConst(); ok {
		if r, ok := in.pushAtomIntoIte(in.simpUlt, x, y); ok {
			return r
		}
	}
	if _, ok := x.IsConst(); ok {
		if r, ok := in.pushAtomIntoIteRight(in.simpUlt, x, y); ok {
			return r
		}
	}
	return in.Ult(x, y)
}

func (in *Interner) simpUle(x, y *Term) *Bool {
	if r, ok := in.fuseAtomIte(in.simpUle, x, y); ok {
		return r
	}
	if _, ok := y.IsConst(); ok {
		if r, ok := in.pushAtomIntoIte(in.simpUle, x, y); ok {
			return r
		}
	}
	if _, ok := x.IsConst(); ok {
		if r, ok := in.pushAtomIntoIteRight(in.simpUle, x, y); ok {
			return r
		}
	}
	return in.Ule(x, y)
}

// fuseAtomIte is the comparison-level shared-guard pull-up:
// atom(ite(c,a1,b1), ite(c,a2,b2)) ⇒ c ? atom(a1,a2) : atom(b1,b2). Both
// recursive calls strictly shrink both sides, so the rewrite terminates, and
// comparisons between two values merged under the same path split collapse
// to a per-branch comparison — typically constant-folding at least one arm.
func (in *Interner) fuseAtomIte(atom func(a, b *Term) *Bool, x, y *Term) (*Bool, bool) {
	if x.Kind != KIte || y.Kind != KIte || x.Cond != y.Cond {
		return nil, false
	}
	in.tally.fusions++
	return in.condBool(x.Cond, atom(x.A, y.A), atom(x.B, y.B)), true
}

// pushAtomIntoIte rewrites atom(ite(c,a,b), k) into a guard-level formula
// when at least one ite arm is constant (so one branch of the push folds to
// a boolean constant and the result strictly shrinks). Returns ok=false when
// the shape does not apply.
func (in *Interner) pushAtomIntoIte(atom func(a, b *Term) *Bool, x, y *Term) (*Bool, bool) {
	if x.Kind != KIte {
		return nil, false
	}
	_, aok := x.A.IsConst()
	_, bok := x.B.IsConst()
	if !aok && !bok {
		return nil, false
	}
	return in.condBool(x.Cond, atom(x.A, y), atom(x.B, y)), true
}

// pushAtomIntoIteRight is pushAtomIntoIte for atom(k, ite(c,a,b)).
func (in *Interner) pushAtomIntoIteRight(atom func(a, b *Term) *Bool, x, y *Term) (*Bool, bool) {
	if y.Kind != KIte {
		return nil, false
	}
	_, aok := y.A.IsConst()
	_, bok := y.B.IsConst()
	if !aok && !bok {
		return nil, false
	}
	return in.condBool(y.Cond, atom(x, y.A), atom(x, y.B)), true
}

// condBool returns c ? t : e in the absorbed forms (c∨e, ¬c∧e, ...) when
// either arm is constant, falling back to the expanded mux otherwise.
func (in *Interner) condBool(c, t, e *Bool) *Bool {
	switch {
	case t == True:
		return in.BOr2(c, e)
	case t == False:
		return in.BAnd2(in.BNot1(c), e)
	case e == True:
		return in.BOr2(in.BNot1(c), t)
	case e == False:
		return in.BAnd2(c, t)
	}
	return in.BOr2(in.BAnd2(c, t), in.BAnd2(in.BNot1(c), e))
}

// simpTerm is the memoized recursive term worker. Caller holds simpMu.
func (in *Interner) simpTerm(t *Term) *Term {
	e := in.simpTerms.At(t.num)
	if e.to != nil {
		in.tally.hits++
		return e.to
	}
	in.tally.nodesIn++
	var r *Term
	switch t.Kind {
	case KConst, KVar:
		r = t
	case KNot:
		r = in.Not(in.simpTerm(t.A))
	case KAnd:
		r = in.fuseBinop(in.And, in.simpTerm(t.A), in.simpTerm(t.B))
	case KOr:
		r = in.fuseBinop(in.Or, in.simpTerm(t.A), in.simpTerm(t.B))
	case KXor:
		r = in.fuseBinop(in.Xor, in.simpTerm(t.A), in.simpTerm(t.B))
	case KAdd:
		r = in.fuseBinop(in.Add, in.simpTerm(t.A), in.simpTerm(t.B))
	case KSub:
		r = in.fuseBinop(in.Sub, in.simpTerm(t.A), in.simpTerm(t.B))
	case KZext:
		r = in.Zext(in.simpTerm(t.A), t.Width)
	case KShlC:
		r = in.ShlC(in.simpTerm(t.A), int(t.Val))
	case KLshrC:
		r = in.LshrC(in.simpTerm(t.A), int(t.Val))
	case KAshrC:
		r = in.AshrC(in.simpTerm(t.A), int(t.Val))
	case KIte:
		c := in.simpBool(t.Cond)
		a, b := in.simpTerm(t.A), in.simpTerm(t.B)
		// Nested same-guard collapse: inside the then-arm c is known true,
		// inside the else-arm known false.
		if a.Kind == KIte && a.Cond == c {
			a = a.A
		}
		if b.Kind == KIte && b.Cond == c {
			b = b.B
		}
		r = in.Ite(c, a, b)
	default:
		r = t
	}
	e.to = r
	if o := in.simpTerms.At(r.num); !o.out {
		o.out = true
		in.tally.nodesOut++
	}
	return r
}

// fuseBinop is the shared-guard fusion rule for binary term operators:
// op(ite(c,a1,b1), ite(c,a2,b2)) ⇒ ite(c, op(a1,a2), op(b1,b2)). The result
// has the same DAG size order but a single guard, so downstream comparisons
// see one ite instead of an opaque op over two — and when the arms are
// constants the op folds away entirely. Also distributes op over a single
// ite when the other operand is constant and at least one arm is constant
// (so one side of the distribution folds). Caller holds simpMu; operands
// are already simplified.
func (in *Interner) fuseBinop(op func(a, b *Term) *Term, x, y *Term) *Term {
	if x.Kind == KIte && y.Kind == KIte && x.Cond == y.Cond {
		in.tally.fusions++
		return in.Ite(x.Cond, op(x.A, y.A), op(x.B, y.B))
	}
	if _, ok := y.IsConst(); ok && x.Kind == KIte {
		if constArm(x) {
			in.tally.fusions++
			return in.Ite(x.Cond, op(x.A, y), op(x.B, y))
		}
	}
	if _, ok := x.IsConst(); ok && y.Kind == KIte {
		if constArm(y) {
			in.tally.fusions++
			return in.Ite(y.Cond, op(x, y.A), op(x, y.B))
		}
	}
	return op(x, y)
}

// constArm reports whether either arm of the ite t is constant.
func constArm(t *Term) bool {
	_, aok := t.A.IsConst()
	_, bok := t.B.IsConst()
	return aok || bok
}
