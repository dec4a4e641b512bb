package bv

// Guard-implication pruning. A query's path condition is a conjunction, and
// the ite terms state merging mints frequently embed one of the other
// conjuncts (or its negation) as a guard: once the qcache layer has split
// the query into conjuncts, each conjunct may be rewritten under the
// assumption that all the *other* conjuncts hold. One such rewrite replaces
// every boolean subnode the others decide by its known constant, and
// collapses every ite whose guard they decide to the implied arm.
//
// Soundness is the one-at-a-time argument: for a conjunction R ∧ c, any
// model of R makes every node R decides correct, so rewriting c to c' under
// them preserves R ∧ c ≡ R ∧ c'. PruneConjuncts applies this sequentially —
// conjunct i is pruned under the current versions of the others — so each
// step is an instance of the theorem and the composition is
// equivalence-preserving. (A simultaneous substitution of all conjuncts into
// each other is not obviously sound — two conjuncts could each be rewritten
// to true using the other — which is why the passes are sequenced.)
//
// Substitution is by subnode identity (hash-consing makes structural
// containment pointer containment per interner), and the rewrite rebuilds
// through the smart constructors so local folds fire on the pruned shape.
// The per-conjunct memos cannot live on the interner — the result depends on
// the other conjuncts — so each pass walks its conjunct fresh. That walk is
// depth-capped: the guards another conjunct can decide are minted by state
// merging near the conjunct root (the new branch condition over merged ite
// values), while the deep interior is the accumulated path condition that a
// fresh walk per query would re-traverse quadratically over a run. Nodes
// below the cap are kept unchanged, which is sound — every pruning rewrite
// is optional.
//
// Most conjuncts contain no node another conjunct decides — an enumerated
// path condition never does — and for them the walk rebuilds nothing. A
// memo-free probe of the same traversal finds that out first, so the common
// pass touches no memo table, and hashed decider counts answer the common
// "not decided" in O(1) instead of a scan of the conjunction.

// PruneConjuncts rewrites a conjunction in place, one conjunct at a time in
// order: conj[i] is rewritten under the assumption that the current
// versions of the other conjuncts hold. Each of them is then known true, and
// the operand of a negated one known false; when two conjuncts decide the
// same node the later one wins. Collapsed ite branches and replaced guards
// are counted as ite fusions and charged to the interner budget. A
// conjunction of fewer than two conjuncts is left unchanged. The result
// reports whether any conjunct changed.
func (in *Interner) PruneConjuncts(conj []*Bool) (changed bool) {
	if in == nil || len(conj) < 2 {
		return false
	}
	in.simpMu.Lock()
	p := &pruner{in: in, conj: conj, bools: &in.pruneBools, terms: &in.pruneTerms}
	for _, cj := range conj {
		p.count(cj, 1)
	}
	for i, cj := range conj {
		p.self, p.probes = i, maxPruneProbes
		if !p.mayDecideBool(cj, maxPruneDepth) {
			continue
		}
		p.bools.Reset()
		p.terms.Reset()
		if r := p.boolNode(cj, maxPruneDepth); r != cj {
			p.count(cj, -1)
			p.count(r, 1)
			conj[i] = r
			changed = true
		}
	}
	in.simpExit()
	return changed
}

// maxPruneDepth bounds how far below the conjunct root a pruning walk
// rewrites. The decided-node check on the root of a skipped subtree is still
// O(1), so a decided guard at the cap boundary is caught; only rewrites
// strictly below it are forgone.
const maxPruneDepth = 8

// maxPruneProbes bounds the memo-free probe on conjuncts whose capped walk
// meets many shared subterms; a probe that runs out runs the walk.
const maxPruneProbes = 256

type pruner struct {
	in     *Interner
	conj   []*Bool
	self   int // the conjunct being rewritten
	probes int
	// deciders counts, per bucket of a node-address hash, the nodes the
	// conjuncts decide. A bucket the other conjuncts leave empty proves
	// none of them decides the node, so most nodes skip the scan in
	// decided.
	deciders [256]int32
	// bools and terms memoize the running walk, one conjunct at a time;
	// they are the interner's scratch, reset per walk.
	bools *Marks[*Bool]
	terms *Marks[*Term]
}

// decided reports the value the conjuncts other than conj[self] fix for b,
// if any: the latest conjunct that is b makes it true, or that is ¬b makes
// it false. Only a node whose bucket another conjunct fills pays the scan.
func (p *pruner) decided(b *Bool) (v, ok bool) {
	h := bucket(b)
	n := p.deciders[h]
	if self := p.conj[p.self]; bucket(self) == h {
		n--
	} else if self.Kind == BNot && bucket(self.A) == h {
		n--
	}
	if n == 0 {
		return false, false
	}
	for j := len(p.conj) - 1; j >= 0; j-- {
		switch cj := p.conj[j]; {
		case j == p.self:
		case cj == b:
			return true, true
		case cj.Kind == BNot && cj.A == b:
			return false, true
		}
	}
	return false, false
}

// count adds n to the decider counts of the nodes cj decides: cj itself
// and, for a negation, its operand.
func (p *pruner) count(cj *Bool, n int32) {
	p.deciders[bucket(cj)] += n
	if cj.Kind == BNot {
		p.deciders[bucket(cj.A)] += n
	}
}

// bucket hashes a node's number to one of the 256 decider counts.
func bucket(b *Bool) uint8 {
	return uint8(uint64(b.num) * 0x9E3779B97F4A7C15 >> 56)
}

// mayDecideBool and mayDecideTerm report whether the walk from b (or t)
// could meet a decided node. They follow boolNode and termNode edge for
// edge without the memos, so they see every node the walk would; a false
// answer means the walk would return its input unchanged and count
// nothing. Running out of probes answers true.
func (p *pruner) mayDecideBool(b *Bool, depth int) bool {
	if _, ok := p.decided(b); ok {
		return true
	}
	if depth <= 0 {
		return false
	}
	if p.probes--; p.probes < 0 {
		return true
	}
	d := depth - 1
	switch b.Kind {
	case BNot:
		return p.mayDecideBool(b.A, d)
	case BAnd, BOr:
		return p.mayDecideBool(b.A, d) || p.mayDecideBool(b.B, d)
	case BEq, BUlt, BUle:
		return p.mayDecideTerm(b.X, d) || p.mayDecideTerm(b.Y, d)
	}
	return false
}

func (p *pruner) mayDecideTerm(t *Term, depth int) bool {
	if depth <= 0 {
		return false
	}
	if p.probes--; p.probes < 0 {
		return true
	}
	d := depth - 1
	switch t.Kind {
	case KIte:
		return p.mayDecideBool(t.Cond, d) || p.mayDecideTerm(t.A, d) || p.mayDecideTerm(t.B, d)
	case KNot, KZext, KShlC, KLshrC, KAshrC:
		return p.mayDecideTerm(t.A, d)
	case KAnd, KOr, KXor, KAdd, KSub:
		return p.mayDecideTerm(t.A, d) || p.mayDecideTerm(t.B, d)
	}
	return false
}

func (p *pruner) boolNode(b *Bool, depth int) *Bool {
	if v, ok := p.decided(b); ok {
		p.in.tally.fusions++
		if v {
			return True
		}
		return False
	}
	if depth <= 0 {
		return b
	}
	if r, ok := p.bools.Get(b.num); ok {
		return r
	}
	d := depth - 1
	// Unchanged children short-circuit to the original node — the common
	// case by far — so the interning constructors only run where a rewrite
	// actually fired below.
	var r *Bool
	switch b.Kind {
	case BConst, BVar:
		r = b
	case BNot:
		if x := p.boolNode(b.A, d); x != b.A {
			r = p.in.BNot1(x)
		} else {
			r = b
		}
	case BAnd:
		if x, y := p.boolNode(b.A, d), p.boolNode(b.B, d); x != b.A || y != b.B {
			r = p.in.BAnd2(x, y)
		} else {
			r = b
		}
	case BOr:
		if x, y := p.boolNode(b.A, d), p.boolNode(b.B, d); x != b.A || y != b.B {
			r = p.in.BOr2(x, y)
		} else {
			r = b
		}
	case BEq:
		if x, y := p.termNode(b.X, d), p.termNode(b.Y, d); x != b.X || y != b.Y {
			r = p.in.Eq(x, y)
		} else {
			r = b
		}
	case BUlt:
		if x, y := p.termNode(b.X, d), p.termNode(b.Y, d); x != b.X || y != b.Y {
			r = p.in.Ult(x, y)
		} else {
			r = b
		}
	case BUle:
		if x, y := p.termNode(b.X, d), p.termNode(b.Y, d); x != b.X || y != b.Y {
			r = p.in.Ule(x, y)
		} else {
			r = b
		}
	default:
		r = b
	}
	p.bools.Set(b.num, r)
	return r
}

func (p *pruner) termNode(t *Term, depth int) *Term {
	if depth <= 0 {
		return t
	}
	if r, ok := p.terms.Get(t.num); ok {
		return r
	}
	d := depth - 1
	var r *Term
	switch t.Kind {
	case KConst, KVar:
		r = t
	case KIte:
		// A guard the enclosing condition decides collapses the ite to the
		// implied arm (the pruned guard may also be a strict subformula of
		// the guard, which the boolNode walk below handles).
		if v, ok := p.decided(t.Cond); ok {
			p.in.tally.fusions++
			if v {
				r = p.termNode(t.A, d)
			} else {
				r = p.termNode(t.B, d)
			}
		} else if c, a, b := p.boolNode(t.Cond, d), p.termNode(t.A, d), p.termNode(t.B, d); c != t.Cond || a != t.A || b != t.B {
			r = p.in.Ite(c, a, b)
		} else {
			r = t
		}
	case KNot:
		r = p.rebuild1(t, d, p.in.Not)
	case KAnd:
		r = p.rebuild2(t, d, p.in.And)
	case KOr:
		r = p.rebuild2(t, d, p.in.Or)
	case KXor:
		r = p.rebuild2(t, d, p.in.Xor)
	case KAdd:
		r = p.rebuild2(t, d, p.in.Add)
	case KSub:
		r = p.rebuild2(t, d, p.in.Sub)
	case KZext:
		if x := p.termNode(t.A, d); x != t.A {
			r = p.in.Zext(x, t.Width)
		} else {
			r = t
		}
	case KShlC:
		r = p.rebuildShift(t, d, p.in.ShlC)
	case KLshrC:
		r = p.rebuildShift(t, d, p.in.LshrC)
	case KAshrC:
		r = p.rebuildShift(t, d, p.in.AshrC)
	default:
		r = t
	}
	p.terms.Set(t.num, r)
	return r
}

// rebuild1, rebuild2 and rebuildShift apply a unary, binary or const-shift
// constructor only when a child actually changed, keeping the untouched
// (overwhelmingly common) case allocation- and intern-free.
func (p *pruner) rebuild1(t *Term, d int, op func(*Term) *Term) *Term {
	if x := p.termNode(t.A, d); x != t.A {
		return op(x)
	}
	return t
}

func (p *pruner) rebuild2(t *Term, d int, op func(*Term, *Term) *Term) *Term {
	if x, y := p.termNode(t.A, d), p.termNode(t.B, d); x != t.A || y != t.B {
		return op(x, y)
	}
	return t
}

func (p *pruner) rebuildShift(t *Term, d int, op func(*Term, int) *Term) *Term {
	if x := p.termNode(t.A, d); x != t.A {
		return op(x, int(t.Val))
	}
	return t
}
