package bv

import (
	"math/rand"
	"testing"
)

// refTables is a struct-keyed reference model of an Interner's hash-cons
// tables: it records every node the interner hands out, keyed by the node's
// structure, and clears itself under the interner's soft-cap rule (a table
// holding cap nodes is emptied before its next new node).
type refTables struct {
	cap                    int
	terms                  map[Term]*Term
	bools                  map[Bool]*Bool
	seenT                  map[*Term]bool
	seenB                  map[*Bool]bool
	distinct               int64
	termClears, boolClears int
	t                      *testing.T
	step                   int
}

func newRefTables(t *testing.T, cap int) *refTables {
	return &refTables{cap: cap, t: t,
		terms: map[Term]*Term{}, bools: map[Bool]*Bool{},
		seenT: map[*Term]bool{}, seenB: map[*Bool]bool{}}
}

// shapeT and shapeB return a node's structure: the node with its number
// cleared, so nodes compare as the hash-cons tables compare them.
func shapeT(t *Term) Term {
	s := *t
	s.num = 0
	return s
}

func shapeB(b *Bool) Bool {
	s := *b
	s.num = 0
	return s
}

// addTerm records a node not seen before, children first, which is the
// order the constructors intern them in.
func (r *refTables) addTerm(p *Term) {
	if p == nil || r.seenT[p] {
		return
	}
	r.addTerm(p.A)
	r.addTerm(p.B)
	r.addBool(p.Cond)
	r.seenT[p] = true
	r.distinct++
	if len(r.terms) >= r.cap {
		clear(r.terms)
		r.termClears++
	}
	if old, ok := r.terms[shapeT(p)]; ok {
		r.t.Fatalf("step %d: new node %p duplicates %p = %v in the current table", r.step, p, old, old)
	}
	r.terms[shapeT(p)] = p
}

func (r *refTables) addBool(p *Bool) {
	if p == nil || p == True || p == False || r.seenB[p] {
		return
	}
	r.addBool(p.A)
	r.addBool(p.B)
	r.addTerm(p.X)
	r.addTerm(p.Y)
	r.seenB[p] = true
	r.distinct++
	if len(r.bools) >= r.cap {
		clear(r.bools)
		r.boolClears++
	}
	if old, ok := r.bools[shapeB(p)]; ok {
		r.t.Fatalf("step %d: new node %p duplicates %p = %v in the current table", r.step, p, old, old)
	}
	r.bools[shapeB(p)] = p
}

// reaches reports whether target is one of the nodes, or below one of them.
func reaches(target any, terms []*Term, bools []*Bool) bool {
	seenT, seenB := map[*Term]bool{}, map[*Bool]bool{}
	var walkT func(*Term) bool
	var walkB func(*Bool) bool
	walkT = func(t *Term) bool {
		if t == nil || seenT[t] {
			return false
		}
		seenT[t] = true
		return any(t) == target || walkT(t.A) || walkT(t.B) || walkB(t.Cond)
	}
	walkB = func(b *Bool) bool {
		if b == nil || seenB[b] {
			return false
		}
		seenB[b] = true
		return any(b) == target || walkB(b.A) || walkB(b.B) || walkT(b.X) || walkT(b.Y)
	}
	for _, t := range terms {
		if walkT(t) {
			return true
		}
	}
	for _, b := range bools {
		if walkB(b) {
			return true
		}
	}
	return false
}

// TestInternerMatchesReferenceTable builds random term and formula DAGs
// through the constructors and replays every node they hand out into a
// struct-keyed reference table. Within one table generation, nodes must be
// pointer-equal iff they are structurally equal: a new node may not
// duplicate a node the table holds, and a node that is not new must be the
// table's node for its structure, unless a rewrite returned it from below an
// operand. Nodes() must equal the reference's count of distinct nodes. The
// run first grows the tables through several doublings at the default cap,
// then continues under SetSoftCap(64) through several clears.
func TestInternerMatchesReferenceTable(t *testing.T) {
	in := NewInterner()
	ref := newRefTables(t, DefaultSoftCap)
	g := newDAGGen(in, rand.New(rand.NewSource(1)))
	ref.addTerm(g.pool8[0])
	ref.addTerm(g.pool32[0])
	ref.addBool(g.poolB[0])

	run := func(steps int) {
		for i := 0; i < steps; i++ {
			ref.step++
			before := in.Nodes()
			distinct := ref.distinct
			opsT, opsB, gotT, gotB := g.step()
			switch {
			case gotT != nil:
				isNew := !ref.seenT[gotT]
				ref.addTerm(gotT)
				if !isNew && ref.terms[shapeT(gotT)] != gotT && !reaches(gotT, opsT, opsB) {
					t.Fatalf("step %d: %v is neither new, nor the table's node, nor below an operand", ref.step, gotT)
				}
			case gotB != True && gotB != False:
				isNew := !ref.seenB[gotB]
				ref.addBool(gotB)
				if !isNew && ref.bools[shapeB(gotB)] != gotB && !reaches(gotB, opsT, opsB) {
					t.Fatalf("step %d: %v is neither new, nor the table's node, nor below an operand", ref.step, gotB)
				}
			}
			if got, want := in.Nodes()-before, ref.distinct-distinct; got != want {
				t.Fatalf("step %d: the call interned %d nodes, the reference saw %d new", ref.step, got, want)
			}
		}
	}

	run(6000)
	if len(in.terms.slots) < 1<<10 || len(in.bools.slots) < 1<<10 {
		t.Fatalf("tables reached %d and %d slots, want several growths past 1024",
			len(in.terms.slots), len(in.bools.slots))
	}
	in.SetSoftCap(64)
	ref.cap = 64
	run(6000)
	if ref.termClears < 2 || ref.boolClears < 2 {
		t.Fatalf("%d term and %d bool table clears, want at least 2 each", ref.termClears, ref.boolClears)
	}
	if in.terms.n != len(ref.terms) || in.bools.n != len(ref.bools) {
		t.Fatalf("tables hold %d terms and %d bools, the reference %d and %d",
			in.terms.n, in.bools.n, len(ref.terms), len(ref.bools))
	}
	if got := in.Nodes(); got != ref.distinct {
		t.Fatalf("Nodes() = %d, the reference counted %d distinct nodes", got, ref.distinct)
	}
}

// dagGen builds random term and formula DAGs through an interner's
// constructors: each step applies one random constructor to nodes drawn
// from its pools of 8-bit terms, 32-bit terms and formulas, and keeps the
// result in a pool (at most 64 nodes each, replacing a random one when
// full).
type dagGen struct {
	in            *Interner
	rng           *rand.Rand
	names         []string
	pool8, pool32 []*Term
	poolB         []*Bool
}

func newDAGGen(in *Interner, rng *rand.Rand) *dagGen {
	return &dagGen{in: in, rng: rng, names: []string{"a", "b", "c", "d", "e"},
		pool8: []*Term{in.Var("x", 8)}, pool32: []*Term{in.Var("x", 32)},
		poolB: []*Bool{in.BoolVar("p")}}
}

func (g *dagGen) pick(pool []*Term) *Term { return pool[g.rng.Intn(len(pool))] }

func (g *dagGen) pickNonConst(pool []*Term) *Term {
	for {
		if t := g.pick(pool); t.Kind != KConst {
			return t
		}
	}
}

func (g *dagGen) pickB() *Bool { return g.poolB[g.rng.Intn(len(g.poolB))] }

// step applies one constructor and returns its operands and its result,
// a term (gotT) or a formula (gotB).
func (g *dagGen) step() (opsT []*Term, opsB []*Bool, gotT *Term, gotB *Bool) {
	in, rng := g.in, g.rng
	w, pool := 8, &g.pool8
	if rng.Intn(2) == 0 {
		w, pool = 32, &g.pool32
	}
	a, b := g.pick(*pool), g.pick(*pool)
	switch op := rng.Intn(18); op {
	case 0:
		gotT = in.Var(g.names[rng.Intn(len(g.names))], w)
	case 1:
		// Both sides of the 32-bit constant table's bound.
		gotT = in.Const(w, uint64(rng.Intn(1100)))
	case 2:
		opsT, gotT = []*Term{a}, in.Not(a)
	case 3:
		opsT, gotT = []*Term{a, b}, in.And(a, b)
	case 4:
		opsT, gotT = []*Term{a, b}, in.Or(a, b)
	case 5:
		opsT, gotT = []*Term{a, b}, in.Xor(a, b)
	case 6:
		// Non-constant operands: constant folding could intern a
		// node the result does not reach.
		a, b = g.pickNonConst(*pool), g.pickNonConst(*pool)
		opsT, gotT = []*Term{a, b}, in.Add(a, b)
	case 7:
		a, b = g.pickNonConst(*pool), g.pickNonConst(*pool)
		opsT, gotT = []*Term{a, b}, in.Sub(a, b)
	case 8:
		c := g.pickB()
		opsT, opsB, gotT = []*Term{a, b}, []*Bool{c}, in.Ite(c, a, b)
	case 9:
		opsT, gotT = []*Term{a}, in.ShlC(a, 1+rng.Intn(w))
	case 10:
		opsT, gotT = []*Term{a}, in.LshrC(a, 1+rng.Intn(w))
	case 11:
		a = g.pick(g.pool8)
		pool = &g.pool32
		opsT, gotT = []*Term{a}, in.Zext(a, 32)
	case 12:
		gotB = in.BoolVar(g.names[rng.Intn(len(g.names))])
	case 13:
		c := g.pickB()
		opsB, gotB = []*Bool{c}, in.BNot1(c)
	case 14:
		c, d := g.pickB(), g.pickB()
		opsB, gotB = []*Bool{c, d}, in.BAnd2(c, d)
	case 15:
		c, d := g.pickB(), g.pickB()
		opsB, gotB = []*Bool{c, d}, in.BOr2(c, d)
	case 16:
		opsT, gotB = []*Term{a, b}, in.Eq(a, b)
	case 17:
		if rng.Intn(2) == 0 {
			opsT, gotB = []*Term{a, b}, in.Ult(a, b)
		} else {
			opsT, gotB = []*Term{a, b}, in.Ule(a, b)
		}
	}
	switch {
	case gotT != nil:
		if len(*pool) < 64 {
			*pool = append(*pool, gotT)
		} else {
			(*pool)[rng.Intn(len(*pool))] = gotT
		}
	case gotB != True && gotB != False:
		if len(g.poolB) < 64 {
			g.poolB = append(g.poolB, gotB)
		} else {
			g.poolB[rng.Intn(len(g.poolB))] = gotB
		}
	}
	return opsT, opsB, gotT, gotB
}
