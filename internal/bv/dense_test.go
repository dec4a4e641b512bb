package bv

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"unsafe"
)

// TestNodeLayout pins the node sizes: the number sits in padding that was
// already there, so numbering nodes costs no memory.
func TestNodeLayout(t *testing.T) {
	if got := unsafe.Sizeof(Term{}); got != 64 {
		t.Errorf("Term is %d bytes, want 64", got)
	}
	if got := unsafe.Sizeof(Bool{}); got != 56 {
		t.Errorf("Bool is %d bytes, want 56", got)
	}
}

// TestNumbersAreUniqueAndIncreasing: every new node gets the next number of
// its sort, terms from 0 and bools from 2 (False and True hold 0 and 1), so
// within a sort no two nodes share a number, a node is numbered above its
// children, and numbers keep increasing across soft-cap clears: a node
// rebuilt after a clear is a new node with a new number.
func TestNumbersAreUniqueAndIncreasing(t *testing.T) {
	if False.Num() != 0 || True.Num() != 1 {
		t.Fatalf("False and True are %d and %d, want 0 and 1", False.Num(), True.Num())
	}
	in := NewInterner().SetSoftCap(16)
	q := in.Var("q", 8)
	g := newDAGGen(in, rand.New(rand.NewSource(3)))
	var terms []*Term
	var bools []*Bool
	for i := 0; i < 4000; i++ {
		_, _, gotT, gotB := g.step()
		switch {
		case gotT != nil:
			if gotT.num >= in.termNum {
				t.Fatalf("step %d: term %v numbered %d, next number %d", i, gotT, gotT.num, in.termNum)
			}
			terms = append(terms, gotT)
		case gotB != True && gotB != False:
			if gotB.num < 2 || gotB.num >= in.boolNum {
				t.Fatalf("step %d: bool %v numbered %d, next number %d", i, gotB, gotB.num, in.boolNum)
			}
			bools = append(bools, gotB)
		}
	}
	// Walk everything the steps returned: within a sort one number names
	// one node, and children are numbered below their parents.
	byT, byB := map[uint32]*Term{}, map[uint32]*Bool{}
	var walkT func(*Term, uint32)
	var walkB func(*Bool, uint32)
	walkT = func(x *Term, parent uint32) {
		if x == nil {
			return
		}
		if x.num >= parent {
			t.Fatalf("term %v numbered %d, not below its parent's %d", x, x.num, parent)
		}
		if old, ok := byT[x.num]; ok {
			if old != x {
				t.Fatalf("term number %d names %v and %v", x.num, old, x)
			}
			return
		}
		byT[x.num] = x
		walkB(x.Cond, math.MaxUint32)
		walkT(x.A, x.num)
		walkT(x.B, x.num)
	}
	walkB = func(b *Bool, parent uint32) {
		if b == nil || b == True || b == False {
			return
		}
		if b.num >= parent {
			t.Fatalf("bool %v numbered %d, not below its parent's %d", b, b.num, parent)
		}
		if old, ok := byB[b.num]; ok {
			if old != b {
				t.Fatalf("bool number %d names %v and %v", b.num, old, b)
			}
			return
		}
		byB[b.num] = b
		walkB(b.A, b.num)
		walkB(b.B, b.num)
		walkT(b.X, math.MaxUint32)
		walkT(b.Y, math.MaxUint32)
	}
	for _, x := range terms {
		walkT(x, math.MaxUint32)
	}
	for _, b := range bools {
		walkB(b, math.MaxUint32)
	}
	if len(byT) < 500 || len(byB) < 100 || in.terms.n > 16 {
		t.Fatalf("walked %d terms and %d bools, table holds %d: want hundreds of nodes through clears at the cap of 16",
			len(byT), len(byB), in.terms.n)
	}
	if q2 := in.Var("q", 8); q2 == q || q2.num <= q.num {
		t.Fatalf("q rebuilt after the clears is %p numbered %d; the first was %p numbered %d", q2, q2.num, q, q.num)
	}
}

// TestMarksStampWrap: when the generation stamp wraps, an entry stamped
// 2^32 generations earlier must not read as current, so the wrap clears
// the pages.
func TestMarksStampWrap(t *testing.T) {
	var m Marks[int]
	m.Reset()
	m.Set(5, 50)  // stamped 1
	m.Set(700, 7) // another page
	m.gen = math.MaxUint32 - 1
	m.Reset()
	m.Set(9, 90) // stamped 2^32-1
	if _, ok := m.Get(5); ok {
		t.Fatal("an entry from generation 1 reads as current at 2^32-1")
	}
	m.Reset() // wraps to 1, the stamp 5 and 700 carry
	for _, n := range []uint32{5, 700, 9} {
		if v, ok := m.Get(n); ok {
			t.Fatalf("after the wrap, entry %d = %d reads as current", n, v)
		}
	}
	m.Set(5, 51)
	if v, ok := m.Get(5); !ok || v != 51 {
		t.Fatalf("after the wrap, Get(5) = %d, %v; want 51, true", v, ok)
	}
}

// TestPagesAreSparseAndStable: a table allocates only the pages its numbers
// fall in, and an entry's pointer survives the directory growing.
func TestPagesAreSparseAndStable(t *testing.T) {
	var p Pages[int]
	first := p.At(3)
	*first = 33
	p.At(1 << 20)
	p.At(1<<20 + 1)
	pages := 0
	for _, pg := range p.dir {
		if pg != nil {
			pages++
		}
	}
	if pages != 2 {
		t.Fatalf("%d pages allocated for two distant numbers, want 2", pages)
	}
	if p.At(3) != first || *first != 33 {
		t.Fatal("an entry moved or lost its value when the table grew")
	}
}

// refEvaluator is the map-keyed evaluator numbers replaced, kept as an
// oracle: one fresh memo per assignment.
type refEvaluator struct {
	a      *Assignment
	tcache map[*Term]uint64
	bcache map[*Bool]bool
}

func (e *refEvaluator) term(t *Term) uint64 {
	if v, ok := e.tcache[t]; ok {
		return v
	}
	var v uint64
	m := maskFor(t.Width)
	switch t.Kind {
	case KConst:
		v = t.Val
	case KVar:
		v = e.a.Terms[t.Name] & m
	case KNot:
		v = ^e.term(t.A) & m
	case KAnd:
		v = e.term(t.A) & e.term(t.B)
	case KOr:
		v = e.term(t.A) | e.term(t.B)
	case KXor:
		v = e.term(t.A) ^ e.term(t.B)
	case KAdd:
		v = (e.term(t.A) + e.term(t.B)) & m
	case KSub:
		v = (e.term(t.A) - e.term(t.B)) & m
	case KIte:
		if e.bool(t.Cond) {
			v = e.term(t.A)
		} else {
			v = e.term(t.B)
		}
	case KZext:
		v = e.term(t.A)
	case KShlC:
		v = (e.term(t.A) << t.Val) & m
	case KLshrC:
		v = e.term(t.A) >> t.Val
	case KAshrC:
		x := e.term(t.A)
		sv := int64(x<<(64-uint(t.Width))) >> (64 - uint(t.Width))
		v = uint64(sv>>t.Val) & m
	}
	e.tcache[t] = v
	return v
}

func (e *refEvaluator) bool(b *Bool) bool {
	if v, ok := e.bcache[b]; ok {
		return v
	}
	var v bool
	switch b.Kind {
	case BConst:
		v = b.Val
	case BVar:
		v = e.a.Bools[b.Name]
	case BNot:
		v = !e.bool(b.A)
	case BAnd:
		v = e.bool(b.A) && e.bool(b.B)
	case BOr:
		v = e.bool(b.A) || e.bool(b.B)
	case BEq:
		v = e.term(b.X) == e.term(b.Y)
	case BUlt:
		v = e.term(b.X) < e.term(b.Y)
	case BUle:
		v = e.term(b.X) <= e.term(b.Y)
	}
	e.bcache[b] = v
	return v
}

// refNames is the map-keyed VarScanner.Names numbers replaced, kept as an
// oracle: the same traversal over fresh visited sets.
func refNames(f *Bool) []string {
	var out []string
	seenB, seenT := map[*Bool]bool{}, map[*Term]bool{}
	var walkB func(*Bool)
	var walkT func(*Term)
	walkB = func(b *Bool) {
		if b == nil || seenB[b] {
			return
		}
		seenB[b] = true
		switch b.Kind {
		case BVar:
			out = append(out, "b:"+b.Name)
		case BNot, BAnd, BOr:
			walkB(b.A)
			walkB(b.B)
		case BEq, BUlt, BUle:
			walkT(b.X)
			walkT(b.Y)
		}
	}
	walkT = func(t *Term) {
		if t == nil || seenT[t] {
			return
		}
		seenT[t] = true
		if t.Kind == KVar {
			out = append(out, "t:"+t.Name)
			return
		}
		walkB(t.Cond)
		walkT(t.A)
		walkT(t.B)
	}
	walkB(f)
	return out
}

// TestNumberedTablesMatchMapReference grows random DAGs (the reference
// table test's generator) through soft-cap clears and, after every batch of
// steps, holds the number-indexed structures to the map-keyed ones they
// replaced: one long-lived Evaluator, Reset between assignments, against a
// fresh reference evaluator per assignment, on every pooled node; and one
// long-lived VarScanner against the reference scan, name for name. Midway
// the evaluator's and the scanner's stamps are moved to just below the
// wrap, so the run crosses it.
func TestNumberedTablesMatchMapReference(t *testing.T) {
	in := NewInterner().SetSoftCap(256)
	rng := rand.New(rand.NewSource(11))
	g := newDAGGen(in, rng)
	ev := NewEvaluator(nil)
	var scan VarScanner
	for batch := 0; batch < 60; batch++ {
		for i := 0; i < 50; i++ {
			g.step()
		}
		if batch == 30 {
			ev.terms.gen, ev.bools.gen = math.MaxUint32-2, math.MaxUint32-3
			scan.seenB.gen, scan.seenT.gen = math.MaxUint32-1, math.MaxUint32
		}
		for k := 0; k < 4; k++ {
			a := &Assignment{Terms: map[string]uint64{}, Bools: map[string]bool{}}
			for _, n := range append(g.names, "x") {
				a.Terms[n] = rng.Uint64()
				a.Bools[n] = rng.Intn(2) == 0
			}
			a.Bools["p"] = rng.Intn(2) == 0
			ev.Reset(a)
			ref := &refEvaluator{a: a, tcache: map[*Term]uint64{}, bcache: map[*Bool]bool{}}
			for _, x := range append(slices.Clone(g.pool8), g.pool32...) {
				if got, want := ev.Term(x), ref.term(x); got != want {
					t.Fatalf("batch %d: Term(%v) = %d, reference %d", batch, x, got, want)
				}
			}
			for _, f := range g.poolB {
				if got, want := ev.Bool(f), ref.bool(f); got != want {
					t.Fatalf("batch %d: Bool(%v) = %v, reference %v", batch, f, got, want)
				}
			}
		}
		for _, f := range g.poolB {
			if got, want := scan.Names(nil, f), refNames(f); !slices.Equal(got, want) {
				t.Fatalf("batch %d: Names(%v) = %v, reference %v", batch, f, got, want)
			}
		}
	}
	if in.Nodes() < 1000 {
		t.Fatalf("the run interned %d nodes; want well past the soft cap of 256", in.Nodes())
	}
}

// mergedCondition builds the shape state merging hands the simplifier: the
// byte at a symbolic offset, read as an ite chain over the bytes of the
// string s<id>, compared against constants and conjoined into a path
// condition.
func mergedCondition(in *Interner, id, bytes int) *Bool {
	off := in.Var(fmt.Sprintf("off%d", id), 32)
	chain := in.Byte(0)
	for i := bytes - 1; i >= 0; i-- {
		chain = in.Ite(in.Eq(off, in.Int32(int64(i))), in.Var(fmt.Sprintf("s%d[%d]", id, i), 8), chain)
	}
	pc := in.Ult(off, in.Int32(int64(bytes)))
	for _, c := range []byte{0, ' ', '\t'} {
		pc = in.BAnd2(pc, in.Ne(in.Add(chain, in.Byte(1)), in.Byte(c+1)))
	}
	return pc
}

// BenchmarkSimplifyBool simplifies a new merged path condition (about 60
// nodes over its own variables) per iteration, so each call walks new
// nodes through the memo rather than hitting it at the root. The formulas
// are built outside the timer, 256 at a time, in a fresh interner.
func BenchmarkSimplifyBool(b *testing.B) {
	b.ReportAllocs()
	const batch = 256
	var in *Interner
	fs := make([]*Bool, batch)
	for i := 0; i < b.N; i++ {
		if i%batch == 0 {
			b.StopTimer()
			in = NewInterner()
			for j := range fs {
				fs[j] = mergedCondition(in, j, 8)
			}
			b.StartTimer()
		}
		in.SimplifyBool(fs[i%batch])
	}
}
