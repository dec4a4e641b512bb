package qcache

import (
	"testing"

	"stringloops/internal/bv"
	"stringloops/internal/diskcache"
	"stringloops/internal/engine"
	"stringloops/internal/sat"
)

// TestCrossInternerSharing is the regression test for the ordinal-keying
// bug: two caches over independently built interners — with deliberately
// different interning orders, so conjunct ordinals disagree — must agree on
// the canonical key of a structurally identical query and share one entry
// through a common store. Under the old idKey-over-ordinals scheme the
// second cache could never hit.
func TestCrossInternerSharing(t *testing.T) {
	store := diskcache.NewStoreSized("", 0, nil)

	build := func(in *bv.Interner) []*bv.Bool {
		x, y := in.Var("x", 8), in.Var("y", 8)
		return []*bv.Bool{
			in.Ult(x, in.Byte(10)),
			in.Ne(x, in.Byte(3)),
			in.Eq(y, in.Byte(250)),
		}
	}

	inA := bv.NewInterner()
	a := New(inA).SetDisk(store)
	bA := engine.NewBudget(nil, engine.Limits{})
	st, m := a.CheckSat(bA, build(inA)...)
	if st != sat.Sat {
		t.Fatalf("first pipeline: %v", st)
	}
	if v := m.Terms["x"]; v >= 10 || v == 3 {
		t.Fatalf("first pipeline model x = %d", v)
	}
	if bA.Count(engine.CacheMisses) == 0 {
		t.Fatal("cold first pipeline must reach the solver")
	}

	// Second pipeline: fresh interner, and a pile of unrelated formulas
	// interned first so every ordinal and pointer differs from pipeline A.
	inB := bv.NewInterner()
	for i := 0; i < 20; i++ {
		inB.Eq(inB.Var("noise", 8), inB.Byte(uint8(i)))
	}
	b := New(inB).SetDisk(store)
	bB := engine.NewBudget(nil, engine.Limits{})
	st, m = b.CheckSat(bB, build(inB)...)
	if st != sat.Sat {
		t.Fatalf("second pipeline: %v", st)
	}
	if v := m.Terms["x"]; v >= 10 || v == 3 {
		t.Fatalf("second pipeline model x = %d", v)
	}
	if v, ok := m.Terms["y"]; !ok || v != 250 {
		t.Fatalf("second pipeline model y = %d, %v", v, ok)
	}
	if misses := bB.Count(engine.CacheMisses); misses != 0 {
		t.Fatalf("second pipeline missed %d groups; every group must come from the shared store", misses)
	}
	if b.Stats().ExactHits == 0 {
		t.Fatal("second pipeline must hit the shared entries")
	}
	if bB.Count(engine.DiskHits) == 0 {
		t.Fatal("shared-store hits must be charged to the budget")
	}
}

// TestCrossInternerUnsatSharing shares an unsat verdict across interners.
func TestCrossInternerUnsatSharing(t *testing.T) {
	store := diskcache.NewStoreSized("", 0, nil)

	build := func(in *bv.Interner) []*bv.Bool {
		x := in.Var("x", 8)
		return []*bv.Bool{in.Ult(in.Byte(10), x), in.Ult(x, in.Byte(5))}
	}

	inA := bv.NewInterner()
	a := New(inA).SetDisk(store)
	if st, _ := a.CheckSat(nil, build(inA)...); st != sat.Unsat {
		t.Fatal("first pipeline must prove unsat")
	}

	inB := bv.NewInterner()
	b := New(inB).SetDisk(store)
	bB := engine.NewBudget(nil, engine.Limits{})
	if st, _ := b.CheckSat(bB, build(inB)...); st != sat.Unsat {
		t.Fatal("second pipeline must see unsat")
	}
	if sb := b.Stats(); bB.Count(engine.CacheMisses) != 0 || sb.ExactHits == 0 {
		t.Fatalf("stats = %+v, %d misses, want pure exact hits", sb, bB.Count(engine.CacheMisses))
	}
}

// TestAlphaRenamedSharing: within one cache, a query differing from a cached
// one only in variable names hits the same canonical entry, and the model
// comes back under the new query's names.
func TestAlphaRenamedSharing(t *testing.T) {
	in := bv.NewInterner()
	c := New(in)
	b := engine.NewBudget(nil, engine.Limits{})
	x, y := in.Var("x", 8), in.Var("y", 8)

	st, m := c.CheckSat(b, in.Eq(x, in.Byte(42)))
	if st != sat.Sat || m.Terms["x"] != 42 {
		t.Fatalf("seed query = %v %v", st, m)
	}
	st, m = c.CheckSat(b, in.Eq(y, in.Byte(42)))
	if st != sat.Sat {
		t.Fatalf("renamed query = %v", st)
	}
	if v, ok := m.Terms["y"]; !ok || v != 42 {
		t.Fatalf("model must bind the renamed variable: %v", m.Terms)
	}
	if _, ok := m.Terms["x"]; ok {
		t.Fatal("model must not leak the cached entry's variable name")
	}
	if s := c.Stats(); s.ExactHits != 1 || b.Count(engine.CacheMisses) != 1 {
		t.Fatalf("stats = %+v, %d misses, want 1 exact hit / 1 miss", s, b.Count(engine.CacheMisses))
	}
}

// TestConjunctIDsAreContentBased: the subset-unsat rule keeps working when a
// core's conjuncts reappear inside a larger query, which requires conjunct
// IDs to be stable functions of structure.
func TestConjunctIDsAreContentBased(t *testing.T) {
	in := bv.NewInterner()
	c := New(in)
	x := in.Var("x", 8)
	lo := in.Ult(in.Byte(10), x)
	hi := in.Ult(x, in.Byte(5))

	if st, _ := c.CheckSat(nil, lo, hi); st != sat.Unsat {
		t.Fatal("core query must be unsat")
	}
	c.mu.Lock()
	idLo, idHi := c.info(lo).id, c.info(hi).id
	idLo2 := c.canonIDs[c.canonString(lo)]
	c.mu.Unlock()
	if idLo != idLo2 {
		t.Fatal("memoized and canonical paths must agree on the ID")
	}
	if idLo == idHi {
		t.Fatal("distinct conjuncts must get distinct IDs")
	}
}

// TestDiskWriteThrough: verdicts decided in one cache appear in the store
// without an explicit flush, so a crash after solving loses at most the
// unsaved snapshot, not the in-memory tier's coherence.
func TestDiskWriteThrough(t *testing.T) {
	store := diskcache.NewStoreSized("", 0, nil)
	in := bv.NewInterner()
	c := New(in).SetDisk(store)
	x := in.Var("x", 8)
	if st, _ := c.CheckSat(nil, in.Eq(x, in.Byte(7))); st != sat.Sat {
		t.Fatal("query must be sat")
	}
	if store.Len() == 0 {
		t.Fatal("verdict must be written through to the store")
	}
}
