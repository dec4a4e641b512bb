package qcache

import (
	"testing"

	"stringloops/internal/bv"
)

// TestSliceKeepsIteGuardsTogether pins the independence-slicing behavior
// state merging depends on: a merged value is an ite whose *guard* mentions
// the shared variables (the branch condition) while the arms mention others.
// Two conjuncts that share variables only through an ite guard must land in
// the same group — slicing them apart would decide each against a relaxation
// of the real path condition.
func TestSliceKeepsIteGuardsTogether(t *testing.T) {
	in := bv.NewInterner()
	c := New(in)

	g := in.Eq(in.Var("s[0]", 8), in.Byte(' ')) // the merge guard, over s[0]
	x := in.Var("x", 8)
	y := in.Var("y", 8)
	// conjunct 1: guard-dependent merged value of x:  (g ? x : 7) = 0
	c1 := in.Eq(in.Ite(g, x, in.Byte(7)), in.Byte(0))
	// conjunct 2: mentions s[0] directly.
	c2 := in.Ult(in.Var("s[0]", 8), in.Byte(64))
	// conjunct 3: disjoint from both.
	c3 := in.Eq(y, in.Byte(1))

	c.mu.Lock()
	groups := c.slice([]*bv.Bool{c1, c2, c3})
	c.mu.Unlock()

	if len(groups) != 2 {
		t.Fatalf("got %d groups, want 2 (c1+c2 connected through the ite guard, c3 alone)", len(groups))
	}
	find := func(cj *bv.Bool) int {
		for i, g := range groups {
			for _, e := range g.conj {
				if e == cj {
					return i
				}
			}
		}
		return -1
	}
	if find(c1) != find(c2) {
		t.Fatalf("ite-guarded conjunct sliced apart from its guard variable's conjunct")
	}
	if find(c3) == find(c1) {
		t.Fatalf("independent conjunct not sliced into its own group")
	}
}

// TestMergedPathConditionVerdicts runs a merged-shape query end to end
// through the cache: the ite guard makes the two conjuncts jointly
// unsatisfiable even though each is satisfiable alone, so any slicing or
// simplification bug that loses the guard coupling flips the verdict.
func TestMergedPathConditionVerdicts(t *testing.T) {
	in := bv.NewInterner()
	c := New(in)

	s0 := in.Var("s[0]", 8)
	g := in.Eq(s0, in.Byte(0))
	x := in.Var("x", 8)
	// (s[0]=0 ? 1 : x) = 1  together with  x ≠ 1  forces s[0] = 0 ...
	c1 := in.Eq(in.Ite(g, in.Byte(1), x), in.Byte(1))
	c2 := in.Ne(x, in.Byte(1))
	// ... which contradicts s[0] = 9.
	c3 := in.Eq(s0, in.Byte(9))

	if st, _ := c.CheckSat(nil, c1, c2); st.String() != "sat" {
		t.Fatalf("c1∧c2 should be sat, got %v", st)
	}
	if st, _ := c.CheckSat(nil, c1, c2, c3); st.String() != "unsat" {
		t.Fatalf("c1∧c2∧c3 should be unsat, got %v", st)
	}
	// And the satisfiable variant's model must actually satisfy the merged
	// condition (guards evaluated, not zero-filled away).
	st, m := c.CheckSat(nil, c1, c3)
	if st.String() != "sat" {
		t.Fatalf("c1∧c3 should be sat, got %v", st)
	}
	ev := bv.NewEvaluator(m)
	if !ev.Bool(c1) || !ev.Bool(c3) {
		t.Fatalf("returned model does not satisfy the merged conjuncts: %+v", m)
	}
}
