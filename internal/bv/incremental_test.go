package bv

import (
	"sort"
	"testing"

	"stringloops/internal/sat"
)

func TestCheckAssumingIncremental(t *testing.T) {
	in := NewInterner()
	x := in.Var("x", 8)
	s := NewSolver()
	s.Assert(in.Ult(x, in.Byte(10))) // permanent: x < 10

	// Assumption x == 3 is consistent.
	if st := s.CheckAssumingLits(s.Lit(in.Eq(x, in.Byte(3)))); st != sat.Sat {
		t.Fatalf("CheckAssumingLits(x==3) = %v", st)
	}
	if got := s.ModelAssignment().Terms["x"]; got != 3 {
		t.Fatalf("model x = %d, want 3", got)
	}
	// Assumption x == 12 contradicts the permanent constraint...
	if st := s.CheckAssumingLits(s.Lit(in.Eq(x, in.Byte(12)))); st != sat.Unsat {
		t.Fatalf("CheckAssumingLits(x==12) = %v, want unsat", st)
	}
	// ...but only temporarily: the instance stays satisfiable.
	if st := s.CheckAssumingLits(s.Lit(in.Eq(x, in.Byte(7)))); st != sat.Sat {
		t.Fatalf("CheckAssumingLits(x==7) after unsat assumption = %v", st)
	}
	if got := s.ModelAssignment().Terms["x"]; got != 7 {
		t.Fatalf("model x = %d, want 7", got)
	}
	// Plain Check without assumptions still works on the same instance.
	if st := s.Check(); st != sat.Sat {
		t.Fatalf("Check = %v", st)
	}
}

func TestLitMemoizedAcrossQueries(t *testing.T) {
	in := NewInterner()
	x := in.Var("x", 8)
	s := NewSolver()
	f := in.Eq(x, in.Byte(5))
	l1 := s.Lit(f)
	nBefore := s.NumSATVars()
	l2 := s.Lit(f)
	if l1 != l2 {
		t.Fatalf("Lit not memoized: %v vs %v", l1, l2)
	}
	if s.NumSATVars() != nBefore {
		t.Fatal("re-blasting an encoded formula allocated SAT variables")
	}
	if st := s.CheckAssumingLits(l1); st != sat.Sat {
		t.Fatalf("CheckAssumingLits = %v", st)
	}
	if got := s.ModelAssignment().Terms["x"]; got != 5 {
		t.Fatalf("model x = %d, want 5", got)
	}
	if st := s.CheckAssumingLits(l1.Neg()); st != sat.Sat {
		t.Fatalf("CheckAssumingLits(neg) = %v", st)
	}
	if got := s.ModelAssignment().Terms["x"]; got == 5 {
		t.Fatal("model under negated literal still x = 5")
	}
}

func TestConjunctsFlattensAndTree(t *testing.T) {
	in := NewInterner()
	x := in.Var("x", 8)
	a := in.Ult(x, in.Byte(10))
	b := in.Ult(in.Byte(2), x)
	c := in.Ne(x, in.Byte(5))
	f := in.BAnd2(in.BAnd2(a, b), c)
	got := Conjuncts(nil, f)
	if len(got) != 3 || got[0] != a || got[1] != b || got[2] != c {
		t.Fatalf("Conjuncts = %v, want [a b c]", got)
	}
	// Non-conjunction formulas are a single conjunct.
	if got := Conjuncts(nil, a); len(got) != 1 || got[0] != a {
		t.Fatalf("Conjuncts(atom) = %v", got)
	}
}

func TestVarNamesTagsSorts(t *testing.T) {
	in := NewInterner()
	x := in.Var("v", 8)
	bvar := in.BoolVar("v") // same name, different sort
	f := in.BAnd2(in.Eq(in.Ite(bvar, x, in.Byte(0)), in.Byte(3)), bvar)
	var scan VarScanner
	names := scan.Names(nil, f)
	sort.Strings(names)
	// Dedupe (DAG sharing already prevents most repeats, but not across
	// distinct nodes).
	uniq := names[:0]
	for i, n := range names {
		if i == 0 || names[i-1] != n {
			uniq = append(uniq, n)
		}
	}
	want := []string{"b:v", "t:v"}
	if len(uniq) != 2 || uniq[0] != want[0] || uniq[1] != want[1] {
		t.Fatalf("Names = %v, want %v", uniq, want)
	}
}
