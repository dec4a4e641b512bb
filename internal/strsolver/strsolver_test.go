package strsolver

import (
	"fmt"
	"testing"

	"stringloops/internal/bv"
	"stringloops/internal/cstr"
	"stringloops/internal/sat"
)

// tin is the shared interner for this package's tests.
var tin = bv.NewInterner()

// enumBuffers yields every NUL-terminated buffer of capacity maxLen over the
// given alphabet (alphabet must not include NUL; shorter strings arise from
// embedded NULs which we add explicitly).
func enumBuffers(maxLen int, alphabet []byte) [][]byte {
	syms := append([]byte{0}, alphabet...)
	var out [][]byte
	var rec func(prefix []byte)
	rec = func(prefix []byte) {
		if len(prefix) == maxLen {
			buf := append(append([]byte{}, prefix...), 0)
			out = append(out, buf)
			return
		}
		for _, c := range syms {
			rec(append(prefix, c))
		}
	}
	rec(nil)
	return out
}

// evalOn builds the predicate on a concrete SymString and evaluates it.
func evalOn(buf []byte, pred func(*SymString) *bv.Bool) bool {
	s, err := FromConcrete(tin, buf)
	if err != nil {
		panic(err)
	}
	return pred(s).Eval(nil)
}

func TestLenIsExhaustive(t *testing.T) {
	for _, buf := range enumBuffers(3, []byte{'a', 'b'}) {
		n := cstr.Strlen(buf, 0)
		for k := 0; k <= 3; k++ {
			got := evalOn(buf, func(s *SymString) *bv.Bool { return s.LenIs(k) })
			if got != (k == n) {
				t.Fatalf("LenIs(%d) on %q: got %v, strlen=%d", k, buf, got, n)
			}
		}
	}
}

func TestSpnIsExhaustive(t *testing.T) {
	sets := [][]byte{{'a'}, {'a', 'b'}, {' '}, {cstr.MetaDigit}}
	for _, setBytes := range sets {
		set := concreteSet(tin, setBytes)
		expanded := cstr.ExpandMeta(setBytes)
		for _, buf := range enumBuffers(3, []byte{'a', 'b', '0'}) {
			for from := 0; from <= cstr.Strlen(buf, 0); from++ {
				want := cstr.Strspn(buf, from, expanded)
				for n := 0; n <= 3; n++ {
					got := evalOn(buf, func(s *SymString) *bv.Bool { return s.SpnIs(from, n, set) })
					if got != (n == want) {
						t.Fatalf("SpnIs(from=%d, n=%d, set=%q) on %q: got %v, want strspn=%d",
							from, n, setBytes, buf, got, want)
					}
				}
			}
		}
	}
}

func TestCspnIsExhaustive(t *testing.T) {
	set := concreteSet(tin, []byte{'b'})
	for _, buf := range enumBuffers(3, []byte{'a', 'b'}) {
		for from := 0; from <= cstr.Strlen(buf, 0); from++ {
			want := cstr.Strcspn(buf, from, []byte{'b'})
			for n := 0; n <= 3; n++ {
				got := evalOn(buf, func(s *SymString) *bv.Bool { return s.CspnIs(from, n, set) })
				if got != (n == want) {
					t.Fatalf("CspnIs(from=%d, n=%d) on %q: got %v, want strcspn=%d",
						from, n, buf, got, want)
				}
			}
		}
	}
}

func TestChrIsExhaustive(t *testing.T) {
	for _, c := range []byte{'a', 'b', 0} {
		for _, buf := range enumBuffers(3, []byte{'a', 'b'}) {
			for from := 0; from <= cstr.Strlen(buf, 0); from++ {
				want := cstr.Strchr(buf, from, c)
				for j := from; j <= 3; j++ {
					got := evalOn(buf, func(s *SymString) *bv.Bool { return s.ChrIs(from, j, tin.Byte(c)) })
					if got != (j == want) {
						t.Fatalf("ChrIs(from=%d, j=%d, c=%q) on %q: got %v, strchr=%d",
							from, j, c, buf, got, want)
					}
				}
				gotNone := evalOn(buf, func(s *SymString) *bv.Bool { return s.ChrNone(from, tin.Byte(c)) })
				if gotNone != (want == cstr.NotFound) {
					t.Fatalf("ChrNone(from=%d, c=%q) on %q: got %v, strchr=%d", from, c, buf, gotNone, want)
				}
			}
		}
	}
}

func TestRchrIsExhaustive(t *testing.T) {
	for _, c := range []byte{'a', 'b', 0} {
		for _, buf := range enumBuffers(3, []byte{'a', 'b'}) {
			for from := 0; from <= cstr.Strlen(buf, 0); from++ {
				want := cstr.Strrchr(buf, from, c)
				for j := from; j <= 3; j++ {
					got := evalOn(buf, func(s *SymString) *bv.Bool { return s.RchrIs(from, j, tin.Byte(c)) })
					if got != (j == want) {
						t.Fatalf("RchrIs(from=%d, j=%d, c=%q) on %q: got %v, strrchr=%d",
							from, j, c, buf, got, want)
					}
				}
				gotNone := evalOn(buf, func(s *SymString) *bv.Bool { return s.RchrNone(from, tin.Byte(c)) })
				if gotNone != (want == cstr.NotFound) {
					t.Fatalf("RchrNone(from=%d, c=%q) on %q: got %v", from, c, buf, gotNone)
				}
			}
		}
	}
}

func TestPbrkIsExhaustive(t *testing.T) {
	setBytes := []byte{'b', ' '}
	set := concreteSet(tin, setBytes)
	for _, buf := range enumBuffers(3, []byte{'a', 'b', ' '}) {
		for from := 0; from <= cstr.Strlen(buf, 0); from++ {
			want := cstr.Strpbrk(buf, from, setBytes)
			for j := from; j <= 3; j++ {
				got := evalOn(buf, func(s *SymString) *bv.Bool { return s.PbrkIs(from, j, set) })
				if got != (j == want) {
					t.Fatalf("PbrkIs(from=%d, j=%d) on %q: got %v, strpbrk=%d", from, j, buf, got, want)
				}
			}
			gotNone := evalOn(buf, func(s *SymString) *bv.Bool { return s.PbrkNone(from, set) })
			if gotNone != (want == cstr.NotFound) {
				t.Fatalf("PbrkNone(from=%d) on %q: got %v", from, buf, gotNone)
			}
		}
	}
}

func TestRawchrIsExhaustive(t *testing.T) {
	for _, c := range []byte{'a', 0} {
		for _, buf := range enumBuffers(3, []byte{'a', 'b'}) {
			// Reference: scan the raw buffer.
			want := -1
			for i := 0; i < len(buf); i++ {
				if buf[i] == c {
					want = i
					break
				}
			}
			for j := 0; j <= 3; j++ {
				got := evalOn(buf, func(s *SymString) *bv.Bool { return s.RawchrIs(0, j, tin.Byte(c)) })
				if got != (j == want) {
					t.Fatalf("RawchrIs(j=%d, c=%q) on %q: got %v, want idx %d", j, c, buf, got, want)
				}
			}
			gotNone := evalOn(buf, func(s *SymString) *bv.Bool { return s.RawchrNone(0, tin.Byte(c)) })
			if gotNone != (want == -1) {
				t.Fatalf("RawchrNone(c=%q) on %q: got %v", c, buf, gotNone)
			}
		}
	}
}

func TestSetContainsMeta(t *testing.T) {
	set := concreteSet(tin, []byte{cstr.MetaDigit, 'x'})
	for c := 0; c < 256; c++ {
		want := cstr.MatchSet(byte(c), []byte{cstr.MetaDigit, 'x'})
		s := Wrap(tin, []*bv.Term{tin.Byte(byte(c)), tin.Byte(0)})
		got := s.contains(set, s.setNum(set), 0).Eval(nil)
		if got != want {
			t.Fatalf("Contains(%d) = %v, want %v", c, got, want)
		}
	}
}

func TestSolveForString(t *testing.T) {
	// Ask the solver for a string whose whitespace span is exactly 2 and
	// whose third character is 'x'.
	s := New(tin, "s", 3)
	set := concreteSet(tin, []byte{' ', '\t'})
	solver := bv.NewSolver()
	solver.Assert(s.SpnIs(0, 2, set))
	solver.Assert(tin.Eq(s.At(2), tin.Byte('x')))
	if st := solver.Check(); st != sat.Sat {
		t.Fatalf("Check = %v", st)
	}
	var a bv.Assignment
	a.Terms = map[string]uint64{}
	for i := 0; i < 3; i++ {
		a.Terms[fmt.Sprintf("s[%d]", i)] = s.At(i).Eval(solver.ModelAssignment())
	}
	buf := s.Concretize(&a)
	if got := cstr.Strspn(buf, 0, []byte(" \t")); got != 2 {
		t.Fatalf("model %q has span %d, want 2", buf, got)
	}
	if buf[2] != 'x' {
		t.Fatalf("model %q third char not 'x'", buf)
	}
}

func TestSolveSymbolicSetMember(t *testing.T) {
	// Synthesis-style query: find a set member a such that strspn("  x", {a}) == 2.
	buf := cstr.Terminate("  x")
	s, err := FromConcrete(tin, buf)
	if err != nil {
		t.Fatal(err)
	}
	a := tin.Var("a", 8)
	set := Set{Members: []*bv.Term{a}}
	solver := bv.NewSolver()
	solver.Assert(s.SpnIs(0, 2, set))
	solver.Assert(tin.Ne(a, tin.Byte(0)))
	if st := solver.Check(); st != sat.Sat {
		t.Fatalf("Check = %v", st)
	}
	av := byte(a.Eval(solver.ModelAssignment()))
	// The only single members with span exactly 2 on "  x" are ' ' and the
	// whitespace meta-character.
	if av != ' ' && av != cstr.MetaSpace {
		t.Fatalf("solved member %q, want space or whitespace meta", av)
	}
}

func TestSolveSymbolicSetUnsat(t *testing.T) {
	// No single set member gives strspn("ab", set) == 2: would need both.
	buf := cstr.Terminate("ab")
	s, err := FromConcrete(tin, buf)
	if err != nil {
		t.Fatal(err)
	}
	a := tin.Var("a", 8)
	solver := bv.NewSolver()
	solver.Assert(s.SpnIs(0, 2, Set{Members: []*bv.Term{a}}))
	if st := solver.Check(); st != sat.Unsat {
		t.Fatalf("Check = %v, want unsat", st)
	}
}

func TestFromConcreteRequiresTerminator(t *testing.T) {
	if _, err := FromConcrete(tin, []byte("abc")); err == nil {
		t.Fatal("expected an error for an unterminated buffer")
	}
	if _, err := FromConcrete(tin, nil); err == nil {
		t.Fatal("expected an error for an empty buffer")
	}
	if s, err := FromConcrete(tin, []byte{0}); err != nil || s.MaxLen() != 0 {
		t.Fatalf("FromConcrete on a bare terminator: s=%v err=%v", s, err)
	}
}

// concreteSet builds a Set of constant members.
func concreteSet(in *bv.Interner, chars []byte) Set {
	s := Set{Members: make([]*bv.Term, len(chars))}
	for i, c := range chars {
		s.Members[i] = in.Byte(c)
	}
	return s
}
