package strsolver

import (
	"fmt"
	"math/rand"
	"testing"

	"stringloops/internal/bv"
	"stringloops/internal/cstr"
)

// memoCase is a random string, random sets and characters, and a random list
// of predicate queries on them, replayable on any interner.
type memoCase struct {
	bytes   []int // content bytes: >= 0 a constant, < 0 the variable s[-b-1]
	sets    [][]int
	chars   []int // character arguments, encoded like bytes over variables a
	queries []memoQuery
}

// memoQuery asks predicate kind (see ask) of the string, or of its reversed
// view at strlen view when view >= 0, from offset from with count or offset
// k of set or character number arg.
type memoQuery struct{ kind, view, from, k, arg int }

// memoKinds is the number of predicate kinds ask knows.
const memoKinds = 11

// chars holds ordinary characters, whitespace, digits and both
// meta-characters, so memberMatches takes each of its branches.
var chars = []int{'a', 'b', ' ', '\t', '5', cstr.MetaDigit, cstr.MetaSpace}

func randomMemoCase(rng *rand.Rand) memoCase {
	var c memoCase
	n := rng.Intn(5)
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 0 {
			c.bytes = append(c.bytes, chars[rng.Intn(len(chars))])
		} else {
			c.bytes = append(c.bytes, -i-1)
		}
	}
	c.bytes = append(c.bytes, 0)
	// Member and character variables are shared across sets and characters,
	// as CEGIS's argument variables are across skeletons. Sets run from
	// empty to past the synthesizer's default bound of three members.
	arg := func() int {
		switch rng.Intn(3) {
		case 0:
			return chars[rng.Intn(len(chars))]
		case 1:
			return 0
		}
		return -rng.Intn(4) - 1
	}
	for i := 0; i < 4; i++ {
		var set []int
		for j := rng.Intn(6); j > 0; j-- {
			set = append(set, arg())
		}
		c.sets = append(c.sets, set)
		c.chars = append(c.chars, arg())
	}
	for i := 0; i < 60; i++ {
		q := memoQuery{kind: rng.Intn(memoKinds), view: -1, from: rng.Intn(n + 1), k: rng.Intn(n + 2), arg: rng.Intn(4)}
		if rng.Intn(3) == 0 {
			q.view = rng.Intn(n + 1)
			q.from = rng.Intn(q.view + 1)
		}
		c.queries = append(c.queries, q)
	}
	return c
}

// build interns the case's string bytes, sets and characters on in.
func (c memoCase) build(in *bv.Interner) ([]*bv.Term, []Set, []*bv.Term) {
	term := func(b int, name string) *bv.Term {
		if b >= 0 {
			return in.Byte(byte(b))
		}
		return in.Var(fmt.Sprintf("%s%d", name, -b-1), 8)
	}
	bytes := make([]*bv.Term, len(c.bytes))
	for i, b := range c.bytes {
		bytes[i] = term(b, "s")
	}
	sets := make([]Set, len(c.sets))
	for i, set := range c.sets {
		for _, b := range set {
			sets[i].Members = append(sets[i].Members, term(b, "a"))
		}
	}
	chs := make([]*bv.Term, len(c.chars))
	for i, b := range c.chars {
		chs[i] = term(b, "a")
	}
	return bytes, sets, chs
}

// predicates is the predicate surface shared by SymString and the memo-free
// reference below.
type predicates interface {
	LenIs(n int) *bv.Bool
	SpnIs(from, n int, set Set) *bv.Bool
	CspnIs(from, n int, set Set) *bv.Bool
	ChrIs(from, j int, c *bv.Term) *bv.Bool
	ChrNone(from int, c *bv.Term) *bv.Bool
	RchrIs(from, j int, c *bv.Term) *bv.Bool
	RchrNone(from int, c *bv.Term) *bv.Bool
	PbrkIs(from, j int, set Set) *bv.Bool
	PbrkNone(from int, set Set) *bv.Bool
	RawchrIs(from, j int, c *bv.Term) *bv.Bool
	RawchrNone(from int, c *bv.Term) *bv.Bool
}

func (q memoQuery) ask(s predicates, sets []Set, chs []*bv.Term) *bv.Bool {
	set, c, j := sets[q.arg], chs[q.arg], q.from+q.k
	switch q.kind {
	case 0:
		return s.LenIs(q.k)
	case 1:
		return s.SpnIs(q.from, q.k, set)
	case 2:
		return s.CspnIs(q.from, q.k, set)
	case 3:
		return s.ChrIs(q.from, j, c)
	case 4:
		return s.ChrNone(q.from, c)
	case 5:
		return s.RchrIs(q.from, j, c)
	case 6:
		return s.RchrNone(q.from, c)
	case 7:
		return s.PbrkIs(q.from, j, set)
	case 8:
		return s.PbrkNone(q.from, set)
	case 9:
		return s.RawchrIs(q.from, j, c)
	}
	return s.RawchrNone(q.from, c)
}

// TestMembershipMemoIsExact asks random predicates of every kind, repeated
// and interleaved, of one memoizing SymString and of its reversed views.
// Each answer must be the very node a fresh SymString over the same bytes
// (Wrap, then Reversed for a view) builds on the same interner. A second
// interner that answers every query with refString, which builds each
// formula from scratch with no memo at all, must give the answer the same
// node number and end with the same Nodes(): the memo changes no formula and
// no interning order.
func TestMembershipMemoIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	asked := make([]int, memoKinds)
	for trial := 0; trial < 400; trial++ {
		c := randomMemoCase(rng)
		in, ref := bv.NewInterner(), bv.NewInterner()
		bytes, sets, chs := c.build(in)
		refBytes, refSets, refChs := c.build(ref)
		memo := Wrap(in, bytes)
		for qi, q := range c.queries {
			str, fresh, plain := memo, Wrap(in, bytes), refString{ref, refBytes}
			if q.view >= 0 {
				str, fresh, plain = memo.Reversed(q.view), fresh.Reversed(q.view), plain.reversed(q.view)
			}
			got := q.ask(str, sets, chs)
			if want := q.ask(fresh, sets, chs); got != want {
				t.Fatalf("trial %d query %d %+v: memoized node %v, fresh string builds %v", trial, qi, q, got, want)
			}
			if want := q.ask(plain, refSets, refChs); got.Num() != want.Num() {
				t.Fatalf("trial %d query %d %+v: node number %d, %d without the memo", trial, qi, q, got.Num(), want.Num())
			}
			asked[q.kind]++
		}
		if in.Nodes() != ref.Nodes() {
			t.Fatalf("trial %d: %d nodes with the memo, %d without", trial, in.Nodes(), ref.Nodes())
		}
	}
	for kind, n := range asked {
		if n == 0 {
			t.Errorf("predicate kind %d never asked", kind)
		}
	}
}

// TestReversedViewIsKept checks that Reversed builds each view once and
// keeps it on the string, so the view's memo outlives the runs that use it.
func TestReversedViewIsKept(t *testing.T) {
	in := bv.NewInterner()
	s := New(in, "s", 3)
	for n := 0; n <= 3; n++ {
		v := s.Reversed(n)
		if v != s.Reversed(n) {
			t.Fatalf("Reversed(%d) built twice", n)
		}
		if v.MaxLen() != n || v.At(n) != in.Byte(0) {
			t.Fatalf("Reversed(%d) has capacity %d, terminator %v", n, v.MaxLen(), v.At(n))
		}
		for i := 0; i < n; i++ {
			if v.At(i) != s.At(n-1-i) {
				t.Fatalf("Reversed(%d) byte %d is %v, want %v", n, i, v.At(i), s.At(n-1-i))
			}
		}
	}
}

// BenchmarkPredicates times the memo's hit path: every predicate kind, at
// every offset of a 3-byte symbolic string and its reversed views, asked
// again of a string that has answered it before, as CEGIS asks each
// counterexample for every skeleton.
func BenchmarkPredicates(b *testing.B) {
	in := bv.NewInterner()
	s := New(in, "s", 3)
	var sets []Set
	var chs []*bv.Term
	for i := 0; i < 4; i++ {
		chs = append(chs, in.Var(fmt.Sprintf("a%d", i), 8))
		sets = append(sets, Set{Members: append([]*bv.Term(nil), chs...)})
	}
	var queries []memoQuery
	for kind := 0; kind < memoKinds; kind++ {
		for view := -1; view <= 3; view++ {
			n := 3
			if view >= 0 {
				n = view
			}
			for from := 0; from <= n; from++ {
				for k := 0; from+k <= n; k++ {
					for arg := range chs {
						queries = append(queries, memoQuery{kind, view, from, k, arg})
					}
				}
			}
		}
	}
	ask := func() {
		for _, q := range queries {
			str := s
			if q.view >= 0 {
				str = s.Reversed(q.view)
			}
			predicateSink = q.ask(str, sets, chs)
		}
	}
	ask()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ask()
	}
	b.ReportMetric(float64(len(queries)), "queries/op")
}

// predicateSink keeps BenchmarkPredicates' answers live.
var predicateSink *bv.Bool

// refString is the memo-free reference for SymString's predicates: each
// builds its formula from scratch with the same constructor calls in the
// same order, as SymString did before its predicate memo.
type refString struct {
	in    *bv.Interner
	Bytes []*bv.Term
}

func (s refString) maxLen() int { return len(s.Bytes) - 1 }

// reversed is s reversed at strlen n, NUL-terminated.
func (s refString) reversed(n int) refString {
	bytes := make([]*bv.Term, n+1)
	for i := 0; i < n; i++ {
		bytes[i] = s.Bytes[n-1-i]
	}
	bytes[n] = s.in.Byte(0)
	return refString{s.in, bytes}
}

func (s refString) LenIs(n int) *bv.Bool {
	in := s.in
	if n < 0 || n > s.maxLen() {
		return bv.False
	}
	cond := in.Eq(s.Bytes[n], in.Byte(0))
	for i := 0; i < n; i++ {
		cond = in.BAnd2(cond, in.Ne(s.Bytes[i], in.Byte(0)))
	}
	return cond
}

func (s refString) contains(set Set, c *bv.Term) *bv.Bool {
	in := s.in
	cond := bv.False
	for _, m := range set.Members {
		cond = in.BOr2(cond, s.memberMatches(m, c))
	}
	return in.BAnd2(cond, in.Ne(c, in.Byte(0)))
}

func (s refString) memberMatches(a, c *bv.Term) *bv.Bool {
	in := s.in
	isDigitC := in.BAnd2(in.Ule(in.Byte('0'), c), in.Ule(c, in.Byte('9')))
	isSpaceC := in.BOrAll(in.Eq(c, in.Byte(' ')), in.Eq(c, in.Byte('\t')), in.Eq(c, in.Byte('\n')))
	return in.BOrAll(
		in.BAnd2(in.Eq(a, in.Byte(cstr.MetaDigit)), isDigitC),
		in.BAnd2(in.Eq(a, in.Byte(cstr.MetaSpace)), isSpaceC),
		in.BAndAll(in.Ne(a, in.Byte(cstr.MetaDigit)), in.Ne(a, in.Byte(cstr.MetaSpace)), in.Eq(c, a)),
	)
}

func (s refString) SpnIs(from, n int, set Set) *bv.Bool {
	in := s.in
	if from+n > s.maxLen() {
		return bv.False
	}
	cond := bv.True
	for i := from; i < from+n; i++ {
		cond = in.BAnd2(cond, s.contains(set, s.Bytes[i]))
	}
	stop := in.BOr2(in.Eq(s.Bytes[from+n], in.Byte(0)), in.BNot1(s.contains(set, s.Bytes[from+n])))
	return in.BAnd2(cond, stop)
}

func (s refString) CspnIs(from, n int, set Set) *bv.Bool {
	in := s.in
	if from+n > s.maxLen() {
		return bv.False
	}
	cond := bv.True
	for i := from; i < from+n; i++ {
		cond = in.BAnd2(cond, in.BAnd2(in.BNot1(s.contains(set, s.Bytes[i])), in.Ne(s.Bytes[i], in.Byte(0))))
	}
	stop := in.BOr2(in.Eq(s.Bytes[from+n], in.Byte(0)), s.contains(set, s.Bytes[from+n]))
	return in.BAnd2(cond, stop)
}

func (s refString) ChrIs(from, j int, c *bv.Term) *bv.Bool {
	in := s.in
	if j < from || j > s.maxLen() {
		return bv.False
	}
	cond := in.Eq(s.Bytes[j], c)
	for i := from; i < j; i++ {
		cond = in.BAndAll(cond, in.Ne(s.Bytes[i], c), in.Ne(s.Bytes[i], in.Byte(0)))
	}
	return cond
}

func (s refString) ChrNone(from int, c *bv.Term) *bv.Bool {
	in := s.in
	cond := in.Ne(c, in.Byte(0))
	cases := bv.False
	for k := from; k <= s.maxLen(); k++ {
		kase := in.Eq(s.Bytes[k], in.Byte(0))
		for i := from; i < k; i++ {
			kase = in.BAndAll(kase, in.Ne(s.Bytes[i], in.Byte(0)), in.Ne(s.Bytes[i], c))
		}
		cases = in.BOr2(cases, kase)
	}
	return in.BAnd2(cond, cases)
}

func (s refString) alive(from, i int) *bv.Bool {
	in := s.in
	cond := bv.True
	for k := from; k < i; k++ {
		cond = in.BAnd2(cond, in.Ne(s.Bytes[k], in.Byte(0)))
	}
	return cond
}

func (s refString) RchrIs(from, j int, c *bv.Term) *bv.Bool {
	in := s.in
	if j < from || j > s.maxLen() {
		return bv.False
	}
	cond := in.BAnd2(s.alive(from, j), in.Eq(s.Bytes[j], c))
	if jv, ok := c.IsConst(); !ok || jv != 0 {
		cond = in.BAnd2(cond, in.BOr2(in.Ne(s.Bytes[j], in.Byte(0)), in.Eq(c, in.Byte(0))))
	}
	for i := j + 1; i <= s.maxLen(); i++ {
		later := in.BAnd2(s.alive(from, i), in.Eq(s.Bytes[i], c))
		cond = in.BAnd2(cond, in.BNot1(later))
	}
	return cond
}

func (s refString) RchrNone(from int, c *bv.Term) *bv.Bool { return s.ChrNone(from, c) }

func (s refString) PbrkIs(from, j int, set Set) *bv.Bool {
	in := s.in
	if j < from || j > s.maxLen() {
		return bv.False
	}
	cond := s.contains(set, s.Bytes[j])
	for i := from; i < j; i++ {
		cond = in.BAndAll(cond, in.BNot1(s.contains(set, s.Bytes[i])), in.Ne(s.Bytes[i], in.Byte(0)))
	}
	return cond
}

func (s refString) PbrkNone(from int, set Set) *bv.Bool {
	in := s.in
	cases := bv.False
	for k := from; k <= s.maxLen(); k++ {
		kase := in.Eq(s.Bytes[k], in.Byte(0))
		for i := from; i < k; i++ {
			kase = in.BAndAll(kase, in.Ne(s.Bytes[i], in.Byte(0)), in.BNot1(s.contains(set, s.Bytes[i])))
		}
		cases = in.BOr2(cases, kase)
	}
	return cases
}

func (s refString) RawchrIs(from, j int, c *bv.Term) *bv.Bool {
	in := s.in
	if j < from || j > s.maxLen() {
		return bv.False
	}
	cond := in.Eq(s.Bytes[j], c)
	for i := from; i < j; i++ {
		cond = in.BAnd2(cond, in.Ne(s.Bytes[i], c))
	}
	return cond
}

func (s refString) RawchrNone(from int, c *bv.Term) *bv.Bool {
	in := s.in
	cond := bv.True
	for i := from; i <= s.maxLen(); i++ {
		cond = in.BAnd2(cond, in.Ne(s.Bytes[i], c))
	}
	return cond
}
