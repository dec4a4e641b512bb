package strsolver

import (
	"fmt"
	"math/rand"
	"testing"

	"stringloops/internal/bv"
	"stringloops/internal/cstr"
)

// memoCase is a random string and a random list of set-predicate queries on
// it, replayable on any interner.
type memoCase struct {
	bytes   []int // content bytes: >= 0 a constant, < 0 the variable s[-b-1]
	sets    [][]int
	queries []memoQuery
}

// memoQuery asks predicate kind (0 SpnIs, 1 CspnIs, 2 PbrkIs, 3 PbrkNone)
// from offset from with count or offset k of set number set.
type memoQuery struct{ kind, from, k, set int }

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
	for i := 0; i < 3; i++ {
		var set []int
		for j := 0; j <= rng.Intn(3); j++ {
			if rng.Intn(2) == 0 {
				set = append(set, chars[rng.Intn(len(chars))])
			} else {
				// Member variables are shared across sets, as CEGIS's
				// argument variables are across skeletons.
				set = append(set, -rng.Intn(4)-1)
			}
		}
		c.sets = append(c.sets, set)
	}
	for i := 0; i < 40; i++ {
		from := rng.Intn(n + 1)
		c.queries = append(c.queries, memoQuery{
			kind: rng.Intn(4), from: from, k: rng.Intn(n + 2), set: rng.Intn(len(c.sets)),
		})
	}
	return c
}

// build interns the case's string bytes and sets on in.
func (c memoCase) build(in *bv.Interner) ([]*bv.Term, []Set) {
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
	return bytes, sets
}

func (q memoQuery) ask(s *SymString, sets []Set) *bv.Bool {
	set := sets[q.set]
	switch q.kind {
	case 0:
		return s.SpnIs(q.from, q.k, set)
	case 1:
		return s.CspnIs(q.from, q.k, set)
	case 2:
		return s.PbrkIs(q.from, q.from+q.k, set)
	}
	return s.PbrkNone(q.from, set)
}

// TestMembershipMemoIsExact asks random set predicates, repeated and
// interleaved, of one memoizing SymString. Each answer must be the very node
// a fresh SymString over the same bytes builds on the same interner, and a
// second interner that answers every query with a fresh SymString must end
// with the same nodes, numbered alike: the memo changes no formula and no
// interning order.
func TestMembershipMemoIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		c := randomMemoCase(rng)
		in, ref := bv.NewInterner(), bv.NewInterner()
		bytes, sets := c.build(in)
		refBytes, refSets := c.build(ref)
		memo := Wrap(in, bytes)
		for qi, q := range c.queries {
			got := q.ask(memo, sets)
			if fresh := q.ask(Wrap(in, bytes), sets); got != fresh {
				t.Fatalf("trial %d query %d %+v: memoized node %v, fresh string builds %v", trial, qi, q, got, fresh)
			}
			if want := q.ask(Wrap(ref, refBytes), refSets); got.Num() != want.Num() {
				t.Fatalf("trial %d query %d %+v: node number %d, %d without the memo", trial, qi, q, got.Num(), want.Num())
			}
		}
		if in.Nodes() != ref.Nodes() {
			t.Fatalf("trial %d: %d nodes with the memo, %d without", trial, in.Nodes(), ref.Nodes())
		}
	}
}
