package qcache

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"stringloops/internal/bv"
)

// refGroup is one group as the reference slicer returns it.
type refGroup struct {
	conj []*bv.Bool
	ids  []int
}

// referenceSlice is the string-keyed union-find slicing used before dense
// variable ids, kept as an oracle: tagged variable names own conjuncts
// through a map, roots collect their groups in first-conjunct order, and
// IDs are assigned through ref in query order.
func referenceSlice(ref *Cache, conj []*bv.Bool) []refGroup {
	parent := make([]int, len(conj))
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	varOwner := map[string]int{}
	var scan bv.VarScanner
	for i, cj := range conj {
		for _, v := range scan.Names(nil, cj) {
			if j, ok := varOwner[v]; ok {
				if ri, rj := find(i), find(j); ri != rj {
					parent[ri] = rj
				}
			} else {
				varOwner[v] = i
			}
		}
	}
	byRoot := map[int]*refGroup{}
	var order []int
	for i, cj := range conj {
		r := find(i)
		g, ok := byRoot[r]
		if !ok {
			g = &refGroup{}
			byRoot[r] = g
			order = append(order, r)
		}
		g.conj = append(g.conj, cj)
		g.ids = append(g.ids, ref.info(cj).id)
	}
	out := make([]refGroup, 0, len(order))
	for _, r := range order {
		sort.Ints(byRoot[r].ids)
		out = append(out, *byRoot[r])
	}
	return out
}

// sliceCopy runs c.slice and copies the result out of the cache's scratch.
func sliceCopy(c *Cache, conj []*bv.Bool) []refGroup {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []refGroup
	for _, g := range c.slice(conj) {
		out = append(out, refGroup{conj: slices.Clone(g.conj), ids: slices.Clone(g.ids)})
	}
	return out
}

func sameGroups(t *testing.T, label string, got, want []refGroup) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d groups, reference has %d", label, len(got), len(want))
	}
	for i := range got {
		if !slices.Equal(got[i].conj, want[i].conj) {
			t.Fatalf("%s: group %d conjuncts differ from the reference (order or membership)", label, i)
		}
		if !slices.Equal(got[i].ids, want[i].ids) {
			t.Fatalf("%s: group %d ids %v, reference %v", label, i, got[i].ids, want[i].ids)
		}
	}
}

// TestSliceMatchesReference holds the dense-id slicer to the string-keyed
// reference over random conjunction sets through one long-lived cache, so
// a stale epoch stamp or scratch buffer from an earlier query would show as
// a wrong merge. The reference assigns IDs through its own cache, so equal
// ids also pin the ID assignment order.
func TestSliceMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	in := bv.NewInterner()
	c, ref := New(in), New(in)
	terms := make([]*bv.Term, 8)
	for i := range terms {
		terms[i] = in.Var(string(rune('a'+i)), 8)
	}
	// Boolean variables named like term variables: the sort tag must keep
	// them apart.
	bools := []*bv.Bool{in.BoolVar("a"), in.BoolVar("b"), in.BoolVar("q")}
	randConj := func() *bv.Bool {
		x := terms[rng.Intn(len(terms))]
		switch rng.Intn(6) {
		case 0:
			return in.Ult(x, terms[rng.Intn(len(terms))])
		case 1:
			return in.Eq(in.Add(x, terms[rng.Intn(len(terms))]), in.Byte(byte(rng.Intn(256))))
		case 2:
			return bools[rng.Intn(len(bools))]
		case 3:
			return in.BOr2(bools[rng.Intn(len(bools))], in.Ult(x, in.Byte(byte(rng.Intn(256)))))
		case 4:
			return in.Ult(in.Byte(byte(rng.Intn(256))), x)
		default:
			return in.Ne(x, in.Byte(byte(rng.Intn(256))))
		}
	}
	for q := 0; q < 400; q++ {
		conj := make([]*bv.Bool, 1+rng.Intn(12))
		for i := range conj {
			conj[i] = randConj()
		}
		conj, _ = dedupe(conj)
		if len(conj) == 0 {
			continue
		}
		sameGroups(t, "random query", sliceCopy(c, conj), referenceSlice(ref, conj))
	}
}

// TestSliceTermAndBoolVarsDoNotAlias: a bit-vector variable and a boolean
// variable with the same name are different variables.
func TestSliceTermAndBoolVarsDoNotAlias(t *testing.T) {
	in := bv.NewInterner()
	c, ref := New(in), New(in)
	conj := []*bv.Bool{in.Ult(in.Var("p", 8), in.Byte(5)), in.BoolVar("p")}
	got := sliceCopy(c, conj)
	sameGroups(t, "same-name vars", got, referenceSlice(ref, conj))
	if len(got) != 2 {
		t.Fatalf("got %d groups, want the term p and the bool p apart", len(got))
	}
}

// TestSliceVariableFreeSingletons: items without variables share nothing,
// so each is its own component. The interner folds every variable-free
// comparison to a constant, and dedupe drops True and answers False, so no
// formula can bring such a conjunct to slicing; the rule is checked on
// components, which slicing runs over the conjuncts' variable ids.
func TestSliceVariableFreeSingletons(t *testing.T) {
	c := New(bv.NewInterner())
	c.varNames = []string{"t:x"}
	vars := [][]int32{nil, {0}, nil, {0}}
	c.mu.Lock()
	member, size := c.components(len(vars), func(i int) []int32 { return vars[i] })
	c.mu.Unlock()
	if !slices.Equal(member, []int32{0, 1, 2, 1}) || !slices.Equal(size, []int{1, 2, 1}) {
		t.Fatalf("components member %v size %v, want [0 1 2 1] and [1 2 1]: [c0] [x<9 x≠4] [c2]", member, size)
	}
}

// TestSliceEpochWrap: when the stamp epoch wraps, stamps left by the
// queries that ran at the reused epoch numbers must not read as current.
func TestSliceEpochWrap(t *testing.T) {
	in := bv.NewInterner()
	c, ref := New(in), New(in)
	x, y, w := in.Var("x", 8), in.Var("y", 8), in.Var("w", 8)
	first := []*bv.Bool{in.Ult(x, in.Byte(5)), in.Ult(y, in.Byte(5))} // stamps x, y at epoch 1
	sameGroups(t, "before the wrap", sliceCopy(c, first), referenceSlice(ref, first))
	c.mu.Lock()
	c.scr.epoch = math.MaxUint32 // the next query wraps back to epoch 1
	c.mu.Unlock()
	after := []*bv.Bool{in.Ult(w, in.Byte(1)), in.Ult(x, in.Byte(9)), in.Ult(y, in.Byte(9))}
	got := sliceCopy(c, after)
	sameGroups(t, "after the wrap", got, referenceSlice(ref, after))
	if len(got) != 3 {
		t.Fatalf("got %d groups after the wrap, want w, x and y apart", len(got))
	}
}
