package cir_test

import (
	"fmt"
	"slices"
	"testing"

	"stringloops/internal/cc"
	"stringloops/internal/cir"
	"stringloops/internal/diffuzz"
	"stringloops/internal/loopdb"
)

// reaches reports which blocks a walk from the roots reaches along next
// without entering the deleted block (nil deletes nothing).
func reaches(roots []*cir.Block, next func(*cir.Block) []*cir.Block, deleted *cir.Block) map[*cir.Block]bool {
	seen := map[*cir.Block]bool{}
	var walk func(b *cir.Block)
	walk = func(b *cir.Block) {
		if b == deleted || seen[b] {
			return
		}
		seen[b] = true
		for _, s := range next(b) {
			walk(s)
		}
	}
	for _, r := range roots {
		walk(r)
	}
	return seen
}

// checkDominatorsByDeletion holds f's dominator tree and its decoded
// program's post-dominators to their definitions. For every block b the
// entry reaches, a dominates b iff deleting a cuts b off from the entry. For
// every decoded block b that reaches a return, a post-dominates b iff
// deleting a cuts b off from every return.
func checkDominatorsByDeletion(t *testing.T, name string, f *cir.Func) {
	t.Helper()
	dom := cir.BuildDomTree(f)
	entry := []*cir.Block{f.Entry()}
	succs := func(b *cir.Block) []*cir.Block { return b.Succs() }
	fromEntry := reaches(entry, succs, nil)
	for _, a := range f.Blocks {
		fromEntryWithout := reaches(entry, succs, a)
		for _, b := range f.Blocks {
			if fromEntry[b] {
				if got, want := dom.Dominates(a, b), !fromEntryWithout[b]; got != want {
					t.Fatalf("%s: Dominates(%s, %s) = %v, deletion says %v", name, a.Label(), b.Label(), got, want)
				}
			}
		}
	}

	// The decoded graph is f's graph on the blocks the entry reaches.
	p := cir.Decode(f)
	n := p.NumBlocks()
	block := map[*cir.Block]int{}
	for b := range n {
		block[p.Block(b)] = b
	}
	for b := range n {
		var want []int
		for _, s := range p.Block(b).Succs() {
			want = append(want, block[s])
		}
		if got := p.Succs(b); !slices.Equal(got, want) {
			t.Fatalf("%s: decoded block %d (%s) branches to %v, the IR to %v", name, b, p.Block(b).Label(), got, want)
		}
	}
	if len(block) != len(fromEntry) {
		t.Fatalf("%s: %d blocks decoded, the entry reaches %d", name, len(block), len(fromEntry))
	}

	preds := make([][]int, n)
	var rets []int
	for b := range n {
		for _, s := range p.Succs(b) {
			preds[s] = append(preds[s], b)
		}
		if p.Returns(b) {
			rets = append(rets, b)
		}
	}
	// toReturn[d][b]: b reaches a return without passing d (-1 deletes
	// nothing).
	toReturn := func(deleted int) []bool {
		seen := make([]bool, n)
		var walk func(b int)
		walk = func(b int) {
			if b == deleted || seen[b] {
				return
			}
			seen[b] = true
			for _, q := range preds[b] {
				walk(q)
			}
		}
		for _, r := range rets {
			walk(r)
		}
		return seen
	}
	j := p.Joins()
	all := toReturn(-1)
	for a := range n {
		without := toReturn(a)
		for b := range n {
			if all[b] {
				if got, want := j.PostDominates(a, b), !without[b]; got != want {
					t.Fatalf("%s: PostDominates(%s, %s) = %v, deletion says %v", name, p.Block(a).Label(), p.Block(b).Label(), got, want)
				}
			}
		}
	}
}

// TestDominatorsMatchDeletion checks both trees on every corpus loop, as
// lowered and after Mem2Reg, and on the diffuzz programs of seeds 1..200.
func TestDominatorsMatchDeletion(t *testing.T) {
	for _, l := range loopdb.Corpus() {
		f, err := l.Lower()
		if err != nil {
			t.Fatal(err)
		}
		checkDominatorsByDeletion(t, l.Name, f)
		cir.Mem2Reg(f)
		checkDominatorsByDeletion(t, l.Name+"/ssa", f)
	}
	for seed := uint64(1); seed <= 200; seed++ {
		file, err := cc.Parse(diffuzz.Generate(seed).Source())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		funcs, err := cir.LowerFile(file)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		checkDominatorsByDeletion(t, fmt.Sprintf("diffuzz seed %d", seed), funcs[0])
	}
}
