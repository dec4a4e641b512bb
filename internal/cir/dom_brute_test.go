package cir_test

import (
	"fmt"
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

// checkDominatorsByDeletion holds both trees of f to their definitions. For
// every block b the entry reaches, a dominates b iff deleting a cuts b off
// from the entry. For every block b that reaches a return, a post-dominates
// b iff deleting a cuts b off from every return.
func checkDominatorsByDeletion(t *testing.T, name string, f *cir.Func) {
	t.Helper()
	f.RecomputePreds()
	dom, pdom := cir.BuildDomTree(f), cir.BuildPostDomTree(f)
	entry := []*cir.Block{f.Entry()}
	var rets []*cir.Block
	for _, b := range f.Blocks {
		if term := b.Term(); term != nil && term.Op == cir.OpRet {
			rets = append(rets, b)
		}
	}
	succs := func(b *cir.Block) []*cir.Block { return b.Succs() }
	preds := func(b *cir.Block) []*cir.Block { return b.Preds }
	fromEntry, toReturn := reaches(entry, succs, nil), reaches(rets, preds, nil)
	for _, a := range f.Blocks {
		fromEntryWithout, toReturnWithout := reaches(entry, succs, a), reaches(rets, preds, a)
		for _, b := range f.Blocks {
			if fromEntry[b] {
				if got, want := dom.Dominates(a, b), !fromEntryWithout[b]; got != want {
					t.Fatalf("%s: Dominates(%s, %s) = %v, deletion says %v", name, a.Label(), b.Label(), got, want)
				}
			}
			if toReturn[b] {
				if got, want := pdom.PostDominates(a, b), !toReturnWithout[b]; got != want {
					t.Fatalf("%s: PostDominates(%s, %s) = %v, deletion says %v", name, a.Label(), b.Label(), got, want)
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
