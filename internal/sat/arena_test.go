package sat

import (
	"math/rand"
	"runtime"
	"testing"
)

// liveWords counts the arena words of the clauses the watch lists reach,
// the reserved word at offset 0 included. Every clause the solver stores has
// two or more literals, so each live clause is on two watch lists.
func liveWords(t *testing.T, s *Solver) int {
	t.Helper()
	seen := map[cref]bool{}
	n := 1
	for _, ws := range s.watches {
		for _, w := range ws {
			if seen[w.c] {
				continue
			}
			seen[w.c] = true
			if s.arena[w.c]&hdrDeleted != 0 {
				t.Fatalf("a watcher refers to deleted clause %d", w.c)
			}
			n += words(s.arena[w.c])
		}
	}
	return n
}

// TestCompactionBoundsArena runs many reductions on one solver and holds
// the arena, after every solve, to at most twice the words of its live
// clauses: the words of deleted learnt clauses are reclaimed.
func TestCompactionBoundsArena(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := New()
	s.reduceBase, s.reduceInc = 50, 10
	compactions := 0
	for i := 0; i < 40; i++ {
		wasted := s.wasted
		if s.SolveAssuming(randomThreeSAT(s, rng, 100, 426)) == Unknown {
			t.Fatalf("block %d: an unbudgeted solve gave up", i)
		}
		if s.wasted < wasted {
			compactions++
		}
		if live := liveWords(t, s); len(s.arena) > 2*live {
			t.Fatalf("block %d: arena holds %d words, %d of them live", i, len(s.arena), live)
		}
	}
	if s.Reduces() < 50 || compactions == 0 {
		t.Fatalf("%d reductions and %d compacting solves: the test exercised too little", s.Reduces(), compactions)
	}
	t.Logf("conflicts=%d reduces=%d compacting solves=%d arena=%d words", s.Conflicts(), s.Reduces(), compactions, len(s.arena))
}

// TestSearchAllocatesLittlePerConflict solves a long sequence of queries on
// one solver and holds it under one allocation per 16 conflicts: a learnt
// clause is built in a reused buffer and copied into the arena, so what
// remains is amortised growth of the arena, the watch lists and the learnt
// list, and reduceDB's sort.
func TestSearchAllocatesLittlePerConflict(t *testing.T) {
	const nVars, nQueries = 150, 600
	rng := rand.New(rand.NewSource(5))
	s := New()
	s.reduceBase, s.reduceInc = 200, 50
	act := randomThreeSAT(s, rng, nVars, 639)
	queries := make([][]Lit, nQueries)
	for i := range queries {
		q := []Lit{act}
		for k := 0; k < 5; k++ {
			q = append(q, Lit(rng.Intn(nVars)<<1|rng.Intn(2)))
		}
		queries[i] = q
	}
	// The first queries grow the watch lists to their working size.
	warm := nQueries / 4
	for _, q := range queries[:warm] {
		s.SolveAssuming(q...)
	}

	var before, after runtime.MemStats
	conflicts := s.Conflicts()
	runtime.ReadMemStats(&before)
	for _, q := range queries[warm:] {
		s.SolveAssuming(q...)
	}
	runtime.ReadMemStats(&after)
	conflicts = s.Conflicts() - conflicts
	mallocs := after.Mallocs - before.Mallocs
	if conflicts < 5000 || s.Reduces() < 20 {
		t.Fatalf("%d conflicts and %d reductions: the test exercised too little", conflicts, s.Reduces())
	}
	if 16*mallocs >= uint64(conflicts) {
		t.Fatalf("%d allocations over %d conflicts, want fewer than one per 16", mallocs, conflicts)
	}
	t.Logf("%d allocations over %d conflicts, %d reductions", mallocs, conflicts, s.Reduces())
}
