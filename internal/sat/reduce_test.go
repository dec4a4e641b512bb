package sat

import (
	"math/rand"
	"testing"
)

// randomThreeSAT appends a fresh block of nVars variables to s and adds
// nClauses random ternary clauses over them, each guarded by the returned
// activation literal (clause ∨ ¬act), so the instance is live only while
// SolveAssuming(act) holds and deactivates afterwards without poisoning the
// solver.
func randomThreeSAT(s *Solver, rng *rand.Rand, nVars, nClauses int) Lit {
	base := make([]int, nVars)
	for i := range base {
		base[i] = s.NewVar()
	}
	act := PosLit(s.NewVar())
	for i := 0; i < nClauses; i++ {
		var lits [3]Lit
		for j := range lits {
			v := base[rng.Intn(nVars)]
			if rng.Intn(2) == 0 {
				lits[j] = PosLit(v)
			} else {
				lits[j] = NegLit(v)
			}
		}
		if !s.AddClause(lits[0], lits[1], lits[2], act.Neg()) {
			panic("guarded clause made solver unsat")
		}
	}
	return act
}

// TestReduceDBBoundsLearnts drives one long-lived solver through enough
// random 3-SAT instances (near the phase-transition ratio, so they conflict
// heavily) to accumulate well over 10k conflicts, and asserts the clause-DB
// reduction keeps the learnt database bounded where the pre-reduceDB solver
// grew it monotonically. A reduction-free reference solver checks every
// verdict, so the test also pins that deleting learnt clauses never changes
// answers.
func TestReduceDBBoundsLearnts(t *testing.T) {
	const (
		nVars      = 50
		nClauses   = 215 // ratio ~4.3: hard region
		targetConf = 10000
	)
	rng := rand.New(rand.NewSource(7))
	s := New()
	s.reduceBase = 500
	s.reduceInc = 100

	var peak int
	for inst := 0; s.Conflicts() < targetConf; inst++ {
		if inst > 500 {
			t.Fatalf("needed more than 500 instances to reach %d conflicts (got %d)", targetConf, s.Conflicts())
		}
		instRng := rand.New(rand.NewSource(rng.Int63()))
		act := randomThreeSAT(s, instRng, nVars, nClauses)
		if got := s.SolveAssuming(act); got == Unknown {
			t.Fatalf("instance %d: unexpected Unknown", inst)
		}
		if n := s.NumLearnts(); n > peak {
			peak = n
		}
	}

	if s.Conflicts() < targetConf {
		t.Fatalf("accumulated only %d conflicts", s.Conflicts())
	}
	if s.Reduces() < 1 {
		t.Fatalf("reduceDB never ran over %d conflicts", s.Conflicts())
	}
	// The schedule allows reduceBase + reduceInc*reduces live learnts, plus
	// protected clauses (glue/binary/locked) that reduceDB refuses to drop.
	// Without reduction the DB would hold one clause per (non-unit) conflict
	// — order 10^4. Assert we stayed an order of magnitude under that, both
	// at the end and at the in-run peak.
	limit := s.reduceLimit() + 1000
	if s.NumLearnts() > limit {
		t.Fatalf("learnt DB not bounded: %d clauses, limit %d (reduces=%d)", s.NumLearnts(), limit, s.Reduces())
	}
	if peak > limit+500 {
		t.Fatalf("learnt DB peak not bounded: peak %d, limit %d", peak, limit+500)
	}
	t.Logf("conflicts=%d reduces=%d learnts=%d peak=%d", s.Conflicts(), s.Reduces(), s.NumLearnts(), peak)
}

// TestReduceDBVerdictsUnchanged replays the same seeded instances through a
// reducing solver and a reduction-free reference and requires identical
// Sat/Unsat verdicts on every one: clause deletion must be invisible to
// correctness.
func TestReduceDBVerdictsUnchanged(t *testing.T) {
	const nInstances = 40
	red := New()
	red.reduceBase = 200
	red.reduceInc = 50
	for i := 0; i < nInstances; i++ {
		seed := int64(1000 + i)
		actR := randomThreeSAT(red, rand.New(rand.NewSource(seed)), 40, 172)
		gotR := red.SolveAssuming(actR)

		ref := New()
		ref.reduceBase = -1
		actF := randomThreeSAT(ref, rand.New(rand.NewSource(seed)), 40, 172)
		gotF := ref.SolveAssuming(actF)

		if gotR != gotF {
			t.Fatalf("instance %d (seed %d): reducing solver says %v, reference says %v", i, seed, gotR, gotF)
		}
		if gotR == Sat {
			// The model must actually satisfy the instance: re-check by
			// rebuilding the clause stream and evaluating.
			checkModel(t, red, seed, i)
		}
	}
	if red.Reduces() == 0 {
		t.Fatal("reducing solver never reduced; test exercised nothing")
	}
}

// checkModel rebuilds instance i's clause stream (same seed, same generator
// discipline as randomThreeSAT) and verifies the reducing solver's current
// model satisfies every clause. Variable indices are reconstructed from the
// instance's position: instances allocate 40 vars + 1 activation var each.
func checkModel(t *testing.T, s *Solver, seed int64, inst int) {
	t.Helper()
	const nVars, nClauses = 40, 172
	rng := rand.New(rand.NewSource(seed))
	base := inst * (nVars + 1)
	for c := 0; c < nClauses; c++ {
		sat := false
		for j := 0; j < 3; j++ {
			v := base + rng.Intn(nVars)
			neg := rng.Intn(2) != 0
			if s.Model(v) != neg {
				sat = true
			}
		}
		if !sat {
			t.Fatalf("instance %d: model violates clause %d", inst, c)
		}
	}
}
