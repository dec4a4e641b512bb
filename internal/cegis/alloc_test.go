package cegis

import (
	"testing"

	"stringloops/internal/vocab"
)

// TestRejectingArgumentFreeSkeletonAllocatesNothing checks that an
// argument-free skeleton that a counterexample rules out is tried without a
// single allocation: symbolize reuses its buffers, and the candidate runs on
// the counterexamples from the stack, so a Program is built only for a
// candidate that goes on to verify.
func TestRejectingArgumentFreeSkeletonAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	s := corpusLoop(t, "bash/skip_spaces")
	if err := s.addCex([]byte(" x\x00")); err != nil {
		t.Fatal(err)
	}
	// set to end; return: s+2 on " x", where the loop stops at s+1.
	skel := []shape{{op: vocab.OpSetToEnd}, {op: vocab.OpReturn}}
	if prog, _ := s.symbolize(skel); prog.RunNullInput() != s.origNull {
		t.Fatal("the skeleton fails the NULL test before reaching the counterexample")
	}
	try := func() {
		if prog, err := s.trySkeleton(skel); prog != nil || err != nil {
			t.Fatalf("trySkeleton = %v, %v; want the counterexample to reject it", prog, err)
		}
	}
	try()
	before := s.stats
	allocs := testing.AllocsPerRun(100, try)
	if got := s.stats.CandidatesRun - before.CandidatesRun; got != 101 {
		t.Fatalf("%d candidates run in 101 tries, want 101", got)
	}
	if s.stats.VerifyQueries != before.VerifyQueries {
		t.Fatalf("a rejected candidate reached verify")
	}
	if allocs != 0 {
		t.Fatalf("rejecting an argument-free skeleton allocates %v times, want 0", allocs)
	}
}
