package cegis

import (
	"errors"
	"testing"

	"stringloops/internal/bv"
	"stringloops/internal/engine"
	"stringloops/internal/loopdb"
	"stringloops/internal/vocab"
)

// corpusLoop prepares a size-5 synthesizer for the named corpus loop, with
// an unlimited budget of its own.
func corpusLoop(t *testing.T, name string) *Synthesizer {
	t.Helper()
	for _, l := range loopdb.Corpus() {
		if l.Name != name {
			continue
		}
		f, err := l.Lower()
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(f, Options{MaxProgSize: 5, Budget: engine.NewBudget(nil, engine.Limits{})})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	t.Fatalf("%s: not in the corpus", name)
	return nil
}

// prefixEvents counts how the prefix levels were resumed while
// checkedSearch walked the search.
type prefixEvents struct {
	solves    int // argument-solving rounds checked
	midSkel   int // rounds after verify added a counterexample to the same skeleton
	resumed   int // skeletons resuming a shared prefix on a grown counterexample set
	deepShare int // rounds that found a prefix of two or more instructions valid
}

// checkedSearch replays Synthesize's search with trySkeleton's argument
// loop spelled out, and before every solveArgs checks runOn against
// vocab.RunSymbolic from the first instruction on every counterexample:
// the same outcomes in the same order under pointer-identical guards.
// Before every tenth skeleton with arguments it adds the next of extra to
// the counterexample set, as verify does between skeletons when a skeleton
// without arguments fails.
func checkedSearch(t *testing.T, s *Synthesizer, extra ...string) (vocab.Program, prefixEvents) {
	t.Helper()
	s.budget = s.opts.Budget
	s.bvin.SetBudget(s.budget)
	var ev prefixEvents
	var found vocab.Program
	argSkels := 0
	for size := 1; size <= s.opts.MaxProgSize && found == nil; size++ {
		err := s.enumerate(size, nil, func(skel []shape) error {
			symProg, argVars := s.symbolize(skel)
			if symProg.RunNullInput() != s.origNull || len(argVars) == 0 {
				return nil
			}
			if argSkels++; argSkels%10 == 0 && len(extra) > 0 {
				if err := s.addCex([]byte(extra[0] + "\x00")); err != nil {
					return err
				}
				extra = extra[1:]
			}
			prev := -1
			for {
				k := 0
				for k < len(symProg)-1 && k < len(s.runProg) && sameInstr(symProg[k], s.runProg[k]) {
					k++
				}
				if prev < 0 && k > 0 && s.levels[0].n > 0 && s.levels[0].n < len(s.cexs) {
					ev.resumed++
				}
				if prev >= 0 && len(s.cexs) > prev {
					ev.midSkel++
				}
				if k >= 2 && s.levels[1].n > 0 {
					ev.deepShare++
				}
				s.sharePrefix(symProg)
				for i, cs := range s.cexStr {
					got := s.runOn(symProg, i)
					want := vocab.RunSymbolic(symProg, cs)
					if len(got) != len(want) {
						t.Fatalf("%v on cex %d: %d outcomes resumed, %d from scratch", skel, i, len(got), len(want))
					}
					for j := range want {
						if got[j] != want[j] {
							t.Fatalf("%v on cex %d: outcome %d resumed %+v, from scratch %+v", skel, i, j, got[j], want[j])
						}
					}
				}
				ev.solves++
				prev = len(s.cexs)
				args, ok := s.solveArgs(symProg, argVars)
				if !ok {
					return nil
				}
				prog := concretize(skel, args)
				verified, err := s.verify(prog)
				if err != nil {
					return err
				}
				if verified != nil {
					found = verified
					return errFound
				}
			}
		})
		if err != nil && !errors.Is(err, errFound) {
			t.Fatal(err)
		}
	}
	return found, ev
}

// TestPrefixRunsMatchFromScratch checks the prefix-shared gadget runs against
// runs from the first instruction at every argument-solving round of a found
// and a refuted search. Between them they add counterexamples in the middle
// of a skeleton and between skeletons that share a prefix.
func TestPrefixRunsMatchFromScratch(t *testing.T) {
	var total prefixEvents
	for _, name := range []string{"wget/find_amp_eq", "git/mid1"} {
		_, ev := checkedSearch(t, corpusLoop(t, name), "a&=", "=&a", " = ", "&&&", "a=a", "=\x00a")
		total.solves += ev.solves
		total.midSkel += ev.midSkel
		total.resumed += ev.resumed
		total.deepShare += ev.deepShare
	}
	if total.midSkel == 0 || total.resumed == 0 || total.deepShare == 0 {
		t.Fatalf("events not covered: %+v", total)
	}
}

// TestPrefixRunsKeepTheSearch runs the search with the prefix levels under
// stress — interner tables cleared every few hundred nodes — and checks it
// finds what the default run finds. No level may claim more runs than there
// are counterexamples.
func TestPrefixRunsKeepTheSearch(t *testing.T) {
	for _, name := range []string{"wget/find_amp_eq", "git/mid1", "tar/break_nl_slash"} {
		want, err := corpusLoop(t, name).Synthesize()
		if err != nil {
			t.Fatal(err)
		}
		s := corpusLoop(t, name)
		s.bvin.SetSoftCap(256)
		got, err := s.Synthesize()
		if err != nil {
			t.Fatalf("%s, soft cap 256: %v", name, err)
		}
		if got.Found != want.Found || got.Program.Encode() != want.Program.Encode() {
			t.Errorf("%s, soft cap 256: found=%v %q, default run found=%v %q", name,
				got.Found, got.Program.Encode(), want.Found, want.Program.Encode())
		}
		for d, lv := range s.levels {
			if lv.n > len(s.cexs) {
				t.Errorf("%s, soft cap 256: level %d holds %d runs for %d counterexamples", name, d, lv.n, len(s.cexs))
			}
		}
	}
}

// TestSolveArgsStopsAtDeadCounterexample checks that argument solving gives
// up at the first counterexample no outcome of the skeleton can match: on
// bash/find_slash, which returns NULL on strings without a slash, a strspn
// skeleton always returns a pointer, so its match on the first
// counterexample is False. The later counterexamples are never run and the
// query cache is never asked. A strchr skeleton, which can return NULL,
// matches every counterexample and makes exactly one query.
func TestSolveArgsStopsAtDeadCounterexample(t *testing.T) {
	s := corpusLoop(t, "bash/find_slash")
	s.bvin.SetBudget(s.budget)
	for _, cex := range []string{"a", "bc", "d"} {
		if err := s.addCex([]byte(cex + "\x00")); err != nil {
			t.Fatal(err)
		}
	}
	if len(s.cexs) < 2 || s.cexWant[0].Kind != vocab.Null {
		t.Fatalf("set-up: %d counterexamples, Original(cex 0) = %v, want NULL", len(s.cexs), s.cexWant[0])
	}

	queries := s.budget.Count(engine.CacheQueries)
	symProg, argVars := s.symbolize([]shape{{op: vocab.OpStrspn, argLen: 1}, {op: vocab.OpReturn}})
	if _, ok := s.solveArgs(symProg, argVars); ok {
		t.Fatal("strspn skeleton solved against NULL counterexamples")
	}
	if got := s.budget.Count(engine.CacheQueries); got != queries {
		t.Errorf("dead skeleton made %d queries, want 0", got-queries)
	}
	for d, lv := range s.levels {
		if lv.n > 1 {
			t.Errorf("level %d holds runs for %d counterexamples after the first one died", d, lv.n)
		}
	}

	queries = s.budget.Count(engine.CacheQueries)
	symProg, argVars = s.symbolize([]shape{{op: vocab.OpStrchr, argLen: 1}, {op: vocab.OpReturn}})
	if _, ok := s.solveArgs(symProg, argVars); !ok {
		t.Fatal("strchr skeleton found no argument avoiding every counterexample")
	}
	for i := range s.cexs {
		if s.matches[i] == bv.False {
			t.Errorf("strchr skeleton: match on counterexample %d is False", i)
		}
	}
	if got := s.budget.Count(engine.CacheQueries); got != queries+1 {
		t.Errorf("live skeleton made %d queries, want 1", got-queries)
	}
}
