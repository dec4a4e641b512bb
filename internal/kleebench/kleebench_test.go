package kleebench

import (
	"errors"
	"testing"
	"time"

	"stringloops/internal/cc"
	"stringloops/internal/cir"
	"stringloops/internal/engine"
	"stringloops/internal/loopdb"
	"stringloops/internal/sat"
	"stringloops/internal/strsolver"
	"stringloops/internal/symex"
	"stringloops/internal/vocab"
)

const wsLoop = `
#define whitespace(c) (((c) == ' ') || ((c) == '\t'))
char* loopFunction(char* line) {
  char *p;
  for (p = line; p && *p && whitespace (*p); p++)
    ;
  return p;
}`

func lower(t testing.TB, src string) *cir.Func {
	t.Helper()
	file, err := cc.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	f, err := cir.LowerFunc(file.Funcs[0], file)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestVanillaPathGrowth(t *testing.T) {
	f := lower(t, wsLoop)
	m4 := Vanilla(f, 4, 30*time.Second)
	m8 := Vanilla(f, 8, 30*time.Second)
	if m4.TimedOut || m8.TimedOut {
		t.Fatal("small lengths must not time out")
	}
	if m8.Paths <= m4.Paths {
		t.Fatalf("vanilla paths must grow with length: %d then %d", m4.Paths, m8.Paths)
	}
	if m8.SolverQueries <= m4.SolverQueries {
		t.Fatal("solver queries must grow with length")
	}
	if m4.Tests == 0 {
		t.Fatal("vanilla should produce tests")
	}
}

// BenchmarkVanilla runs the Figure 1 loop on a symbolic string of length 8
// in the vanilla configuration with the query cache on: the feasibility
// checks of the symbolic run.
func BenchmarkVanilla(b *testing.B) {
	f := lower(b, wsLoop)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if m := Vanilla(f, 8, 0); m.TimedOut || m.Err != nil || m.Tests == 0 {
			b.Fatalf("run failed: %+v", m)
		}
	}
}

// TestEveryVanillaPathIsFeasible backs VanillaWith's count of one test per
// path with no test query: on every synthesised corpus loop at length 6,
// with the query cache and with the direct solver, each terminal path's
// condition decides Sat, and VanillaWith makes as many tests as paths.
// Under the race detector it runs every eighth loop.
func TestEveryVanillaPathIsFeasible(t *testing.T) {
	paths := 0
	for i, l := range loopdb.Corpus() {
		if !l.ExpectSynth || raceEnabled && i%8 != 0 {
			continue
		}
		f, err := l.Lower()
		if err != nil {
			t.Fatalf("%s: %v", l.Name, err)
		}
		for _, cached := range []bool{true, false} {
			cfg := Config{QCache: cached}
			budget := engine.NewBudget(nil, engine.Limits{})
			eng := cfg.stack(budget)
			ps, err := eng.RunOn(f, strsolver.New(eng.In, "s", 6).Bytes)
			if err != nil {
				t.Fatalf("%s (cache %v): %v", l.Name, cached, err)
			}
			for j, p := range ps {
				if st := eng.Cache.Decide(budget, p.Cond); st != sat.Sat {
					t.Fatalf("%s (cache %v): path %d decides %v", l.Name, cached, j, st)
				}
			}
			m := VanillaWith(f, 6, 0, cfg)
			if m.TimedOut || m.Err != nil || m.Paths != len(ps) || m.Tests != m.Paths {
				t.Fatalf("%s (cache %v): %d tests of %d paths (run found %d; timed out %v, err %v)",
					l.Name, cached, m.Tests, m.Paths, len(ps), m.TimedOut, m.Err)
			}
			paths += len(ps)
		}
	}
	t.Logf("%d terminal paths decided Sat", paths)
}

func TestStrStaysFlat(t *testing.T) {
	prog, err := vocab.Decode("ZFP \t\x00F")
	if err != nil {
		t.Fatal(err)
	}
	m4 := Str(prog, 4, 30*time.Second)
	m12 := Str(prog, 12, 30*time.Second)
	if m4.TimedOut || m12.TimedOut {
		t.Fatal("str must not time out")
	}
	// Outcomes grow linearly (one per span length), far from exponentially.
	if m12.Paths > 4*m4.Paths {
		t.Fatalf("str outcomes should grow slowly: %d then %d", m4.Paths, m12.Paths)
	}
	if m12.Tests == 0 {
		t.Fatal("str should produce tests")
	}
}

func TestSpeedupAtModerateLength(t *testing.T) {
	// The §4.3 headline: at moderate symbolic lengths the summary is much
	// faster than forking through the loop.
	f := lower(t, wsLoop)
	prog, _ := vocab.Decode("ZFP \t\x00F")
	n := 8
	v := Vanilla(f, n, time.Minute)
	s := Str(prog, n, time.Minute)
	sp := Speedup(v, s)
	if sp < 2 {
		t.Fatalf("speedup at n=%d is %.1fx; expected the summary to win clearly (vanilla %v, str %v)",
			n, sp, v.Time, s.Time)
	}
	// Both must cover the same set of behaviours (same test count): the
	// loop's distinct return offsets 0..n plus NULL.
	if v.Tests == 0 || s.Tests == 0 {
		t.Fatal("both modes must generate tests")
	}
}

func TestVanillaTimeout(t *testing.T) {
	f := lower(t, wsLoop)
	m := Vanilla(f, 16, 10*time.Millisecond)
	if !m.TimedOut {
		t.Skip("machine too fast for a 10ms timeout at n=16")
	}
}

// TestVanillaReportsRunErrors: a run that fails for a reason other than its
// budget, here a loop function of two parameters, comes back as Err and not
// as a clean run with no tests.
func TestVanillaReportsRunErrors(t *testing.T) {
	f := lower(t, `char *two(char *s, int n) { while (n-- && *s) s++; return s; }`)
	m := VanillaWith(f, 3, time.Minute, Config{QCache: true})
	if m.Err == nil || m.TimedOut {
		t.Fatalf("two-parameter loop: Err = %v, TimedOut = %v; want an arity error", m.Err, m.TimedOut)
	}
	if m.Paths != 0 || m.Tests != 0 {
		t.Fatalf("failed run reported %d paths and %d tests", m.Paths, m.Tests)
	}
}

// TestClassifyRunErrors: a run cut short by its budget, whether by the
// clock or by ErrPathLimit's cap on the path set, is a partial run
// (TimedOut, a lower bound); any other error is a failed run.
func TestClassifyRunErrors(t *testing.T) {
	other := errors.New("boom")
	for _, tc := range []struct {
		err      error
		timedOut bool
		failed   error
	}{
		{nil, false, nil},
		{symex.ErrTimeout, true, nil},
		{symex.ErrPathLimit, true, nil},
		{other, false, other},
	} {
		var m Measurement
		m.classify(tc.err)
		if m.TimedOut != tc.timedOut || m.Err != tc.failed {
			t.Errorf("classify(%v): TimedOut = %v, Err = %v; want %v, %v", tc.err, m.TimedOut, m.Err, tc.timedOut, tc.failed)
		}
	}
}
