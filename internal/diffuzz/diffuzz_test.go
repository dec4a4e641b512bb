package diffuzz

import (
	"context"
	"fmt"
	"testing"
	"time"

	"stringloops/internal/cc"
	"stringloops/internal/cir"
	"stringloops/internal/engine"
	"stringloops/internal/vocab"
)

func TestGenerateDeterministic(t *testing.T) {
	for _, seed := range []uint64{0, 1, 7, 42, 1 << 40} {
		a := Generate(seed).Source()
		b := Generate(seed).Source()
		if a != b {
			t.Fatalf("seed %d: two generations differ:\n%s\nvs\n%s", seed, a, b)
		}
	}
	ra, rb := newRng(9), newRng(9)
	p := Generate(9)
	for i := 0; i < 20; i++ {
		ia, ib := GenInput(ra, p, 6), GenInput(rb, p, 6)
		if string(ia) != string(ib) {
			t.Fatalf("input stream not deterministic at %d: %q vs %q", i, ia, ib)
		}
	}
}

// TestGeneratedProgramsLower pins the generator's contract with the front
// end: everything it emits must parse and lower.
func TestGeneratedProgramsLower(t *testing.T) {
	for seed := uint64(0); seed < 200; seed++ {
		src := Generate(seed).Source()
		file, err := cc.Parse(src)
		if err != nil {
			t.Fatalf("seed %d: parse: %v\n%s", seed, err, src)
		}
		if _, err := cir.LowerFile(file); err != nil {
			t.Fatalf("seed %d: lower: %v\n%s", seed, err, src)
		}
	}
}

// TestKnownLoopAllExecutorsAgree drives a hand-built skip-spaces program
// through the full pipeline: synthesis must find its summary, the loop must
// verify memoryless, and all three executors must agree — including on a
// buffer longer than the bounded-verification size, which only the
// small-model argument licenses.
func TestKnownLoopAllExecutorsAgree(t *testing.T) {
	p := &Prog{
		Form: FormWhile,
		Cond: Cond{Atoms: []Atom{{Kind: AtomCmp, Op: "==", Ch: ' '}}},
		Ret:  RetCursor,
	}
	o := Options{SynthTimeout: 5 * time.Second}
	tgt, f := PrepareTarget(77, p, &o)
	if f != nil {
		t.Fatalf("preparation finding: %s", f)
	}
	if !tgt.HasSummary {
		t.Fatalf("no summary synthesized for skip-spaces")
	}
	if !tgt.Memoryless {
		t.Fatalf("skip-spaces not verified memoryless")
	}
	for _, in := range [][]byte{nil, {0}, []byte("  ab\x00"), []byte("      end\x00")} {
		if finds := checkInput(tgt, in, DefaultExecutors()); len(finds) > 0 {
			t.Fatalf("input %q: unexpected findings: %v", in, finds[0])
		}
	}
}

// TestDoWhileShortBufferDomainGate pins a divergence the fuzzer found on
// early development runs (seeds 163/344/468): a do-while whose condition is
// always false reads s[1] unconditionally, which is UB on a capacity-1
// buffer but in-bounds on every buffer of the bounded-verification
// capacity — so CEGIS correctly accepts "increment; return" as the summary.
// The summary executor must not compare such a (non-memoryless-verified)
// summary outside its verified capacity, while symex must still agree with
// the interpreter that the capacity-1 run is UB.
func TestDoWhileShortBufferDomainGate(t *testing.T) {
	p := &Prog{
		Form: FormDoWhile,
		Cond: Cond{
			Atoms: []Atom{{Kind: AtomCtype, Fn: "isupper"}, {Kind: AtomCtype, Fn: "isspace"}},
			Conns: []string{"&&"},
		},
		Ret: RetCursor,
	}
	o := Options{SynthTimeout: 5 * time.Second}
	tgt, f := PrepareTarget(163, p, &o)
	if f != nil {
		t.Fatalf("preparation finding: %s", f)
	}
	short := []byte{0}
	want, ok, err := runConcrete(tgt, short)
	if err != nil || !ok {
		t.Fatalf("concrete run inconclusive: ok=%v err=%v", ok, err)
	}
	if want.Kind != vocab.Invalid {
		t.Fatalf("capacity-1 buffer should be UB in the interpreter, got %s", want)
	}
	if tgt.HasSummary && !tgt.Memoryless {
		if _, ok, _ := (summaryExecutor{}).Run(tgt, short); ok {
			t.Fatalf("summary compared outside its verified capacity")
		}
	}
	for _, in := range [][]byte{short, {'A', ' ', 0}, {'A', 'B', ' ', 0}} {
		if finds := checkInput(tgt, in, DefaultExecutors()); len(finds) > 0 {
			t.Fatalf("input %q: unexpected finding:\n%s", in, finds[0])
		}
	}
}

func TestRunCleanOnShippedCode(t *testing.T) {
	rep := Run(Options{Seeds: 40, Inputs: 6, SynthTimeout: 150 * time.Millisecond, Jobs: 2})
	if rep.Programs != 40 {
		t.Fatalf("checked %d of 40 programs", rep.Programs)
	}
	if rep.Checks == 0 {
		t.Fatalf("no checks performed")
	}
	for _, f := range rep.Findings {
		t.Errorf("finding on shipped code:\n%s", f)
	}
}

// offByOneExec deliberately corrupts the ground truth — any far pointer
// result is shifted back by one — standing in for a semantics bug in an
// executor. The harness must both catch it and minimize it.
type offByOneExec struct{}

func (offByOneExec) Name() string { return "buggy" }

func (offByOneExec) Run(tg *Target, input []byte) (vocab.Result, bool, error) {
	r, ok, err := runConcrete(tg, input)
	if err != nil || !ok {
		return r, ok, err
	}
	if r.Kind == vocab.Ptr && r.Off >= 2 {
		r.Off--
	}
	return r, ok, nil
}

func TestInjectedBugCaughtAndMinimized(t *testing.T) {
	rep := Run(Options{
		Seeds:        40,
		Inputs:       8,
		SynthTimeout: -time.Millisecond, // summary stage off: isolate the injected bug
		executors:    []Executor{offByOneExec{}},
		Jobs:         2,
	})
	if len(rep.Findings) == 0 {
		t.Fatalf("injected off-by-one not caught over %d programs / %d checks", rep.Programs, rep.Checks)
	}
	for _, f := range rep.Findings {
		if f.Stage != "buggy" || f.Kind != "divergence" {
			t.Fatalf("unexpected finding %s/%s:\n%s", f.Stage, f.Kind, f)
		}
		if !f.Minimized {
			t.Fatalf("finding not minimized:\n%s", f)
		}
		// The minimized witness must still be a valid program that still
		// exhibits the divergence, and the input should have shrunk to a
		// couple of characters (offset ≥ 2 needs at least two).
		file, err := cc.Parse(f.Source)
		if err != nil {
			t.Fatalf("minimized source does not parse: %v\n%s", err, f.Source)
		}
		if _, err := cir.LowerFile(file); err != nil {
			t.Fatalf("minimized source does not lower: %v\n%s", err, f.Source)
		}
		if !f.NullInput && len(f.Input) > 4 {
			t.Errorf("input not minimized (len %d): %q\n%s", len(f.Input), f.Input, f.Source)
		}
	}
}

// panicExec stands in for an executor with a crash bug: the harness must
// recover it into a finding instead of dying.
type panicExec struct{}

func (panicExec) Name() string { return "crashy" }

func (panicExec) Run(tg *Target, input []byte) (vocab.Result, bool, error) {
	if input != nil && len(input) > 2 {
		panic(fmt.Sprintf("crashy: cannot handle %d bytes", len(input)))
	}
	return runConcrete(tg, input)
}

func TestPanicRecoveredAsFinding(t *testing.T) {
	rep := Run(Options{
		Seeds:        5,
		Inputs:       6,
		SynthTimeout: -time.Millisecond,
		executors:    []Executor{panicExec{}},
		NoMinimize:   true,
		Jobs:         1,
	})
	found := false
	for _, f := range rep.Findings {
		if f.Stage == "crashy" && f.Kind == "panic" {
			found = true
		}
	}
	if !found {
		t.Fatalf("panicking executor produced no panic finding (findings: %d)", len(rep.Findings))
	}
}

func TestRunBudgetSkipsSeeds(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	b := engine.NewBudget(ctx, engine.Limits{})
	rep := Run(Options{Seeds: 10, Budget: b, Jobs: 1})
	if rep.Skipped != 10 || rep.Programs != 0 {
		t.Fatalf("expired budget: got %d checked / %d skipped, want 0/10", rep.Programs, rep.Skipped)
	}
}

func TestFindingReproducesFromSeed(t *testing.T) {
	// A finding must be reproducible from (seed, input) alone: re-deriving
	// the program from the recorded seed and re-checking the recorded input
	// against the same buggy executor re-fires the divergence.
	rep := Run(Options{
		Seeds:        40,
		Inputs:       8,
		SynthTimeout: -time.Millisecond,
		executors:    []Executor{offByOneExec{}},
		NoMinimize:   true,
		Jobs:         2,
	})
	if len(rep.Findings) == 0 {
		t.Skip("no finding to reproduce (covered by TestInjectedBugCaughtAndMinimized)")
	}
	f := rep.Findings[0]
	o := Options{SynthTimeout: -time.Millisecond}
	tgt, pf := TargetForSeed(f.Seed, &o)
	if pf != nil {
		t.Fatalf("re-preparing seed %d failed: %s", f.Seed, pf)
	}
	if tgt.Source != f.Source {
		t.Fatalf("seed %d re-derives different source:\n%s\nvs recorded\n%s", f.Seed, tgt.Source, f.Source)
	}
	var in []byte
	if !f.NullInput {
		in = f.Input
	}
	again := checkInput(tgt, in, []Executor{offByOneExec{}})
	if len(again) == 0 {
		t.Fatalf("finding did not reproduce from seed %d input %q", f.Seed, f.Input)
	}
	if again[0].Stage != f.Stage || again[0].Kind != f.Kind {
		t.Fatalf("reproduced as %s/%s, recorded %s/%s", again[0].Stage, again[0].Kind, f.Stage, f.Kind)
	}
}

func TestRunCleanWithQCache(t *testing.T) {
	// Same shipped-code sweep with cache-backed feasibility pruning in the
	// symex stage: a query-cache bug that misjudges a fork's feasibility
	// would drop the path claiming some concrete input ("no-path" finding).
	rep := Run(Options{Seeds: 30, Inputs: 6, SynthTimeout: -time.Millisecond, Jobs: 2, QCache: true})
	if rep.Programs != 30 {
		t.Fatalf("checked %d of 30 programs", rep.Programs)
	}
	if rep.Checks == 0 {
		t.Fatalf("no checks performed")
	}
	for _, f := range rep.Findings {
		t.Errorf("finding with qcache on:\n%s", f)
	}
}
