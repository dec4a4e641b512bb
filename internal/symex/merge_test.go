package symex

import (
	"sync"
	"testing"

	"stringloops/internal/bv"
	"stringloops/internal/cir"
	"stringloops/internal/engine"
	"stringloops/internal/loopdb"
	"stringloops/internal/strsolver"
)

// countLoop forks on every byte with both sides continuing, so enumeration
// yields 2^n path suffixes — the shape state merging exists for. Merging
// folds the two arms of the if at the loop-back join into one state whose
// count is an ite, so the whole run schedules O(n) states.
const countLoop = `
int countA(char* p) {
  int count = 0;
  for (; *p; p++) {
    if (*p == 'a') { count = count + 1; }
  }
  return count;
}`

// runMerged executes f on a symbolic string of capacity maxLen with state
// merging enabled and returns the paths plus the engine, whose budget holds
// the run's work counts.
func runMerged(t *testing.T, f *cir.Func, maxLen int, check bool) ([]Path, *Engine) {
	t.Helper()
	buf := strsolver.New(tin, "s", maxLen).Bytes
	e := &Engine{In: tin, Objects: [][]*bv.Term{buf}, CheckFeasibility: check, Config: Config{Merge: true},
		Budget: engine.NewBudget(nil, engine.Limits{})}
	paths, err := e.Run(f, []Value{PtrValue(0, tin.Int32(0))}, bv.True)
	if err != nil {
		t.Fatalf("merged run: %v", err)
	}
	return paths, e
}

func TestMergeCollapsesExponentialPaths(t *testing.T) {
	const n = 8
	f := lower(t, countLoop)

	enum, _ := runSymbolic(t, f, n, false)
	if len(enum) < 1<<n {
		t.Fatalf("enumerated run should see >= 2^%d paths, got %d", n, len(enum))
	}
	merged, e := runMerged(t, f, n, false)
	if len(merged) > n+2 {
		t.Fatalf("merged run should schedule O(n) paths, got %d (enumerated: %d)", len(merged), len(enum))
	}
	if e.Budget.Count(engine.Merges) == 0 {
		t.Fatal("merged run reported zero merges")
	}
	if e.Budget.Count(engine.MergeItes) == 0 {
		t.Fatal("merged run built zero merge ites")
	}
	if forks := e.Budget.Count(engine.Forks); forks >= int64(len(enum)) {
		t.Fatalf("merged run forked %d times, no better than enumeration (%d paths)", forks, len(enum))
	}
}

// TestMergeCountLoopMatchesConcrete cross-checks every concrete input: the
// merged path set must still partition the input space (exactly one active
// path per buffer) and the ite-merged return value must evaluate to the
// concrete interpreter's count.
func TestMergeCountLoopMatchesConcrete(t *testing.T) {
	const n = 5
	f := lower(t, countLoop)
	paths, _ := runMerged(t, f, n, false)

	for _, buf := range enumBuffers(n, []byte{'a', 'b'}) {
		a := assignFor(buf)
		mem := cir.NewMemory()
		obj := mem.AllocData(append([]byte{}, buf...))
		concrete, cerr := cir.Exec(f, []cir.CVal{cir.PtrVal(obj, 0)}, mem, 0)
		if cerr != nil {
			t.Fatalf("%q: concrete interpreter errored: %v", buf, cerr)
		}
		active := 0
		for _, p := range paths {
			if !p.Cond.Eval(a) {
				continue
			}
			active++
			if p.Err != nil {
				t.Fatalf("%q: merged path errored: %v", buf, p.Err)
			}
			if p.Ret.IsPtr {
				t.Fatalf("%q: merged return is a pointer: %+v", buf, p.Ret)
			}
			if got := int64(int32(p.Ret.Term.Eval(a))); got != concrete.Ret.Int {
				t.Fatalf("%q: merged count %d != concrete %d", buf, got, concrete.Ret.Int)
			}
		}
		if active != 1 {
			t.Fatalf("%q: %d active merged paths, want exactly 1", buf, active)
		}
	}
}

// TestMergeWhitespaceSkipMatchesConcrete runs the paper's Figure 1 loop
// (pointer return, short-circuit guards, feasibility checking on) merged and
// checks the ite-merged return offset against the concrete interpreter.
func TestMergeWhitespaceSkipMatchesConcrete(t *testing.T) {
	const src = `
#define whitespace(c) (((c) == ' ') || ((c) == '\t'))
char* loopFunction(char* line) {
  char *p;
  for (p = line; p && *p && whitespace (*p); p++)
    ;
  return p;
}`
	const n = 4
	f := lower(t, src)
	paths, e := runMerged(t, f, n, true)
	if e.Budget.Count(engine.Merges) == 0 {
		t.Fatal("figure 1 merged run reported zero merges")
	}

	for _, buf := range enumBuffers(n, []byte{' ', '\t', 'x'}) {
		a := assignFor(buf)
		mem := cir.NewMemory()
		obj := mem.AllocData(append([]byte{}, buf...))
		concrete, cerr := cir.Exec(f, []cir.CVal{cir.PtrVal(obj, 0)}, mem, 0)
		if cerr != nil {
			t.Fatalf("%q: concrete interpreter errored: %v", buf, cerr)
		}
		active := 0
		for _, p := range paths {
			if !p.Cond.Eval(a) {
				continue
			}
			active++
			if p.Err != nil {
				t.Fatalf("%q: merged path errored: %v", buf, p.Err)
			}
			if !p.Ret.IsPtr || p.Ret.Obj != 0 {
				t.Fatalf("%q: merged return not a pointer into the input: %+v", buf, p.Ret)
			}
			if got := int(int32(p.Ret.Off.Eval(a))); got != concrete.Ret.Off {
				t.Fatalf("%q: merged offset %d != concrete %d", buf, got, concrete.Ret.Off)
			}
		}
		if active != 1 {
			t.Fatalf("%q: %d active merged paths, want exactly 1", buf, active)
		}
	}
}

// TestMergeDeterministic pins the replay contract: two merged runs over the
// same interner must produce pointer-identical conditions in the same order
// (merge grouping and ite construction are arrival-ordered, never
// map-ordered).
func TestMergeDeterministic(t *testing.T) {
	f := lower(t, countLoop)
	p1, _ := runMerged(t, f, 6, false)
	p2, _ := runMerged(t, f, 6, false)
	if len(p1) != len(p2) {
		t.Fatalf("path counts differ across runs: %d vs %d", len(p1), len(p2))
	}
	for i := range p1 {
		if p1[i].Cond != p2[i].Cond {
			t.Fatalf("path %d condition differs across identical runs", i)
		}
		if p1[i].Ret.Term != p2[i].Ret.Term || p1[i].Ret.Off != p2[i].Ret.Off {
			t.Fatalf("path %d return value differs across identical runs", i)
		}
	}
}

// TestMergeStringCallForks exercises the mid-block intrinsic forks (strchr's
// found/miss successors go through the scheduler, not the old worklist)
// under merging.
func TestMergeStringCallForks(t *testing.T) {
	const src = `
char* findColon(char* p) {
  char* q = strchr(p, ':');
  if (q) { return q; }
  return p;
}`
	const n = 4
	f := lower(t, src)
	enum, _ := runSymbolic(t, f, n, true)
	merged, _ := runMerged(t, f, n, true)

	for _, buf := range enumBuffers(n, []byte{':', 'x'}) {
		a := assignFor(buf)
		off := func(paths []Path, label string) int {
			active := -1
			for _, p := range paths {
				if !p.Cond.Eval(a) {
					continue
				}
				if active != -1 {
					t.Fatalf("%q: multiple active %s paths", buf, label)
				}
				if p.Err != nil {
					t.Fatalf("%q: %s path errored: %v", buf, label, p.Err)
				}
				active = int(int32(p.Ret.Off.Eval(a)))
			}
			if active == -1 {
				t.Fatalf("%q: no active %s path", buf, label)
			}
			return active
		}
		if e, m := off(enum, "enumerated"), off(merged, "merged"); e != m {
			t.Fatalf("%q: merged offset %d != enumerated %d", buf, m, e)
		}
	}
}

// TestMergeSharesFuncAcrossGoroutines runs one lowered corpus function
// merged from two goroutines, each with its own engine. A merged run reads
// the function only (through its decoded program), so under -race the two
// runs must not conflict, and they must do the same work.
func TestMergeSharesFuncAcrossGoroutines(t *testing.T) {
	var f *cir.Func
	for _, l := range loopdb.Corpus() {
		if l.Name == "bash/skip_ws_guarded" {
			var err error
			if f, err = l.Lower(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if f == nil {
		t.Fatal("bash/skip_ws_guarded is not in the corpus")
	}
	want := f.String()
	var spends [2]engine.Spend
	var errs [2]error
	var wg sync.WaitGroup
	for i := range spends {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b := engine.NewBudget(nil, engine.Limits{})
			e := Config{Merge: true}.NewEngine(b)
			_, errs[i] = e.RunOn(f, strsolver.New(e.In, "s", 4).Bytes)
			spends[i] = b.Spend()
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	if spends[0].Merges == 0 || spends[0] != spends[1] {
		t.Errorf("the two merged runs did %+v and %+v, want the same merging work", spends[0], spends[1])
	}
	if got := f.String(); got != want {
		t.Errorf("merged runs changed the function:\n%s\nwas\n%s", got, want)
	}
}
