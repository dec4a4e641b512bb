package symex

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"stringloops/internal/bv"
	"stringloops/internal/cc"
	"stringloops/internal/cir"
	"stringloops/internal/engine"
	"stringloops/internal/faultpoint"
	"stringloops/internal/qcache"
	"stringloops/internal/strsolver"
)

// tin is the shared interner for this package's tests.
var tin = bv.NewInterner()

func lower(t *testing.T, src string) *cir.Func {
	t.Helper()
	file, err := cc.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	f, err := cir.LowerFunc(file.Funcs[0], file)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	return f
}

// runSymbolic executes f on a symbolic string of capacity maxLen and returns
// the paths plus the buffer terms.
func runSymbolic(t *testing.T, f *cir.Func, maxLen int, check bool) ([]Path, []*bv.Term) {
	t.Helper()
	buf := strsolver.New(tin, "s", maxLen).Bytes
	e := &Engine{In: tin, Objects: [][]*bv.Term{buf}, CheckFeasibility: check}
	paths, err := e.Run(f, []Value{PtrValue(0, tin.Int32(0))}, bv.True)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return paths, buf
}

// assignFor builds the solver assignment describing a concrete buffer.
func assignFor(buf []byte) *bv.Assignment {
	a := &bv.Assignment{Terms: map[string]uint64{}}
	for i := 0; i < len(buf)-1; i++ {
		a.Terms[fmt.Sprintf("s[%d]", i)] = uint64(buf[i])
	}
	return a
}

// enumBuffers enumerates NUL-terminated buffers of capacity maxLen over the
// alphabet plus early NULs.
func enumBuffers(maxLen int, alphabet []byte) [][]byte {
	syms := append([]byte{0}, alphabet...)
	var out [][]byte
	var rec func(prefix []byte)
	rec = func(prefix []byte) {
		if len(prefix) == maxLen {
			out = append(out, append(append([]byte{}, prefix...), 0))
			return
		}
		for _, c := range syms {
			rec(append(prefix, c))
		}
	}
	rec(nil)
	return out
}

// checkAgainstConcrete verifies that for each concrete buffer, exactly one
// symbolic path is active and it computes the same return offset as the
// concrete interpreter.
func checkAgainstConcrete(t *testing.T, src string, maxLen int, alphabet []byte) {
	t.Helper()
	f := lower(t, src)
	// Feasibility checking keeps loops over symbolic cursors from spinning
	// through infeasible iterations (KLEE behaviour).
	paths, _ := runSymbolic(t, f, maxLen, true)
	for _, buf := range enumBuffers(maxLen, alphabet) {
		a := assignFor(buf)
		// Concrete oracle.
		mem := cir.NewMemory()
		obj := mem.AllocData(append([]byte{}, buf...))
		concrete, cerr := cir.Exec(f, []cir.CVal{cir.PtrVal(obj, 0)}, mem, 0)

		active := 0
		for _, p := range paths {
			if !p.Cond.Eval(a) {
				continue
			}
			active++
			if cerr != nil {
				if p.Err == nil {
					t.Fatalf("%q: concrete errored (%v) but symbolic path returned normally", buf, cerr)
				}
				continue
			}
			if p.Err != nil {
				t.Fatalf("%q: symbolic path errored (%v) but concrete returned %v", buf, p.Err, concrete.Ret)
			}
			if !p.Ret.IsPtr || p.Ret.Obj != 0 {
				t.Fatalf("%q: symbolic return not a pointer into the input: %+v", buf, p.Ret)
			}
			gotOff := int32(p.Ret.Off.Eval(a))
			if int(gotOff) != concrete.Ret.Off {
				t.Fatalf("%q: symbolic offset %d != concrete %d", buf, gotOff, concrete.Ret.Off)
			}
		}
		if active != 1 {
			t.Fatalf("%q: %d active paths, want exactly 1", buf, active)
		}
	}
}

func TestSymbolicMatchesConcreteWhitespaceSkip(t *testing.T) {
	checkAgainstConcrete(t, `
#define whitespace(c) (((c) == ' ') || ((c) == '\t'))
char* loopFunction(char* line) {
  char *p;
  for (p = line; p && *p && whitespace (*p); p++)
    ;
  return p;
}`, 3, []byte{' ', '\t', 'a'})
}

func TestSymbolicMatchesConcreteStrchrStyle(t *testing.T) {
	checkAgainstConcrete(t, `
char *find(char *s) {
  while (*s && *s != '/')
    s++;
  return s;
}`, 3, []byte{'/', 'a'})
}

func TestSymbolicMatchesConcreteIndexLoop(t *testing.T) {
	checkAgainstConcrete(t, `
char *skipdigits(char *s) {
  int i;
  for (i = 0; s[i] >= '0' && s[i] <= '9'; i++)
    ;
  return s + i;
}`, 3, []byte{'0', '9', 'a'})
}

func TestSymbolicMatchesConcreteIntrinsic(t *testing.T) {
	checkAgainstConcrete(t, `
char *skipsp(char *s) {
  while (isspace(*s))
    s++;
  return s;
}`, 2, []byte{' ', '\n', 'q'})
}

func TestSymbolicMatchesConcreteBackward(t *testing.T) {
	checkAgainstConcrete(t, `
char *rtrim(char *s) {
  char *p = s;
  while (*p) p++;
  while (p > s && p[-1] == ' ')
    p--;
  return p;
}`, 3, []byte{' ', 'b'})
}

func TestNullInputPath(t *testing.T) {
	f := lower(t, `
char *guard(char *p) {
  if (!p) return 0;
  while (*p == 'x') p++;
  return p;
}`)
	e := &Engine{In: tin, Objects: [][]*bv.Term{strsolver.New(tin, "s", 2).Bytes}}
	paths, err := e.Run(f, []Value{NullValue()}, bv.True)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 {
		t.Fatalf("NULL input should have one path, got %d", len(paths))
	}
	if !paths[0].Ret.IsNull() {
		t.Fatalf("guard(NULL) = %+v, want NULL", paths[0].Ret)
	}
}

func TestOOBErrorPath(t *testing.T) {
	// rawmemchr-style loop: no NUL check, so strings without 'x' run off the
	// end of the bounded buffer.
	f := lower(t, `
char *rawscan(char *s) {
  while (*s != 'x')
    s++;
  return s;
}`)
	paths, _ := runSymbolic(t, f, 2, false)
	sawOOB := false
	for _, p := range paths {
		if errors.Is(p.Err, ErrOOB) {
			sawOOB = true
		}
	}
	if !sawOOB {
		t.Fatal("expected an out-of-bounds error path")
	}
}

func TestNullDerefErrorPath(t *testing.T) {
	f := lower(t, `char deref(char *s) { return *s; }`)
	e := &Engine{In: tin}
	paths, err := e.Run(f, []Value{NullValue()}, bv.True)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 || !errors.Is(paths[0].Err, ErrNullDeref) {
		t.Fatalf("paths = %+v, want single null-deref error", paths)
	}
}

func TestFeasibilityPruning(t *testing.T) {
	// *s == 'a' && *s == 'b' is infeasible; with solver checks the dead path
	// is pruned at the fork.
	src := `
char *weird(char *s) {
  if (*s == 'a' && *s == 'b')
    return s + 1;
  return s;
}`
	f := lower(t, src)
	pathsNo, _ := runSymbolic(t, f, 2, false)
	fCheck := lower(t, src)
	pathsYes, _ := runSymbolic(t, fCheck, 2, true)
	if len(pathsYes) >= len(pathsNo) {
		t.Fatalf("feasibility checking should prune paths: %d vs %d", len(pathsYes), len(pathsNo))
	}
	// All surviving paths must be satisfiable.
	for _, p := range pathsYes {
		if st, _ := bv.CheckSat(nil, p.Cond); st.String() != "sat" {
			t.Fatalf("surviving path is %v", st)
		}
	}
}

func TestPathGrowthWithLength(t *testing.T) {
	// The Figure 3 effect: the number of vanilla paths grows with the
	// symbolic string length.
	src := `
#define whitespace(c) (((c) == ' ') || ((c) == '\t'))
char* loopFunction(char* line) {
  char *p;
  for (p = line; p && *p && whitespace (*p); p++)
    ;
  return p;
}`
	var prev int
	for _, n := range []int{2, 4, 6} {
		f := lower(t, src)
		paths, _ := runSymbolic(t, f, n, false)
		if len(paths) <= prev {
			t.Fatalf("paths should grow with length: %d then %d", prev, len(paths))
		}
		prev = len(paths)
	}
}

func TestStepLimit(t *testing.T) {
	f := lower(t, `int spin(int x) { for (;;) x++; return x; }`)
	e := &Engine{In: tin, MaxSteps: 100}
	paths, err := e.Run(f, []Value{ConstValue(tin, 0)}, bv.True)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 || !errors.Is(paths[0].Err, ErrStepLimit) {
		t.Fatalf("want single step-limit path, got %+v", paths)
	}
}

func TestStatsAccounting(t *testing.T) {
	f := lower(t, `
char *find(char *s) {
  while (*s && *s != '/')
    s++;
  return s;
}`)
	buf := strsolver.New(tin, "s", 3).Bytes
	b := engine.NewBudget(nil, engine.Limits{})
	e := &Engine{In: tin, Objects: [][]*bv.Term{buf}, CheckFeasibility: true, Budget: b}
	paths, err := e.Run(f, []Value{PtrValue(0, tin.Int32(0))}, bv.True)
	if err != nil {
		t.Fatal(err)
	}
	if b.Count(engine.SymexRuns) != 1 || b.Count(engine.Paths) != int64(len(paths)) {
		t.Fatalf("runs/paths not counted: %+v for %d paths", b.Spend(), len(paths))
	}
	if b.Count(engine.Forks) == 0 || b.Count(engine.SolverQueries) == 0 || b.Count(engine.Steps) == 0 {
		t.Fatalf("stats not counted: %+v", b.Spend())
	}
}

func TestStringLiteralObject(t *testing.T) {
	checkAgainstConcrete(t, `
char *skipzero(char *s) {
  while (*s == "0z"[0])
    s++;
  return s;
}`, 2, []byte{'0', 'z'})
}

func TestDisjointPathsProperty(t *testing.T) {
	// Path conditions must be pairwise disjoint: no assignment activates two.
	f := lower(t, `
char *spanab(char *s) {
  while (*s == 'a' || *s == 'b')
    s++;
  return s;
}`)
	paths, _ := runSymbolic(t, f, 3, false)
	for i := 0; i < len(paths); i++ {
		for j := i + 1; j < len(paths); j++ {
			both := tin.BAnd2(paths[i].Cond, paths[j].Cond)
			if st, _ := bv.CheckSat(nil, both); st.String() == "sat" {
				t.Fatalf("paths %d and %d overlap", i, j)
			}
		}
	}
}

// TestLoopLocalKeepsOneCell: a loop whose body declares a local executes
// the local's alloca once an iteration. After 100 iterations the state
// holds one cell per alloca, not one per execution: each execution starts a
// new object, and the previous one's lifetime has ended.
func TestLoopLocalKeepsOneCell(t *testing.T) {
	f := lower(t, `
char *f(char *s) {
  int n = 0;
  for (int i = 0; i < 100; i++) {
    int odd = i & 1;
    n += odd;
  }
  return s + n - 50;
}`)
	allocas := 0
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == cir.OpAlloca {
				allocas++
			}
		}
	}
	states := 0
	emitHook = func(s *state) {
		states++
		if len(s.cells) > allocas {
			t.Errorf("a terminal state holds %d cells for %d allocas", len(s.cells), allocas)
		}
	}
	defer func() { emitHook = nil }()
	paths, _ := runSymbolic(t, f, 2, true)
	if states != 1 || len(paths) != 1 || paths[0].Err != nil {
		t.Fatalf("%d states emitted, paths %+v; want one normal return", states, paths)
	}
	if off, ok := paths[0].Ret.Off.IsConst(); !ok || off != 0 {
		t.Fatalf("returned offset %v, want 0", paths[0].Ret.Off)
	}
}

// impliedBranchSrc branches twice on the same byte test.
const impliedBranchSrc = `
char *f(char *s) {
  if (*s == 'a')
    if (*s == 'a')
      return s + 1;
  return s;
}`

// TestImpliedBranchSendsNoQuery: a branch on the condition the path has
// already found feasible sends no feasibility query, with a query cache and
// with the direct solver alike. The first branch asks about both of its
// sides; the second branch's then side simplifies to the state's decided
// condition and its else side to False.
func TestImpliedBranchSendsNoQuery(t *testing.T) {
	f := lower(t, impliedBranchSrc)
	for _, cached := range []bool{false, true} {
		in := bv.NewInterner()
		b := engine.NewBudget(nil, engine.Limits{})
		e := &Engine{In: in, Budget: b, CheckFeasibility: true}
		if cached {
			e.Cache = qcache.New(in)
		}
		paths, err := e.RunOn(f, strsolver.New(in, "s", 3).Bytes)
		if err != nil {
			t.Fatal(err)
		}
		if q := b.Count(engine.SolverQueries); q != 2 || len(paths) != 2 {
			t.Errorf("cache %v: %d feasibility queries and %d paths, want 2 and 2", cached, q, len(paths))
		}
	}
}

// TestUnknownDecidesNothing: a feasibility check answered Unknown keeps the
// state but proves nothing, so a later check of the same condition asks
// again. With the query cache, SatUnknown at rate 1 answers every check
// Unknown and the implied branch of impliedBranchSrc sends a third query.
// The direct solver consults no fault site, so there the Unknown comes from
// a spent budget, which both stacks answer Unknown: two checks of one
// condition send two queries.
func TestUnknownDecidesNothing(t *testing.T) {
	in := bv.NewInterner()
	b := engine.NewBudget(nil, engine.Limits{})
	faults := faultpoint.New(faultpoint.Config{Seed: 1, Rates: map[faultpoint.Site]float64{faultpoint.SatUnknown: 1}})
	e := &Engine{In: in, Budget: b, CheckFeasibility: true, Cache: qcache.New(in).SetFaults(faults)}
	paths, err := e.RunOn(lower(t, impliedBranchSrc), strsolver.New(in, "s", 3).Bytes)
	if err != nil {
		t.Fatal(err)
	}
	if q := b.Count(engine.SolverQueries); q != 3 || len(paths) != 2 {
		t.Errorf("SatUnknown: %d feasibility queries and %d paths, want 3 and 2", q, len(paths))
	}

	for _, cached := range []bool{false, true} {
		in := bv.NewInterner()
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		b := engine.NewBudget(ctx, engine.Limits{})
		e := &Engine{In: in, Budget: b, CheckFeasibility: true}
		if cached {
			e.Cache = qcache.New(in)
		}
		cond := in.Eq(in.Var("c", 8), in.Byte('a'))
		s := &state{cond: bv.True}
		for i := 0; i < 2; i++ {
			if !e.feasible(s, cond) {
				t.Fatalf("cache %v: an Unknown check dropped the state", cached)
			}
		}
		if q := b.Count(engine.SolverQueries); q != 2 || s.decided != nil {
			t.Errorf("cache %v: %d queries for two Unknown checks, decided %v; want 2 and nil", cached, q, s.decided)
		}
	}
}
