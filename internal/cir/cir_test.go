package cir

import (
	"slices"
	"strings"
	"testing"

	"stringloops/internal/cc"
	"stringloops/internal/cstr"
)

// lowerOne parses src and lowers the named function (the first one when name
// is empty).
func lowerOne(t *testing.T, src, name string) *Func {
	t.Helper()
	file, err := cc.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	fn := file.Funcs[0]
	if name != "" {
		fn = file.Lookup(name)
	}
	f, err := LowerFunc(fn, file)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	return f
}

// runLoopFunction executes a char*->char* loop function on the given Go
// string and reports the returned offset (or -1 for NULL, -2 for error).
func runLoopFunction(t *testing.T, f *Func, s string) int {
	t.Helper()
	mem := NewMemory()
	obj := mem.AllocData(cstr.Terminate(s))
	res, err := Exec(f, []CVal{PtrVal(obj, 0)}, mem, 0)
	if err != nil {
		t.Fatalf("exec on %q: %v", s, err)
	}
	if !res.Ret.IsPtr {
		t.Fatalf("exec on %q returned non-pointer %v", s, res.Ret)
	}
	if res.Ret.IsNull() {
		return -1
	}
	if res.Ret.Obj != obj {
		t.Fatalf("exec on %q returned pointer into object %d", s, res.Ret.Obj)
	}
	return res.Ret.Off
}

const figure1 = `
#define whitespace(c) (((c) == ' ') || ((c) == '\t'))
char* loopFunction(char* line) {
  char *p;
  for (p = line; p && *p && whitespace (*p); p++)
    ;
  return p;
}`

func TestLowerAndExecFigure1(t *testing.T) {
	f := lowerOne(t, figure1, "loopFunction")
	cases := map[string]int{
		"":        0,
		"abc":     0,
		"  abc":   2,
		"\t\t ab": 3,
		" \t \t":  4,
		"x  ":     0,
	}
	for s, want := range cases {
		if got := runLoopFunction(t, f, s); got != want {
			t.Errorf("figure1(%q) = %d, want %d", s, got, want)
		}
	}
}

func TestFigure1NullInput(t *testing.T) {
	f := lowerOne(t, figure1, "loopFunction")
	mem := NewMemory()
	res, err := Exec(f, []CVal{NullVal()}, mem, 0)
	if err != nil {
		t.Fatalf("exec(NULL): %v", err)
	}
	if !res.Ret.IsNull() {
		t.Fatalf("figure1(NULL) = %v, want NULL", res.Ret)
	}
}

func TestLowerStrchrStyleLoop(t *testing.T) {
	f := lowerOne(t, `
char *find(char *s) {
  while (*s && *s != ':')
    s++;
  return s;
}`, "")
	cases := map[string]int{"abc:def": 3, "abc": 3, ":x": 0, "": 0}
	for s, want := range cases {
		if got := runLoopFunction(t, f, s); got != want {
			t.Errorf("find(%q) = %d, want %d", s, got, want)
		}
	}
}

func TestLowerBackwardLoop(t *testing.T) {
	f := lowerOne(t, `
char *trim(char *s) {
  char *p = s;
  while (*p) p++;
  while (p > s && p[-1] == ' ')
    p--;
  return p;
}`, "")
	cases := map[string]int{"ab  ": 2, "": 0, "   ": 0, "a b": 3}
	for s, want := range cases {
		if got := runLoopFunction(t, f, s); got != want {
			t.Errorf("trim(%q) = %d, want %d", s, got, want)
		}
	}
}

func TestLowerIndexBasedLoop(t *testing.T) {
	f := lowerOne(t, `
char *skipdigits(char *s) {
  int i;
  for (i = 0; s[i] >= '0' && s[i] <= '9'; i++)
    ;
  return s + i;
}`, "")
	cases := map[string]int{"123ab": 3, "x": 0, "9": 1, "": 0}
	for s, want := range cases {
		if got := runLoopFunction(t, f, s); got != want {
			t.Errorf("skipdigits(%q) = %d, want %d", s, got, want)
		}
	}
}

func TestLowerIntrinsicCall(t *testing.T) {
	f := lowerOne(t, `
char *skipspace(char *s) {
  while (isspace(*s))
    s++;
  return s;
}`, "")
	if got := runLoopFunction(t, f, " \t\n x"); got != 4 {
		t.Errorf("skipspace = %d, want 4", got)
	}
}

func TestLowerTernaryAndCast(t *testing.T) {
	f := lowerOne(t, `
int pick(int a, int b) {
  return a > b ? a : (char)b;
}`, "")
	mem := NewMemory()
	res, err := Exec(f, []CVal{IntVal(3), IntVal(300)}, mem, 0)
	if err != nil {
		t.Fatal(err)
	}
	// (char)300 = 44.
	if res.Ret.Int != 44 {
		t.Fatalf("pick(3,300) = %d, want 44", res.Ret.Int)
	}
}

func TestLowerDoWhileAndCompound(t *testing.T) {
	f := lowerOne(t, `
int sum(int n) {
  int acc = 0;
  do {
    acc += n;
    n--;
  } while (n > 0);
  return acc;
}`, "")
	mem := NewMemory()
	res, err := Exec(f, []CVal{IntVal(4)}, mem, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ret.Int != 10 {
		t.Fatalf("sum(4) = %d", res.Ret.Int)
	}
}

func TestLowerGotoLoop(t *testing.T) {
	f := lowerOne(t, `
char *scan(char *s) {
again:
  if (*s == ' ') { s++; goto again; }
  return s;
}`, "")
	if got := runLoopFunction(t, f, "  ab"); got != 2 {
		t.Errorf("scan = %d, want 2", got)
	}
}

func TestLowerStringLiteralIndexing(t *testing.T) {
	f := lowerOne(t, `
int digit(int i) {
  return "0123456789"[i];
}`, "")
	mem := NewMemory()
	res, err := Exec(f, []CVal{IntVal(3)}, mem, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ret.Int != '3' {
		t.Fatalf("digit(3) = %d", res.Ret.Int)
	}
}

func TestExecStepLimit(t *testing.T) {
	f := lowerOne(t, `int spin(int x) { for (;;) x++; return x; }`, "")
	mem := NewMemory()
	_, err := Exec(f, []CVal{IntVal(0)}, mem, 1000)
	if err != ErrStepLimit {
		t.Fatalf("err = %v, want step limit", err)
	}
}

func TestExecOutOfBounds(t *testing.T) {
	f := lowerOne(t, `char deref(char *s) { return s[100]; }`, "")
	mem := NewMemory()
	obj := mem.AllocData(cstr.Terminate("ab"))
	_, err := Exec(f, []CVal{PtrVal(obj, 0)}, mem, 0)
	if err != ErrMemory {
		t.Fatalf("err = %v, want memory error", err)
	}
}

func TestExecNullDeref(t *testing.T) {
	f := lowerOne(t, `char deref(char *s) { return *s; }`, "")
	mem := NewMemory()
	_, err := Exec(f, []CVal{NullVal()}, mem, 0)
	if err != ErrMemory {
		t.Fatalf("err = %v, want memory error", err)
	}
}

func TestDominators(t *testing.T) {
	// Diamond: entry -> a, b -> join.
	f := lowerOne(t, `
int dia(int x) {
  int r;
  if (x) r = 1; else r = 2;
  return r;
}`, "")
	dom := BuildDomTree(f)
	entry := f.Entry()
	for _, b := range f.Blocks {
		if !dom.Dominates(entry, b) {
			t.Fatalf("entry must dominate %s", b.Label())
		}
	}
	// The join block is dominated by entry but not by either arm.
	var join *Block
	for _, b := range f.Blocks {
		if len(Preds(f, b)) == 2 {
			join = b
		}
	}
	if join == nil {
		t.Fatal("no join block found")
	}
	if !slices.Contains(dom.Children(entry), join) {
		t.Fatalf("idom(%s) is not entry", join.Label())
	}
	for _, p := range Preds(f, join) {
		if got := dom.Frontier(p); len(got) != 1 || got[0] != join {
			t.Fatalf("frontier(%s) = %v", p.Label(), got)
		}
	}
}

// TestNilSuccessorIsSkipped: the IR analyses leave a nil branch target out
// of the graph. Read as the entry, it would make the branching block's edge
// a back edge to the entry and the whole function a loop.
func TestNilSuccessorIsSkipped(t *testing.T) {
	f := lowerOne(t, `int f(int x) { if (x) return 1; return 2; }`, "")
	var ret *Block
	for _, b := range f.Blocks {
		if b != f.Entry() && b.Term().Op == OpRet {
			ret = b
			break
		}
	}
	if ret == nil {
		t.Fatal("no return block besides the entry")
	}
	*ret.Term() = Instr{Op: OpCondBr, Res: -1, Args: []Operand{ConstOp(1)}, Blocks: []*Block{ret, nil}}
	loops := FindLoops(f)
	if len(loops) != 1 || loops[0].Header != ret || len(loops[0].Blocks) != 1 {
		t.Fatalf("loops %v, want only the self-loop at %s", loops, ret.Label())
	}
	dom := BuildDomTree(f)
	if dom.Dominates(ret, f.Entry()) || len(dom.Frontier(ret)) != 1 || dom.Frontier(ret)[0] != ret {
		t.Fatalf("nil target read as an edge: frontier(%s) = %v", ret.Label(), dom.Frontier(ret))
	}
}

func TestMem2RegPromotesLocals(t *testing.T) {
	f := lowerOne(t, figure1, "loopFunction")
	Mem2Reg(f)
	if !f.SSA {
		t.Fatal("SSA flag not set")
	}
	phis, allocas, stores := 0, 0, 0
	loads := 0
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			switch in.Op {
			case OpPhi:
				phis++
			case OpAlloca:
				allocas++
			case OpStore:
				stores++
			case OpLoad:
				loads++
			}
		}
	}
	if allocas != 0 {
		t.Errorf("allocas remaining: %d", allocas)
	}
	if stores != 0 {
		t.Errorf("stores remaining: %d (figure1 writes no arrays)", stores)
	}
	if phis == 0 {
		t.Error("expected phi nodes after promotion")
	}
	if loads == 0 {
		t.Error("expected string loads to remain")
	}
}

func TestMem2RegPreservesSemantics(t *testing.T) {
	srcs := []string{figure1, `
char *find(char *s) {
  while (*s && *s != '/')
    s++;
  return s;
}`, `
char *compl(char *s) {
  char *p = s;
  int n = 0;
  while (p[n] == 'a' || p[n] == 'b')
    n++;
  return p + n;
}`}
	inputs := []string{"", "a", " ab/c", "ab/", "ba x", "  \t"}
	for _, src := range srcs {
		plain := lowerOne(t, src, "")
		ssa := lowerOne(t, src, "")
		Mem2Reg(ssa)
		for _, in := range inputs {
			a := runLoopFunction(t, plain, in)
			b := runLoopFunction(t, ssa, in)
			if a != b {
				t.Errorf("mem2reg changed semantics of %q on %q: %d vs %d",
					strings.SplitN(src, "\n", 3)[1], in, a, b)
			}
		}
	}
}

func TestFindLoopsNesting(t *testing.T) {
	f := lowerOne(t, `
int nest(int n) {
  int i, j, acc = 0;
  for (i = 0; i < n; i++)
    for (j = 0; j < n; j++)
      acc++;
  while (acc > 100) acc--;
  return acc;
}`, "")
	Mem2Reg(f)
	loops := FindLoops(f)
	if len(loops) != 3 {
		t.Fatalf("found %d loops, want 3", len(loops))
	}
	inner, outer := 0, 0
	for _, l := range loops {
		if l.IsInnermost() {
			inner++
		} else {
			outer++
		}
		if l.Parent != nil && loopDepth(l) != 2 {
			t.Errorf("nested loop depth = %d", loopDepth(l))
		}
	}
	if inner != 2 || outer != 1 {
		t.Fatalf("inner=%d outer=%d, want 2/1", inner, outer)
	}
}

func TestClassifyLoopsPipeline(t *testing.T) {
	src := `
int has_inner(char *s, int n) {
  int i, j, acc = 0;
  for (i = 0; i < n; i++)
    for (j = 0; j < n; j++)
      acc += s[i];
  return acc;
}
char *ptr_call(char *s) {
  while (*s && strchr("abc", *s))
    s++;
  return s;
}
void writes(char *s) {
  while (*s) { *s = ' '; s++; }
}
int two_reads(char *a, char *b) {
  int i = 0;
  while (a[i] && a[i] == b[i])
    i++;
  return i;
}
char *candidate(char *s) {
  while (*s == ' ')
    s++;
  return s;
}`
	file, err := cc.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	funcs, err := LowerFile(file)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range funcs {
		Mem2Reg(f)
	}
	infos, counts := ClassifyLoops(funcs)
	if counts.Initial != 6 {
		t.Fatalf("initial = %d, want 6 (nested pair counts twice)", counts.Initial)
	}
	// has_inner's outer loop drops at the inner filter.
	if counts.Inner != 5 {
		t.Fatalf("after inner = %d, want 5", counts.Inner)
	}
	// ptr_call's loop drops at pointer calls.
	if counts.PtrCalls != 4 {
		t.Fatalf("after ptr calls = %d, want 4", counts.PtrCalls)
	}
	// writes' loop drops at array writes.
	if counts.ArrayWrites != 3 {
		t.Fatalf("after writes = %d, want 3", counts.ArrayWrites)
	}
	// two_reads drops at multiple pointer reads; has_inner's inner loop reads
	// one pointer; candidate survives.
	if counts.MultiReads != 2 {
		t.Fatalf("after multi reads = %d, want 2", counts.MultiReads)
	}
	byStage := map[FilterStage]int{}
	for _, info := range infos {
		byStage[info.Stage]++
	}
	if byStage[StageCandidate] != 2 {
		t.Fatalf("candidates = %d, want 2 (inner counting loop + candidate)", byStage[StageCandidate])
	}
}

func TestIRStringRendering(t *testing.T) {
	f := lowerOne(t, figure1, "loopFunction")
	s := f.String()
	for _, want := range []string{"func loopFunction", "gep", "load", "br"} {
		if !strings.Contains(s, want) {
			t.Errorf("IR text missing %q:\n%s", want, s)
		}
	}
	Mem2Reg(f)
	if !strings.Contains(f.String(), "phi") {
		t.Error("SSA IR text missing phi")
	}
}

func TestIntrinsics(t *testing.T) {
	cases := []struct {
		name string
		c    int64
		want int64
	}{
		{"isdigit", '5', 1}, {"isdigit", 'a', 0},
		{"isspace", ' ', 1}, {"isspace", 'x', 0},
		{"isalpha", 'q', 1}, {"isalpha", '1', 0},
		{"isupper", 'Q', 1}, {"islower", 'q', 1},
		{"isalnum", '8', 1}, {"isblank", '\t', 1},
		{"toupper", 'a', 'A'}, {"tolower", 'A', 'a'},
		{"toupper", '!', '!'},
	}
	for _, c := range cases {
		got, flt := NewMemory().call(intrinsicOf(c.name), []CVal{IntVal(c.c), {}, {}}, 1)
		if flt != 0 {
			t.Fatalf("%s: %v", c.name, flt.err(&Instr{Sub: c.name}))
		}
		if got.Int != c.want {
			t.Errorf("%s(%q) = %d, want %d", c.name, byte(c.c), got.Int, c.want)
		}
	}
	if _, flt := NewMemory().call(FnUnknown, []CVal{IntVal(0), {}, {}}, 1); flt != fUnknownFunc {
		t.Error("unknown function should error")
	}
}

func TestLowerErrors(t *testing.T) {
	bad := []string{
		`int f() { return undeclared; }`,
		`int f() { break; }`,
		`int f(int x) { return *x; }`,
	}
	for _, src := range bad {
		file, err := cc.Parse(src)
		if err != nil {
			t.Fatalf("parse of %q failed: %v", src, err)
		}
		if _, err := LowerFunc(file.Funcs[0], file); err == nil {
			t.Errorf("LowerFunc(%q) should fail", src)
		}
	}
}

func TestRemoveUnreachable(t *testing.T) {
	f := lowerOne(t, `
int f(int x) {
  return x;
  x = x + 1;
  return x;
}`, "")
	// Code after the return is gone; one block remains.
	if len(f.Blocks) != 1 {
		t.Fatalf("blocks = %d, want 1", len(f.Blocks))
	}
}

func TestLoopDepthAndInstrs(t *testing.T) {
	f := lowerOne(t, `
int nest(char *s, int n) {
  int i, j, acc = 0;
  for (i = 0; i < n; i++)
    for (j = 0; j < n; j++)
      acc = acc + s[0];
  return acc;
}`, "")
	Mem2Reg(f)
	loops := FindLoops(f)
	var inner, outer *Loop
	for _, l := range loops {
		if l.IsInnermost() {
			inner = l
		} else {
			outer = l
		}
	}
	if inner == nil || outer == nil {
		t.Fatal("expected one inner and one outer loop")
	}
	if loopDepth(inner) != 2 || loopDepth(outer) != 1 {
		t.Fatalf("depths: inner %d outer %d", loopDepth(inner), loopDepth(outer))
	}
	if inner.Parent != outer {
		t.Fatal("nesting wrong")
	}
	if len(inner.Instrs()) == 0 || len(outer.Instrs()) <= len(inner.Instrs()) {
		t.Fatal("outer loop must contain more instructions than the inner")
	}
	for b := range inner.Blocks {
		if !outer.Blocks[b] {
			t.Fatal("outer must contain all inner blocks")
		}
	}
}

func TestOperandStringForms(t *testing.T) {
	if Reg(3, TyI32).String() != "%3" {
		t.Error("reg operand string")
	}
	if ConstOp(42).String() != "42" {
		t.Error("const operand string")
	}
	if NullOp().String() != "null" {
		t.Error("null operand string")
	}
	if StrOp(0).String() != "@str0" {
		t.Error("string operand string")
	}
}

func TestCharSignedness(t *testing.T) {
	// Plain char is signed: byte 0xFF loads as -1; unsigned char as 255.
	signed := lowerOne(t, `int f(char *s) { return *s; }`, "")
	unsigned := lowerOne(t, `int f(unsigned char *s) { return *s; }`, "")
	buf := []byte{0xff, 0}
	for _, tc := range []struct {
		f    *Func
		want int64
	}{{signed, -1}, {unsigned, 255}} {
		mem := NewMemory()
		obj := mem.AllocData(append([]byte{}, buf...))
		res, err := Exec(tc.f, []CVal{PtrVal(obj, 0)}, mem, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Ret.Int != tc.want {
			t.Errorf("load of 0xFF = %d, want %d", res.Ret.Int, tc.want)
		}
	}
}

func TestUnsignedComparisonLowering(t *testing.T) {
	// unsigned comparison: (unsigned)-1 > 0.
	f := lowerOne(t, `
int f(unsigned int a, unsigned int b) {
  return a > b;
}`, "")
	mem := NewMemory()
	res, err := Exec(f, []CVal{IntVal(-1), IntVal(0)}, mem, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ret.Int != 1 {
		t.Fatal("unsigned -1 > 0 should hold")
	}
}

func TestPointerDifference(t *testing.T) {
	f := lowerOne(t, `
int count(char *s) {
  char *p = s;
  while (*p) p++;
  return p - s;
}`, "")
	mem := NewMemory()
	obj := mem.AllocData(cstr.Terminate("hello"))
	res, err := Exec(f, []CVal{PtrVal(obj, 0)}, mem, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ret.Int != 5 {
		t.Fatalf("count = %d, want 5", res.Ret.Int)
	}
}

// loopDepth returns l's nesting depth (1 = outermost).
func loopDepth(l *Loop) int {
	d := 1
	for p := l.Parent; p != nil; p = p.Parent {
		d++
	}
	return d
}
