package cc

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestLexBasics(t *testing.T) {
	toks, err := Lex(`x1 += 0x1f; // comment
/* block
   comment */ 'a' '\t' "hi\n" while <= <<=`)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []string
	for _, tok := range toks {
		kinds = append(kinds, tok.String())
	}
	want := []string{"x1", "+=", "31", ";", `'a'`, `'\t'`, `"hi\n"`, "while", "<=", "<<="}
	if len(kinds) != len(want) {
		t.Fatalf("got %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Errorf("tok %d = %q, want %q", i, kinds[i], want[i])
		}
	}
	if toks[2].Num != 0x1f {
		t.Errorf("hex literal = %d", toks[2].Num)
	}
	if toks[5].Num != '\t' {
		t.Errorf("char escape = %d", toks[5].Num)
	}
	if toks[6].Str != "hi\n" {
		t.Errorf("string = %q", toks[6].Str)
	}
}

func TestLexSuffixesAndEscapes(t *testing.T) {
	toks, err := Lex(`10UL 'x' '\0' '\x41' '\\'`)
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Num != 10 {
		t.Errorf("suffixed literal = %d", toks[0].Num)
	}
	if toks[2].Num != 0 || toks[3].Num != 0x41 || toks[4].Num != '\\' {
		t.Errorf("escapes wrong: %v", toks)
	}
}

func TestLexStandardEscapes(t *testing.T) {
	// The full C escape set: simple escapes (including \a \v \f \?) and
	// one-to-three-digit octal escapes.
	cases := []struct {
		src  string
		want int64
	}{
		{`'\a'`, 7},
		{`'\b'`, 8},
		{`'\f'`, 12},
		{`'\v'`, 11},
		{`'\?'`, '?'},
		{`'\0'`, 0},
		{`'\012'`, 10},
		{`'\12'`, 10},
		{`'\101'`, 'A'},
		{`'\7'`, 7},
		{`'\377'`, 0xff},
	}
	for _, c := range cases {
		toks, err := Lex(c.src)
		if err != nil {
			t.Errorf("Lex(%s): %v", c.src, err)
			continue
		}
		if len(toks) != 1 || toks[0].Num != c.want {
			t.Errorf("Lex(%s) = %v, want char %d", c.src, toks, c.want)
		}
	}
}

func TestLexOctalEscapeInString(t *testing.T) {
	toks, err := Lex(`"\012x\101\?"`)
	if err != nil {
		t.Fatal(err)
	}
	if want := "\nxA?"; toks[0].Str != want {
		t.Errorf("string = %q, want %q", toks[0].Str, want)
	}
	// Exactly three octal digits are consumed: "\0123" is '\012' then '3'.
	toks, err = Lex(`"\0123"`)
	if err != nil {
		t.Fatal(err)
	}
	if want := "\n3"; toks[0].Str != want {
		t.Errorf("string = %q, want %q", toks[0].Str, want)
	}
}

func TestLexHexEscapeTakesEveryDigit(t *testing.T) {
	// C11 6.4.4.4: a hex escape runs to the first non-hex character, value
	// mod 256, as gcc reads it.
	cases := map[string]string{
		`"\x0041"`: "A",
		`"\x1ab"`:  "\xab",
		`"\x41g"`:  "Ag",
		`"\x4\x1"`: "\x04\x01",
	}
	for src, want := range cases {
		toks, err := Lex(src)
		if err != nil {
			t.Errorf("Lex(%s): %v", src, err)
			continue
		}
		if len(toks) != 1 || toks[0].Str != want {
			t.Errorf("Lex(%s) = %v, want %q", src, toks, want)
		}
	}
	if _, err := Lex(`"\xg"`); err == nil {
		t.Error(`Lex("\xg") should fail`)
	}
}

func TestLexErrors(t *testing.T) {
	for _, src := range []string{"'a", `"abc`, "/* unclosed", "$", `'\q'`} {
		if _, err := Lex(src); err == nil {
			t.Errorf("Lex(%q) should fail", src)
		}
	}
}

func TestPreprocessObjectMacro(t *testing.T) {
	toks, err := Preprocess(`
#define LIMIT 10
int x = LIMIT;`)
	if err != nil {
		t.Fatal(err)
	}
	joined := joinToks(toks)
	if joined != "int x = 10 ;" {
		t.Fatalf("got %q", joined)
	}
}

func TestPreprocessFunctionMacro(t *testing.T) {
	toks, err := Preprocess(`
#define whitespace(c) (((c) == ' ') || ((c) == '\t'))
int b = whitespace(*p);`)
	if err != nil {
		t.Fatal(err)
	}
	joined := joinToks(toks)
	want := `int b = ( ( ( * p ) == 'a' ) || ( ( * p ) == 't' ) ) ;`
	// Spot-check shape rather than exact spelling of char literals.
	if !strings.Contains(joined, "( * p )") || !strings.Contains(joined, "||") {
		t.Fatalf("macro expansion wrong: %q (want shape like %q)", joined, want)
	}
}

func TestPreprocessNestedMacros(t *testing.T) {
	toks, err := Preprocess(`
#define A B
#define B 42
int x = A;`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(joinToks(toks), "42") {
		t.Fatalf("nested expansion failed: %q", joinToks(toks))
	}
}

func TestPreprocessLineContinuation(t *testing.T) {
	toks, err := Preprocess(`
#define BIG(a) \
  ((a) + 1)
int x = BIG(2);`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(joinToks(toks), "( ( 2 ) + 1 )") {
		t.Fatalf("continuation failed: %q", joinToks(toks))
	}
}

func TestPreprocessIncludeIgnored(t *testing.T) {
	toks, err := Preprocess("#include <string.h>\nint x;")
	if err != nil {
		t.Fatal(err)
	}
	if joinToks(toks) != "int x ;" {
		t.Fatalf("got %q", joinToks(toks))
	}
}

func TestPreprocessPredefinesNull(t *testing.T) {
	toks, err := Preprocess("#include <string.h>\nif (s == NULL) return NULL;")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := joinToks(toks), "if ( s == ( ( void * ) 0 ) ) return ( ( void * ) 0 ) ;"; got != want {
		t.Fatalf("got %q, want %q", got, want)
	}
	// A source definition overrides the predefined one, and #undef removes it.
	for src, want := range map[string]string{
		"#define NULL 0\nx = NULL;": "x = 0 ;",
		"#undef NULL\ny = NULL;":    "y = NULL ;",
	} {
		toks, err = Preprocess(src)
		if err != nil {
			t.Fatal(err)
		}
		if got := joinToks(toks); got != want {
			t.Errorf("%q: got %q, want %q", src, got, want)
		}
	}
}

func TestPreprocessUndef(t *testing.T) {
	toks, err := Preprocess("#define X 1\n#undef X\nint a = X;")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(joinToks(toks), "a = X") {
		t.Fatalf("undef ignored: %q", joinToks(toks))
	}
}

// TestPreprocessDirectivesInSourceOrder: a directive acts on the code after
// it only, as in C.
func TestPreprocessDirectivesInSourceOrder(t *testing.T) {
	for src, want := range map[string]string{
		"#define X 0\nx = X;\n#undef X\ny = X;":             "x = 0 ; y = X ;",
		"x = Y;\n#define Y 1\ny = Y;":                       "x = Y ; y = 1 ;",
		"#define NULL 0\nx = NULL;\n#undef NULL\ny = NULL;": "x = 0 ; y = NULL ;",
		"#define N 1\na = N;\n#define N 2\nb = N;":          "a = 1 ; b = 2 ;",
	} {
		toks, err := Preprocess(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		if got := joinToks(toks); got != want {
			t.Errorf("%q: got %q, want %q", src, got, want)
		}
	}
	// Arguments that span a directive are undefined in C: an error here.
	if _, err := Preprocess("#define f(a) a\nx = f(1\n#define Z 2\n);"); err == nil {
		t.Error("an invocation spanning a directive expanded")
	}
}

// TestPreprocessSelfReferenceIsNotReexpanded: a macro's name inside its own
// expansion stays as it is (C11 6.10.3.4p2), directly, through another
// macro, and through arguments. The last two sources are C11 6.10.3.5's
// example 3 without its # and ## lines.
func TestPreprocessSelfReferenceIsNotReexpanded(t *testing.T) {
	ex3 := "#define x 3\n#define f(a) f(x * (a))\n#undef x\n#define x 2\n#define g f\n#define z z[0]\n"
	for src, want := range map[string]string{
		"#define foo foo\nint foo;":                     "int foo ;",
		"#define x (x)\nint y = x;":                     "int y = ( x ) ;",
		"#define a b\n#define b a\nint q = a + b;":      "int q = a + b ;",
		"#define f(n) f(n + 1)\nint z = f(f(2));":       "int z = f ( f ( 2 + 1 ) + 1 ) ;",
		"#define L(c) ((c) == ' ' || L)\nint w = L(L);": "int w = ( ( L ) == ' ' || L ) ;",
		ex3 + "f(y+1) + f(f(z))":                        "f ( 2 * ( y + 1 ) ) + f ( 2 * ( f ( 2 * ( z [ 0 ] ) ) ) )",
		ex3 + "g(x+(3,4)-w)":                            "f ( 2 * ( 2 + ( 3 , 4 ) - w ) )",
	} {
		toks, err := Preprocess(src)
		if err != nil {
			t.Errorf("%q: %v", src, err)
			continue
		}
		if got := joinToks(toks); got != want {
			t.Errorf("%q: got %q, want %q", src, got, want)
		}
	}
}

// doublingChain defines m1..mN, each expanding to two of the one before,
// and uses mN once: its expansion has 2^N tokens.
func doublingChain(levels int) string {
	var b strings.Builder
	for i := 1; i <= levels; i++ {
		fmt.Fprintf(&b, "#define m%d m%d m%d\n", i, i-1, i-1)
	}
	fmt.Fprintf(&b, "int v = m%d;\n", levels)
	return b.String()
}

// nestedLargeArgument wraps an argument of 2*terms tokens in levels nested
// calls of an identity macro.
func nestedLargeArgument(levels, terms int) string {
	return "#define id(a) a\nint v = " + strings.Repeat("id(", levels) +
		strings.Repeat("1+", terms) + "1" + strings.Repeat(")", levels) + ";\n"
}

// TestPreprocessExpansionIsBounded: a chain of doubling macros expands in
// full at 12 levels and ends in ErrExpansionTooLarge at 30 levels, whose
// full expansion would be 2^30 tokens, without building it. So does a large
// argument in 250 nested calls, without copying it at every level.
// Macro chains past their depth bound and deep argument nesting fail the
// same way.
func TestPreprocessExpansionIsBounded(t *testing.T) {
	toks, err := Preprocess(doublingChain(12))
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 1<<12+4 {
		t.Fatalf("12-level chain: %d tokens, want %d", len(toks), 1<<12+4)
	}
	for name, src := range map[string]string{
		"30-level chain":               doublingChain(30),
		"250 calls around 100k tokens": nestedLargeArgument(250, 50_000),
		"250 calls around 300k tokens": nestedLargeArgument(250, 150_000),
	} {
		var err error
		if n := allocated(func() { _, err = Parse(src) }); n > maxBombAlloc {
			t.Errorf("%s: allocated %d MB, want at most %d MB", name, n>>20, maxBombAlloc>>20)
		}
		if !errors.Is(err, ErrExpansionTooLarge) {
			t.Fatalf("%s: err = %v, want ErrExpansionTooLarge", name, err)
		}
	}

	chain := func(levels int) string {
		var b strings.Builder
		for i := 1; i <= levels; i++ {
			fmt.Fprintf(&b, "#define c%d c%d\n", i, i-1)
		}
		fmt.Fprintf(&b, "int v = c%d;", levels)
		return b.String()
	}
	if toks, err := Preprocess(chain(maxExpansionDepth - 1)); err != nil || joinToks(toks) != "int v = c0 ;" {
		t.Errorf("chain of %d: %q, %v", maxExpansionDepth-1, joinToks(toks), err)
	}
	if _, err := Preprocess(chain(maxExpansionDepth + 1)); !errors.Is(err, ErrExpansionTooLarge) {
		t.Errorf("chain of %d: err = %v, want ErrExpansionTooLarge", maxExpansionDepth+1, err)
	}
	// Nesting is bounded by the budget alone: a call nested d deep costs on
	// the order of d^2 units.
	if toks, err := Preprocess(nestedLargeArgument(250, 0)); err != nil || joinToks(toks) != "int v = 1 ;" {
		t.Errorf("arguments nested 250 deep: %q, %v", joinToks(toks), err)
	}
	if _, err := Preprocess(nestedLargeArgument(1000, 0)); !errors.Is(err, ErrExpansionTooLarge) {
		t.Errorf("arguments nested 1000 deep: err = %v, want ErrExpansionTooLarge", err)
	}
}

// TestFrontEndAllocationIsBounded: on a source of ordinary loops over
// 500 KB, Lex allocates at most twice and Preprocess at most four times the
// size of the tokens they return, per token. The daemon accepts 1 MiB
// sources, so the bounds keep a request's front-end memory in proportion to
// its tokens.
func TestFrontEndAllocationIsBounded(t *testing.T) {
	var b strings.Builder
	for i := 0; b.Len() < 500<<10; i++ {
		fmt.Fprintf(&b, `/* Skip the leading blanks of line %d. */
char *loop%d(char *line) {
  char *p;
  for (p = line; p != NULL && *p && whitespace(*p); p++)
    if (*p == '\n' || *p == 0x7f)
      return "newline";
  return p;
}
`, i, i)
	}
	code := b.String()
	size := uint64(unsafe.Sizeof(Token{}))
	for _, c := range []struct {
		name, src string
		run       func(string) ([]Token, error)
		max       uint64
	}{
		{"Lex", code, Lex, 2 * size},
		{"Preprocess", "#define whitespace(c) (((c) == ' ') || ((c) == '\\t'))\n" + code, Preprocess, 4 * size},
	} {
		var toks []Token
		var err error
		n := allocated(func() { toks, err = c.run(c.src) })
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if per := n / uint64(len(toks)); per > c.max {
			t.Errorf("%s: %d tokens from %d KB allocated %d MB, %d B a token; want at most %d B", c.name, len(toks), len(c.src)>>10, n>>20, per, c.max)
		} else {
			t.Logf("%s: %d tokens, %d B a token", c.name, len(toks), per)
		}
	}
}

// maxBombAlloc bounds what a source over the expansion bounds may allocate
// before it fails. Each bound costs tens of MB; without them the sources of
// TestPreprocessExpansionIsBounded would allocate many GB.
const maxBombAlloc = 256 << 20

// allocated returns the bytes the process allocates while f runs.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// nested returns a function whose first statement nests levels deep: open
// repeated levels times around mid, then close repeated levels times.
func nested(open, mid, close string, levels int) string {
	return "int f(int x) { " + strings.Repeat(open, levels) + mid + strings.Repeat(close, levels) + "; return x; }"
}

// TestParseNestingIsBounded: sources nested 100,000 levels deep, through
// each recursive production, end in ErrNestingTooDeep with a stack that
// stays small; without the bound each would take hundreds of MB of stack.
// A source nested just inside the bound parses.
func TestParseNestingIsBounded(t *testing.T) {
	const deep = 100_000
	for name, src := range map[string]string{
		"parentheses": nested("(", "1", ")", deep),
		"unary":       nested("-", "1", "", deep),
		"casts":       nested("(int)", "1", "", deep),
		"assignments": nested("x = ", "1", "", deep),
		"blocks":      nested("{", "", "}", deep),
		"ifs":         nested("if (x) ", "x++;", "", deep),
	} {
		var err error
		if n := stackGrowth(func() { _, err = Parse(src) }); n > 4<<20 {
			t.Errorf("%s: the stack grew by %d KB", name, n>>10)
		}
		if !errors.Is(err, ErrNestingTooDeep) {
			t.Errorf("%s: err = %v, want ErrNestingTooDeep", name, err)
		}
	}
	if _, err := Parse(nested("(", "1", ")", maxNesting/2-2)); err != nil {
		t.Errorf("%d parentheses: %v", maxNesting/2-2, err)
	}
	if _, err := Parse(nested("{", "", "}", maxNesting-2)); err != nil {
		t.Errorf("%d blocks: %v", maxNesting-2, err)
	}
}

// stackGrowth runs f on a fresh goroutine and returns how far the stacks
// in use grew while it ran. Stacks only shrink at a collection, so the
// growth f caused is still in use when it returns.
func stackGrowth(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
		runtime.ReadMemStats(&after)
	}()
	<-done
	if after.StackInuse < before.StackInuse {
		return 0
	}
	return after.StackInuse - before.StackInuse
}

func joinToks(toks []Token) string {
	parts := make([]string, len(toks))
	for i, t := range toks {
		parts[i] = t.String()
	}
	return strings.Join(parts, " ")
}

// The paper's Figure 1 loop, verbatim.
const figure1 = `
#define whitespace(c) (((c) == ' ') || ((c) == '\t'))
char* loopFunction(char* line) {
  char *p;
  for (p = line; p && *p && whitespace (*p); p++)
    ;
  return p;
}`

func TestParseFigure1(t *testing.T) {
	f, err := Parse(figure1)
	if err != nil {
		t.Fatal(err)
	}
	fn := f.Lookup("loopFunction")
	if fn == nil {
		t.Fatal("loopFunction not found")
	}
	if fn.Ret.Base != TyChar || fn.Ret.Ptr != 1 {
		t.Fatalf("return type = %v", fn.Ret)
	}
	if len(fn.Params) != 1 || fn.Params[0].Name != "line" || fn.Params[0].Type.Ptr != 1 {
		t.Fatalf("params = %+v", fn.Params)
	}
	if len(fn.Body.Stmts) != 3 {
		t.Fatalf("body stmts = %d", len(fn.Body.Stmts))
	}
	forStmt, ok := fn.Body.Stmts[1].(*For)
	if !ok {
		t.Fatalf("second stmt is %T, want *For", fn.Body.Stmts[1])
	}
	if _, ok := forStmt.Body.(*EmptyStmt); !ok {
		t.Fatalf("for body is %T, want empty", forStmt.Body)
	}
	// Condition should be p && *p && (((*p) == ' ') || ((*p) == '\t')).
	cond, ok := forStmt.Cond.(*Binary)
	if !ok || cond.Op != "&&" {
		t.Fatalf("cond = %v", forStmt.Cond)
	}
}

func TestParseDeclarations(t *testing.T) {
	f, err := Parse(`
int f(void) {
  char *p, *q = 0;
  unsigned long n = 10;
  const char *s = "abc";
  int i, j = 1, k;
  return j;
}`)
	if err != nil {
		t.Fatal(err)
	}
	fn := f.Funcs[0]
	decl := fn.Body.Stmts[0].(*DeclStmt)
	if len(decl.Decls) != 2 || decl.Decls[0].Name != "p" || decl.Decls[1].Init == nil {
		t.Fatalf("decl 0 = %+v", decl)
	}
	d1 := fn.Body.Stmts[1].(*DeclStmt).Decls[0]
	if d1.Type.Base != TyLong || !d1.Type.Unsigned {
		t.Fatalf("unsigned long parsed as %v", d1.Type)
	}
	d2 := fn.Body.Stmts[2].(*DeclStmt).Decls[0]
	if d2.Type.Base != TyChar || d2.Type.Ptr != 1 {
		t.Fatalf("const char* parsed as %v", d2.Type)
	}
	if _, ok := d2.Init.(*StringLit); !ok {
		t.Fatalf("string init = %T", d2.Init)
	}
}

func TestParseStatements(t *testing.T) {
	f, err := Parse(`
char *g(char *s, int n) {
  int i = 0;
  while (s[i] && i < n) i++;
  do { i--; } while (i > 0);
  if (!s) return 0; else i = 1;
  for (;;) { break; }
  goto out;
out:
  return s + i;
}`)
	if err != nil {
		t.Fatal(err)
	}
	fn := f.Funcs[0]
	kinds := []string{}
	for _, s := range fn.Body.Stmts {
		switch s.(type) {
		case *DeclStmt:
			kinds = append(kinds, "decl")
		case *While:
			kinds = append(kinds, "while")
		case *DoWhile:
			kinds = append(kinds, "do")
		case *If:
			kinds = append(kinds, "if")
		case *For:
			kinds = append(kinds, "for")
		case *Goto:
			kinds = append(kinds, "goto")
		case *Labeled:
			kinds = append(kinds, "label")
		default:
			kinds = append(kinds, "other")
		}
	}
	want := "decl while do if for goto label"
	if strings.Join(kinds, " ") != want {
		t.Fatalf("stmt kinds = %v, want %q", kinds, want)
	}
}

func TestParseExprPrecedence(t *testing.T) {
	e, err := parseExpr("a + b * c == d && e || !f")
	if err != nil {
		t.Fatal(err)
	}
	want := "((((a + (b * c)) == d) && e) || (!f))"
	if e.String() != want {
		t.Fatalf("got %s, want %s", e.String(), want)
	}
}

func TestParseExprForms(t *testing.T) {
	cases := map[string]string{
		"*p++":             "(*(p++))",
		"++*p":             "(++(*p))",
		"a ? b : c":        "(a ? b : c)",
		"p[i + 1]":         "p[(i + 1)]",
		"f(a, b + 1)":      "f(a, (b + 1))",
		"(char)c":          "(char)c",
		"(unsigned char)c": "(unsigned char)c",
		"x = y = 3":        "(x = (y = 3))",
		"p += 2":           "(p += 2)",
		"a & 0xff":         "(a & 255)",
		"-x + ~y":          "((-x) + (~y))",
		"sizeof(char)":     "1",
		"(a, b)":           "(a , b)",
		"*(s + i)":         "(*(s + i))",
		"a << 2 | b":       "((a << 2) | b)",
	}
	for src, want := range cases {
		e, err := parseExpr(src)
		if err != nil {
			t.Errorf("parseExpr(%q): %v", src, err)
			continue
		}
		if e.String() != want {
			t.Errorf("parseExpr(%q) = %s, want %s", src, e.String(), want)
		}
	}
}

func TestParseMultipleFunctions(t *testing.T) {
	f, err := Parse(`
static int helper(int x) { return x + 1; }
char *main_loop(char *s) { return s; }
int prototype_only(char *s);
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Funcs) != 2 {
		t.Fatalf("got %d funcs", len(f.Funcs))
	}
	if f.Lookup("helper") == nil || f.Lookup("main_loop") == nil {
		t.Fatal("lookup failed")
	}
	if f.Lookup("prototype_only") != nil {
		t.Fatal("prototype should not produce a FuncDecl")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"int f( {",
		"int f() { return }",
		"int f() { x = ; }",
		"int f() { if (x { } }",
		"int f() { for (;; }",
		"#define M(a b) x\nint f() { return M(1); }",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

// TestMacroErrorsNameTheUse: an error at a token a macro's body produced
// names the place of the macro's use, as gcc does, not the #define line. A
// token an argument supplied keeps its own place, and a use inside another
// macro's body names the outermost use.
func TestMacroErrorsNameTheUse(t *testing.T) {
	for _, c := range []struct{ src, want string }{
		{"#define X )\nint f(void) {\n  return X;\n}", `cc: 3:10: unexpected token ")"`},
		{"#define Y(a) (a +)\nint f(char *s) {\n  return Y(s);\n}", `cc: 3:10: unexpected token ")"`},
		{"#define Y(a) a\nint f(int s) {\n  return Y(s s);\n}", `cc: 3:14: expected ";", found "s"`},
		{"#define Z(a) W(a\n#define W(a) a\nint f(char *s) {\n  return Z(s);\n}", "cc: unterminated macro invocation at 4:10"},
		{"#define V )\n#define U(a) a V\nint f(char *s) {\n  return U(s);\n}", `cc: 4:10: expected ";", found ")"`},
	} {
		if _, err := Parse(c.src); err == nil || err.Error() != c.want {
			t.Errorf("Parse(%q) = %v, want %s", c.src, err, c.want)
		}
	}
}

func TestTypeHelpers(t *testing.T) {
	ty := Type{Base: TyChar, Ptr: 1}
	if !ty.IsPointer() {
		t.Fatal("char* should be pointer")
	}
	if ty.Deref().IsPointer() {
		t.Fatal("deref of char* should be scalar")
	}
	if ty.AddrOf().Ptr != 2 {
		t.Fatal("addrof broken")
	}
	if ty.String() != "char*" {
		t.Fatalf("String = %q", ty.String())
	}
	if (Type{Base: TyLong, Unsigned: true}).String() != "unsigned long" {
		t.Fatal("unsigned long String broken")
	}
}

func TestLexerNeverPanicsProperty(t *testing.T) {
	// The lexer must fail cleanly (error, not panic) on arbitrary input.
	f := func(raw []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("lexer panicked on %q: %v", raw, r)
			}
		}()
		Lex(string(raw))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestParserNeverPanicsProperty(t *testing.T) {
	// Same for the full front end: arbitrary bytes either parse or error.
	f := func(raw []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("parser panicked on %q: %v", raw, r)
			}
		}()
		Parse(string(raw))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestCommaOperatorInFor(t *testing.T) {
	f, err := Parse(`
char *rev_scan(char *s, char *e) {
  for (; s < e; s++, e--)
    ;
  return s;
}`)
	if err != nil {
		t.Fatal(err)
	}
	forStmt, ok := f.Funcs[0].Body.Stmts[0].(*For)
	if !ok {
		t.Fatalf("stmt is %T", f.Funcs[0].Body.Stmts[0])
	}
	if b, ok := forStmt.Post.(*Binary); !ok || b.Op != "," {
		t.Fatalf("post = %v", forStmt.Post)
	}
}

func TestDanglingElse(t *testing.T) {
	// The else binds to the nearest if.
	f, err := Parse(`
int g(int a, int b) {
  if (a)
    if (b) return 1;
    else return 2;
  return 3;
}`)
	if err != nil {
		t.Fatal(err)
	}
	outer := f.Funcs[0].Body.Stmts[0].(*If)
	if outer.Else != nil {
		t.Fatal("outer if must not own the else")
	}
	inner := outer.Then.(*If)
	if inner.Else == nil {
		t.Fatal("inner if must own the else")
	}
}

func TestMacroShadowingAndRedefinition(t *testing.T) {
	toks, err := Preprocess(`
#define N 1
#define N 2
int x = N;`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(joinToks(toks), "x = 2") {
		t.Fatalf("redefinition should win: %q", joinToks(toks))
	}
}

func TestFunctionMacroMultiTokenArgs(t *testing.T) {
	toks, err := Preprocess(`
#define MAX(a, b) ((a) > (b) ? (a) : (b))
int m = MAX(x + 1, f(y, z));`)
	if err != nil {
		t.Fatal(err)
	}
	j := joinToks(toks)
	if !strings.Contains(j, "( x + 1 ) > ( f ( y , z ) )") {
		t.Fatalf("expansion: %q", j)
	}
}

func TestSizeT(t *testing.T) {
	f, err := Parse(`long f(char *s) { size_t n = 0; return n; }`)
	if err != nil {
		t.Fatal(err)
	}
	d := f.Funcs[0].Body.Stmts[0].(*DeclStmt).Decls[0]
	if d.Type.Base != TyLong || !d.Type.Unsigned {
		t.Fatalf("size_t = %v", d.Type)
	}
}

// parseExpr parses a single C expression.
func parseExpr(src string) (Expr, error) {
	toks, err := Preprocess(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if !p.atEOF() {
		return nil, fmt.Errorf("cc: trailing tokens after expression at %s", p.cur().Pos())
	}
	return e, nil
}
