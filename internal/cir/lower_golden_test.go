package cir_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"stringloops/internal/cc"
	"stringloops/internal/cir"
	"stringloops/internal/diffuzz"
	"stringloops/internal/loopdb"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/lower_golden.txt from the current front end")

// goldenPath holds one line per lowered function: a label, the sha256 of
// Func.String and CanonicalHash, tab-separated. A source the front end
// rejects has the quoted error text in place of the two hashes.
const goldenPath = "testdata/lower_golden.txt"

// frontEndCases are hand-written sources that reach each error of the front
// end (lexing, preprocessing, parsing, lowering) and a few that exercise its
// corners (CRLF line ends, comments and string contents that look alike),
// so that the table pins error texts and positions as well as IR.
var frontEndCases = []string{
	"int f(void) { return $; }",
	"int f(void) { return 'a; }",
	"int f(void) { return \"abc; }",
	"int f(void) { return 1; } /* unclosed",
	"int f(void) { return '\\q'; }",
	"int f(void) { return '\\xg'; }",
	"int f(void) { return 0x; }",
	"int f(void) { return 99999999999999999999; }",
	"int f(int x) { return x +; }",
	"int f(void) { return y; }",
	"\n\nint f(void) {\n  return 1\n}\n",
	"#define A(x) x\nint f(void) { return A(1, 2); }",
	"#define f(a) a\nint g(void) { return f(1\n#define Z 2\n); }",
	"#if 0\nint f(void) { return 0; }\n#endif\n",
	"#define\nint f(void) { return 0; }",
	"#define F(a,1) a\nint f(void) { return 0; }",
	"#define F(a\nint f(void) { return 0; }",
	"#pragma once\nint f(void) { return 0; }",
	"int f(int x) { return " + strings.Repeat("(", 300) + "x" + strings.Repeat(")", 300) + "; }",
	"#define m1 m0 m0\n#define m2 m1 m1\n#define m3 m2 m2\n#define m4 m3 m3\n#define m5 m4 m4\n#define m6 m5 m5\n#define m7 m6 m6\n#define m8 m7 m7\n#define m9 m8 m8\n#define m10 m9 m9\n#define m11 m10 m10\n#define m12 m11 m11\n#define m13 m12 m12\n#define m14 m13 m13\n#define m15 m14 m14\n#define m16 m15 m15\n#define m17 m16 m16\n#define m18 m17 m17\n#define m19 m18 m18\nint v = m19;\n",
	"int f(void) { break; }",
	"char *f(char *s) { return s + s; }",
	"int f(void) { char *s = \"/* not a comment */\"; return $; }",
	"#define X 1\n#define Y 2\nint f(void) { return X + $; }",
	"#define X 1 // one\nint f(void) { return X + Y; }",
	"#define SP ' ' /* space */\nint f(char *s) { return *s == SP; }",
	"#include <string.h>\r\n#define SP ' '\r\nchar *f(char *s) {\r\n  while (*s == SP) // skip\r\n    s++;\r\n  return s;\r\n}\r\n",
	"char *f(char *s) { while (*s == '/' || *s == '*') s++; return s; } // a / b * c",
	"int f(int x) { return x/ /* divide */ 2; }",
	"int f(int x) { return x >>= 1, x <<= 2, x != 3 && x >= 4 || x <= 5 ? -x : ~x; }",
	"int f(char *s) { return s[0] == '\\\\' || s[1] == '\\'' || s[2] == '\"'; }",
	"char *f(char *s) { return strchr(s, '#'); }\n  # define G 1\nint g(void) { return G; }",
}

// loweringTable renders the golden table: every corpus loop as lowered and
// after Mem2Reg, every population loop as lowered, every function of the
// diffuzz sources of seeds 1..2000 as lowered, and every function of the
// frontEndCases.
func loweringTable() string {
	var b strings.Builder
	row := func(label string, f *cir.Func, err error) {
		if err != nil {
			fmt.Fprintf(&b, "%s\terror\t%q\n", label, err.Error())
			return
		}
		fmt.Fprintf(&b, "%s\t%x\t%s\n", label, sha256.Sum256([]byte(f.String())), cir.CanonicalHash(f))
	}
	for _, l := range loopdb.Corpus() {
		f, err := l.Lower()
		row("corpus/"+l.Name, f, err)
		if err == nil {
			cir.Mem2Reg(f)
			row("corpus+m2r/"+l.Name, f, nil)
		}
	}
	for i, l := range loopdb.Population() {
		f, err := l.Lower()
		row(fmt.Sprintf("population/%d/%s", i, l.Name), f, err)
	}
	source := func(label, src string) {
		file, err := cc.Parse(src)
		if err != nil {
			row(label, nil, err)
			return
		}
		for _, fn := range file.Funcs {
			f, err := cir.LowerFunc(fn, file)
			row(label+"/"+fn.Name, f, err)
		}
	}
	for seed := uint64(1); seed <= 2000; seed++ {
		source(fmt.Sprintf("diffuzz/%d", seed), diffuzz.Generate(seed).Source())
	}
	for i, src := range frontEndCases {
		source(fmt.Sprintf("case/%d", i), src)
	}
	return b.String()
}

// TestLoweringMatchesGolden holds the front end to the IR it produced when
// the table was captured: a change to lexing, preprocessing, parsing or
// lowering that moves any instruction, register, block or error text of
// these sources shows up as a changed row.
func TestLoweringMatchesGolden(t *testing.T) {
	got := loweringTable()
	if *updateGolden {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(string(raw), "\n")
	lines := strings.Split(got, "\n")
	if len(lines) != len(want) {
		t.Errorf("%d rows, want %d", len(lines), len(want))
	}
	bad := 0
	for i := range min(len(lines), len(want)) {
		if lines[i] != want[i] {
			t.Errorf("row %d:\n got %s\nwant %s", i+1, lines[i], want[i])
			if bad++; bad == 10 {
				t.Fatal("too many changed rows")
			}
		}
	}
}
