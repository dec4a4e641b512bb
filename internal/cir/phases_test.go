package cir_test

import (
	"strings"
	"testing"

	"stringloops/internal/cc"
	"stringloops/internal/cir"
)

// lowerAll parses src and lowers every function in it, returning the IR text.
func lowerAll(src string) (string, error) {
	file, err := cc.Parse(src)
	if err != nil {
		return "", err
	}
	funcs, err := cir.LowerFile(file)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for _, f := range funcs {
		b.WriteString(f.String())
	}
	return b.String(), nil
}

const spaceLoop = "char *f(char *s) { while (*s == SP) s++; return s; }\n"

// TestCommentsAreRemovedBeforeDirectives: C removes comments (translation
// phase 3) before it runs directives (phase 4, C11 5.1.1.2), so a directive
// inside a comment does nothing, a comment before a directive's '#' is
// whitespace, and a comment in a directive may span lines. Each source must
// lower as its twin with the comments deleted by hand, as gcc -E reads both.
func TestCommentsAreRemovedBeforeDirectives(t *testing.T) {
	for _, c := range []struct{ src, clean string }{
		{"#define SP ' '\n/*\n#define SP 'x'\n*/\n" + spaceLoop, "#define SP ' '\n\n" + spaceLoop},
		{"#define SP ' '\n/*\n#undef SP\n*/\n" + spaceLoop, "#define SP ' '\n\n" + spaceLoop},
		{"#define SP ' '\n/*\n#if 0\n*/\n" + spaceLoop, "#define SP ' '\n\n" + spaceLoop},
		{"/* ws */ #define SP ' '\n" + spaceLoop, " #define SP ' '\n" + spaceLoop},
		{"#define SP ' ' /* a\n b */\n" + spaceLoop, "#define SP ' ' \n" + spaceLoop},
		{"#define SP /* a\n b */ ' '\n" + spaceLoop, "#define SP   ' '\n" + spaceLoop},
		{"#define SP ' ' // a \\\n b\n" + spaceLoop, "#define SP ' ' \n" + spaceLoop},
	} {
		want, err := lowerAll(c.clean)
		if err != nil {
			t.Fatalf("%q: %v", c.clean, err)
		}
		got, err := lowerAll(c.src)
		if err != nil {
			t.Errorf("%q: %v", c.src, err)
			continue
		}
		if got != want {
			t.Errorf("%q lowers to\n%s\nwant, as %q,\n%s", c.src, got, c.clean, want)
		}
	}
}

// TestSplicesTakeEitherLineEnd: a backslash at the end of a line splices it
// to the next (translation phase 2) whether the line ends in LF or CRLF.
func TestSplicesTakeEitherLineEnd(t *testing.T) {
	oneLine := "#define WS(c) ((c) == ' ' || (c) == '\\t')\nchar *f(char *s) { while (WS(*s)) s++; return s; }\n"
	want, err := lowerAll(oneLine)
	if err != nil {
		t.Fatal(err)
	}
	for _, eol := range []string{"\n", "\r\n"} {
		src := "#define WS(c) ((c) == ' ' || \\" + eol + "  (c) == '\\t')" + eol +
			"char *f(char *s) { while (WS(*s)) s++; return s; }" + eol
		got, err := lowerAll(src)
		if err != nil {
			t.Errorf("%q: %v", src, err)
			continue
		}
		if got != want {
			t.Errorf("%q lowers to\n%s\nwant\n%s", src, got, want)
		}
	}
}

// TestSplicesJoinTokens: a splice inside an identifier, a number, a
// punctuator or a string literal joins the token's two halves.
func TestSplicesJoinTokens(t *testing.T) {
	want, err := lowerAll("int f(char *s) { int n = 0; while (s[n] != 0x2c && s[n] != \"ab\"[1]) n += 1; return n; }")
	if err != nil {
		t.Fatal(err)
	}
	src := "int f(char *s) { int n = 0; wh\\\nile (s[n] !\\\r\n= 0x\\\n2c && s[n] != \"a\\\nb\"[1]) n +\\\n= 1; return n; }"
	got, err := lowerAll(src)
	if err != nil {
		t.Fatalf("%q: %v", src, err)
	}
	if got != want {
		t.Errorf("%q lowers to\n%s\nwant\n%s", src, got, want)
	}
}
