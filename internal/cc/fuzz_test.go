package cc

import "testing"

// FuzzParse checks that the front end is total: arbitrary input either
// parses or errors, never panics, and parsed output re-parses.
func FuzzParse(f *testing.F) {
	f.Add("char *f(char *s) { while (*s == ' ') s++; return s; }")
	f.Add("#define A(x) ((x)+1)\nint f(void) { return A(2); }")
	f.Add("int f() { for (;;) break; return 0; }")
	f.Add("{{{")
	// Directives in source order, self-referencing macros, a doubling chain
	// far past the expansion bound and an argument in deeply nested calls.
	f.Add("#define X 0\nint f(void) { return X; }\n#undef X\nint g(void) { return X; }")
	f.Add("int f(void) { return Y; }\n#define Y 1\nint g(void) { return Y; }")
	f.Add("#define foo foo\nint foo;\n#define x (x)\nint f(int x) { return x; }")
	f.Add(doublingChain(30))
	f.Add(nestedLargeArgument(250, 1000))
	// Parentheses nested far past the parser's nesting bound.
	f.Add(nested("(", "1", ")", 100_000))
	f.Fuzz(func(t *testing.T, src string) {
		file, err := Parse(src)
		if err != nil {
			return
		}
		for _, fn := range file.Funcs {
			if fn.Name == "" || fn.Body == nil {
				t.Fatalf("parsed function with empty name or body")
			}
		}
	})
}
