package cc

import (
	"strings"
	"testing"
)

// spellings are C's punctuators in this subset, longest first, as a
// maximal-munch reference for the lexer's first-byte dispatch.
var spellings = []string{
	"<<=", ">>=", "...",
	"==", "!=", "<=", ">=", "&&", "||", "++", "--", "+=", "-=", "*=", "/=",
	"%=", "&=", "|=", "^=", "->", "<<", ">>",
	"+", "-", "*", "/", "%", "=", "<", ">", "!", "~", "&", "|", "^", "?",
	":", ";", ",", "(", ")", "[", "]", "{", "}", ".",
}

// TestPunctuatorsMunchMaximally: every string of up to three punctuation
// bytes that holds no comment lexes as the longest-match reading of the
// spellings, token for token.
func TestPunctuatorsMunchMaximally(t *testing.T) {
	const alphabet = "+-&|<>=!*/%^.~?:;,()[]{}"
	var strs []string
	for _, a := range alphabet {
		strs = append(strs, string(a))
		for _, b := range alphabet {
			strs = append(strs, string(a)+string(b))
			for _, c := range alphabet {
				strs = append(strs, string(a)+string(b)+string(c))
			}
		}
	}
	for _, src := range strs {
		if strings.Contains(src, "//") || strings.Contains(src, "/*") {
			continue
		}
		var want []string
		for rest := src; rest != ""; {
			for _, p := range spellings {
				if strings.HasPrefix(rest, p) {
					want = append(want, p)
					rest = rest[len(p):]
					break
				}
			}
		}
		toks, err := Lex(src)
		if err != nil {
			t.Fatalf("Lex(%q): %v", src, err)
		}
		if got := joinToks(toks); got != strings.Join(want, " ") {
			t.Errorf("Lex(%q) = %q, want %q", src, got, strings.Join(want, " "))
		}
	}
}
