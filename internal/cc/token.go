// Package cc is a front end for the subset of C that real-world string loops
// are written in: functions over char/int/long/size_t values and pointers,
// the full statement repertoire those loops use (for, while, do-while, if,
// goto, break, continue, return), pointer arithmetic, array indexing,
// short-circuit logic, and a one-file preprocessor handling #define macros
// (both object-like and function-like, e.g. the whitespace(c) macro of the
// paper's Figure 1). It plays the role Clang/LLVM's front end plays in the
// paper's artifact.
//
// A source is read once. The scan runs C's translation phases in order
// (C11 5.1.1.2): line splices (backslash, then LF or CRLF) are deleted,
// comments become whitespace, and only then does a '#' that begins a
// logical line start a directive. Tokens are lexed on the same scan,
// punctuators chosen by their first byte, and the preprocessor expands each
// run of code between directives as it reaches the next. Positions in
// errors are physical lines and byte columns.
package cc

import "fmt"

// TokKind classifies a token.
type TokKind uint8

// Token kinds.
const (
	TEOF TokKind = iota
	TIdent
	TNumber // integer literal
	TChar   // character literal
	TString // string literal
	TPunct  // operator or punctuation
	TKeyword
)

// Token is a lexical token with its source position.
type Token struct {
	Kind TokKind
	Text string // identifier text, punctuation spelling, keyword
	Num  int64  // value for TNumber and TChar
	Str  string // decoded value for TString
	Line int
	Col  int
}

func (t Token) String() string {
	switch t.Kind {
	case TEOF:
		return "<eof>"
	case TNumber:
		return fmt.Sprintf("%d", t.Num)
	case TChar:
		return fmt.Sprintf("%q", byte(t.Num))
	case TString:
		return fmt.Sprintf("%q", t.Str)
	default:
		return t.Text
	}
}

// Pos formats the token's position for error messages.
func (t Token) Pos() string { return fmt.Sprintf("%d:%d", t.Line, t.Col) }

// IsTypeName reports whether name begins a type in this C subset. size_t and
// ssize_t are treated as built-in typedefs since string code uses them
// pervasively.
func IsTypeName(name string) bool {
	switch name {
	case "void", "char", "int", "long", "short", "unsigned", "signed", "const", "size_t", "ssize_t":
		return true
	}
	return false
}
