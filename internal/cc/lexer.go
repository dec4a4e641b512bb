package cc

import (
	"fmt"
	"strconv"
	"strings"
)

// Lex tokenizes C source (after preprocessing; see Preprocess). It returns
// the token stream excluding TEOF, or an error naming the offending position.
func Lex(src string) ([]Token, error) {
	// A first pass only counts the tokens, so that the second builds them in
	// one slice of the final size: appending to a growing slice allocates
	// about five times the final slice.
	count := &lexer{src: src, line: 1, col: 1}
	if err := count.run(); err != nil {
		return nil, err
	}
	l := &lexer{src: src, line: 1, col: 1, toks: make([]Token, 0, count.n), keep: true}
	err := l.run()
	return l.toks, err
}

type lexer struct {
	src  string
	pos  int
	line int
	col  int
	// n counts the tokens lexed; toks holds them when keep is set.
	n    int
	toks []Token
	keep bool
}

// emit records one token.
func (l *lexer) emit(t Token) {
	l.n++
	if l.keep {
		l.toks = append(l.toks, t)
	}
}

func (l *lexer) errf(format string, args ...interface{}) error {
	return fmt.Errorf("%d:%d: %s", l.line, l.col, fmt.Sprintf(format, args...))
}

func (l *lexer) peek() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *lexer) peek2() byte {
	if l.pos+1 >= len(l.src) {
		return 0
	}
	return l.src[l.pos+1]
}

func (l *lexer) advance() byte {
	c := l.src[l.pos]
	l.pos++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

// punctuators, longest first so maximal munch works.
var punctuators = []string{
	"<<=", ">>=", "...",
	"==", "!=", "<=", ">=", "&&", "||", "++", "--", "+=", "-=", "*=", "/=",
	"%=", "&=", "|=", "^=", "->", "<<", ">>",
	"+", "-", "*", "/", "%", "=", "<", ">", "!", "~", "&", "|", "^", "?",
	":", ";", ",", "(", ")", "[", "]", "{", "}", ".",
}

func (l *lexer) run() error {
	for l.pos < len(l.src) {
		c := l.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\v' || c == '\f':
			l.advance()
		case c == '/' && l.peek2() == '/':
			for l.pos < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		case c == '/' && l.peek2() == '*':
			startLine, startCol := l.line, l.col
			l.advance()
			l.advance()
			closed := false
			for l.pos < len(l.src) {
				if l.peek() == '*' && l.peek2() == '/' {
					l.advance()
					l.advance()
					closed = true
					break
				}
				l.advance()
			}
			if !closed {
				return fmt.Errorf("%d:%d: unterminated block comment", startLine, startCol)
			}
		case isIdentStart(c):
			tok, err := l.lexIdent()
			if err != nil {
				return err
			}
			l.emit(tok)
		case c >= '0' && c <= '9':
			tok, err := l.lexNumber()
			if err != nil {
				return err
			}
			l.emit(tok)
		case c == '\'':
			tok, err := l.lexChar()
			if err != nil {
				return err
			}
			l.emit(tok)
		case c == '"':
			tok, err := l.lexString()
			if err != nil {
				return err
			}
			l.emit(tok)
		default:
			tok, err := l.lexPunct()
			if err != nil {
				return err
			}
			l.emit(tok)
		}
	}
	return nil
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentCont(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9')
}

func (l *lexer) lexIdent() (Token, error) {
	line, col := l.line, l.col
	start := l.pos
	for l.pos < len(l.src) && isIdentCont(l.peek()) {
		l.advance()
	}
	text := l.src[start:l.pos]
	kind := TIdent
	if keywords[text] {
		kind = TKeyword
	}
	return Token{Kind: kind, Text: text, Line: line, Col: col}, nil
}

func (l *lexer) lexNumber() (Token, error) {
	line, col := l.line, l.col
	start := l.pos
	if l.peek() == '0' && (l.peek2() == 'x' || l.peek2() == 'X') {
		l.advance()
		l.advance()
		for l.pos < len(l.src) && isHexDigit(l.peek()) {
			l.advance()
		}
	} else {
		for l.pos < len(l.src) && l.peek() >= '0' && l.peek() <= '9' {
			l.advance()
		}
	}
	text := l.src[start:l.pos]
	// Swallow integer suffixes (u, l, ul, ll, ...).
	for l.pos < len(l.src) && strings.ContainsRune("uUlL", rune(l.peek())) {
		l.advance()
	}
	val, err := strconv.ParseInt(text, 0, 64)
	if err != nil {
		return Token{}, fmt.Errorf("%d:%d: bad integer literal %q", line, col, text)
	}
	return Token{Kind: TNumber, Num: val, Text: text, Line: line, Col: col}, nil
}

func isHexDigit(c byte) bool {
	return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}

func (l *lexer) lexEscape() (byte, error) {
	if l.pos >= len(l.src) {
		return 0, l.errf("unterminated escape sequence")
	}
	c := l.advance()
	switch c {
	case 'n':
		return '\n', nil
	case 't':
		return '\t', nil
	case 'r':
		return '\r', nil
	case '0', '1', '2', '3', '4', '5', '6', '7':
		// Octal escape: one to three octal digits, value taken mod 256
		// (values above \377 exceed the range of char).
		v := int(c - '0')
		for n := 1; n < 3 && l.pos < len(l.src) && l.peek() >= '0' && l.peek() <= '7'; n++ {
			v = v*8 + int(l.advance()-'0')
		}
		return byte(v), nil
	case 'a':
		return 7, nil
	case 'b':
		return 8, nil
	case 'f':
		return 12, nil
	case 'v':
		return 11, nil
	case '\\':
		return '\\', nil
	case '\'':
		return '\'', nil
	case '"':
		return '"', nil
	case '?':
		return '?', nil
	case 'x':
		// Hex escape: every hex digit that follows (C11 6.4.4.4), value
		// taken mod 256 as for octal.
		var v byte
		n := 0
		for ; l.pos < len(l.src) && isHexDigit(l.peek()); n++ {
			d, _ := strconv.ParseUint(string(l.advance()), 16, 8)
			v = v<<4 | byte(d)
		}
		if n == 0 {
			return 0, l.errf("bad hex escape")
		}
		return v, nil
	default:
		return 0, l.errf("unsupported escape \\%c", c)
	}
}

func (l *lexer) lexChar() (Token, error) {
	line, col := l.line, l.col
	l.advance() // opening quote
	if l.pos >= len(l.src) {
		return Token{}, l.errf("unterminated character literal")
	}
	var val byte
	c := l.advance()
	if c == '\\' {
		var err error
		val, err = l.lexEscape()
		if err != nil {
			return Token{}, err
		}
	} else {
		val = c
	}
	if l.pos >= len(l.src) || l.advance() != '\'' {
		return Token{}, fmt.Errorf("%d:%d: unterminated character literal", line, col)
	}
	return Token{Kind: TChar, Num: int64(val), Line: line, Col: col}, nil
}

func (l *lexer) lexString() (Token, error) {
	line, col := l.line, l.col
	l.advance() // opening quote
	// A literal without escapes is its own source text; only an escape makes
	// the lexer build the decoded value.
	start := l.pos
	var sb strings.Builder
	escaped := false
	for {
		if l.pos >= len(l.src) {
			return Token{}, fmt.Errorf("%d:%d: unterminated string literal", line, col)
		}
		c := l.advance()
		if c == '"' {
			break
		}
		if c == '\\' {
			if !escaped {
				sb.WriteString(l.src[start : l.pos-1])
				escaped = true
			}
			e, err := l.lexEscape()
			if err != nil {
				return Token{}, err
			}
			sb.WriteByte(e)
			continue
		}
		if escaped {
			sb.WriteByte(c)
		}
	}
	str := l.src[start : l.pos-1]
	if escaped {
		str = sb.String()
	}
	return Token{Kind: TString, Str: str, Line: line, Col: col}, nil
}

func (l *lexer) lexPunct() (Token, error) {
	line, col := l.line, l.col
	rest := l.src[l.pos:]
	for _, p := range punctuators {
		if strings.HasPrefix(rest, p) {
			for range p {
				l.advance()
			}
			return Token{Kind: TPunct, Text: p, Line: line, Col: col}, nil
		}
	}
	return Token{}, l.errf("unexpected character %q", l.peek())
}
