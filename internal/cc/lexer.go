package cc

import (
	"fmt"
	"strconv"
	"strings"
)

// Lex tokenizes C source (after preprocessing; see Preprocess). It returns
// the token stream excluding TEOF, or an error naming the offending position.
// Line splices and comments are removed as Preprocess removes them; a '#' is
// an error.
func Lex(src string) ([]Token, error) {
	l := newLexer(src)
	var s tokenStore
	s.init(len(src))
	for {
		if err := l.skipBlank(false); err != nil {
			return nil, err
		}
		if l.pos >= len(l.src) {
			return s.flatten(), nil
		}
		if err := l.lex(s.next()); err != nil {
			return nil, err
		}
	}
}

// lexer scans a source once, carrying out C's translation phases 2 and 3 as
// it reads (C11 5.1.1.2): a line splice (a backslash, optional blanks, then
// LF or CRLF) is deleted wherever it appears, even inside a token, and a
// comment is whitespace. Preprocess runs phase 4 on the same scan: a '#'
// that begins a logical line begins a directive. Positions are physical
// lines and byte columns, from 1.
type lexer struct {
	src string
	// pos is the next byte to read. It never rests on a line splice: every
	// read steps past the splices that follow the byte read.
	pos int
	// end is the offset just past the last byte read; splices after that
	// byte put pos beyond it.
	end       int
	line      int // the physical line of pos
	lineStart int // the offset of that line's first byte
	// bol reports that only blanks and comments precede pos on its logical
	// line, so that a '#' there begins a directive.
	bol bool
}

func newLexer(src string) *lexer {
	l := &lexer{src: src, line: 1, bol: true}
	l.skipSplices()
	return l
}

// Byte classes.
const (
	cIdent      = 1 << iota // may continue an identifier
	cIdentStart             // may begin an identifier
	cDigit
	cHex
	cBlank // whitespace other than a newline
)

var class = func() (t [256]uint8) {
	for c := range t {
		switch {
		case c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z':
			t[c] = cIdent | cIdentStart
		case c >= '0' && c <= '9':
			t[c] = cIdent | cDigit
		case c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f':
			t[c] = cBlank
		}
		if c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F' {
			t[c] |= cHex
		}
	}
	return t
}()

// spliceLen returns the length of the line splice at i, or 0 if none starts
// there. Blanks between the backslash and the line end are allowed, as gcc
// allows them.
func spliceLen(src string, i int) int {
	if i >= len(src) || src[i] != '\\' {
		return 0
	}
	j := i + 1
	for j < len(src) && (src[j] == ' ' || src[j] == '\t') {
		j++
	}
	if j < len(src) && src[j] == '\r' {
		j++
	}
	if j < len(src) && src[j] == '\n' {
		return j + 1 - i
	}
	return 0
}

// skipSplices steps past the line splices at pos.
func (l *lexer) skipSplices() {
	for n := spliceLen(l.src, l.pos); n > 0; n = spliceLen(l.src, l.pos) {
		l.pos += n
		l.line++
		l.lineStart = l.pos
	}
}

// unsplice returns the source text s with its line splices deleted. Outside
// character and string literals, a backslash in a token's text can only
// begin a splice.
func unsplice(s string) string {
	if strings.IndexByte(s, '\\') < 0 {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		for n := spliceLen(s, i); n > 0; n = spliceLen(s, i) {
			i += n
		}
		if i < len(s) {
			b.WriteByte(s[i])
		}
	}
	return b.String()
}

func (l *lexer) col() int { return l.pos - l.lineStart + 1 }

func (l *lexer) errf(format string, args ...interface{}) error {
	return fmt.Errorf("%d:%d: %s", l.line, l.col(), fmt.Sprintf(format, args...))
}

// at returns the byte at offset i, or 0 past the end.
func (l *lexer) at(i int) byte {
	if i >= len(l.src) {
		return 0
	}
	return l.src[i]
}

// after returns the offset of the byte read after the one at i.
func (l *lexer) after(i int) int {
	i++
	for n := spliceLen(l.src, i); n > 0; n = spliceLen(l.src, i) {
		i += n
	}
	return i
}

func (l *lexer) peek() byte { return l.at(l.pos) }

func (l *lexer) peek2() byte { return l.at(l.after(l.pos)) }

// advance reads the next byte.
func (l *lexer) advance() byte {
	c := l.src[l.pos]
	l.pos++
	l.end = l.pos
	if c == '\n' {
		l.line++
		l.lineStart = l.pos
	}
	if l.pos < len(l.src) && l.src[l.pos] == '\\' {
		l.skipSplices()
	}
	return c
}

// accept reads the next byte if it is c.
func (l *lexer) accept(c byte) bool {
	if l.peek() == c {
		l.advance()
		return true
	}
	return false
}

// skipClass reads the bytes of class k that follow, none of them a newline.
func (l *lexer) skipClass(k uint8) {
	for l.pos < len(l.src) && class[l.src[l.pos]]&k != 0 {
		l.pos++
		l.end = l.pos
		if l.pos < len(l.src) && l.src[l.pos] == '\\' {
			l.skipSplices()
		}
	}
}

// skipBlank skips whitespace and comments, and sets bol at each newline.
// In a directive (stopAtNewline) it stops at the newline that ends the line
// instead. A newline inside a block comment ends no line: the comment is
// one space.
func (l *lexer) skipBlank(stopAtNewline bool) error {
	for l.pos < len(l.src) {
		switch c := l.src[l.pos]; {
		case c == '\n':
			if stopAtNewline {
				return nil
			}
			l.advance()
			l.bol = true
		case class[c]&cBlank != 0:
			l.advance()
		case c != '/':
			return nil
		case l.peek2() == '/':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.advance()
			}
		case l.peek2() == '*':
			line, col := l.line, l.col()
			l.advance()
			l.advance()
			for {
				if l.pos >= len(l.src) {
					return fmt.Errorf("%d:%d: unterminated block comment", line, col)
				}
				if l.advance() == '*' && l.peek() == '/' {
					l.advance()
					break
				}
			}
		default:
			return nil
		}
	}
	return nil
}

// atLineEnd reports whether a directive's line ends at pos.
func (l *lexer) atLineEnd() bool { return l.pos >= len(l.src) || l.src[l.pos] == '\n' }

// lex reads the token at pos, which is neither blank nor the end, into t.
func (l *lexer) lex(t *Token) error {
	t.Line, t.Col = l.line, l.col()
	start := l.pos
	switch c := l.src[l.pos]; {
	case class[c]&cIdentStart != 0:
		l.skipClass(cIdent)
		t.Kind, t.Text = TIdent, unsplice(l.src[start:l.end])
		if isKeyword(t.Text) {
			t.Kind = TKeyword
		}
		return nil
	case class[c]&cDigit != 0:
		return l.lexNumber(t, start)
	case c == '\'':
		return l.lexChar(t)
	case c == '"':
		return l.lexString(t)
	}
	if !l.punct() {
		return l.errf("unexpected character %q", l.peek())
	}
	t.Kind, t.Text = TPunct, unsplice(l.src[start:l.end])
	return nil
}

// punct reads the longest punctuator at pos, choosing by its first byte,
// and reports whether one begins there.
func (l *lexer) punct() bool {
	c := l.peek()
	switch c {
	case '(', ')', '[', ']', '{', '}', ';', ',', '?', ':', '~':
	case '.':
		if i := l.after(l.pos); l.at(i) == '.' && l.at(l.after(i)) == '.' {
			l.advance()
			l.advance()
		}
	case '+', '-', '&', '|':
		// Doubled, followed by '=', or "->".
		l.advance()
		if !l.accept(c) && !l.accept('=') && c == '-' {
			l.accept('>')
		}
		return true
	case '*', '/', '%', '=', '!', '^':
		l.advance()
		l.accept('=')
		return true
	case '<', '>':
		// Maybe doubled, then maybe followed by '='.
		l.advance()
		l.accept(c)
		l.accept('=')
		return true
	default:
		return false
	}
	l.advance()
	return true
}

func isKeyword(s string) bool {
	switch s {
	case "void", "char", "int", "long", "short", "unsigned", "signed", "const",
		"static", "inline", "extern", "register", "volatile", "if", "else",
		"for", "while", "do", "return", "break", "continue", "goto", "sizeof",
		"struct", "union", "enum", "switch", "case", "default", "typedef":
		return true
	}
	return false
}

func (l *lexer) lexNumber(t *Token, start int) error {
	if l.peek() == '0' && (l.peek2() == 'x' || l.peek2() == 'X') {
		l.advance()
		l.advance()
		l.skipClass(cHex)
	} else {
		l.skipClass(cDigit)
	}
	text := unsplice(l.src[start:l.end])
	// Swallow integer suffixes (u, l, ul, ll, ...).
	for c := l.peek(); c == 'u' || c == 'U' || c == 'l' || c == 'L'; c = l.peek() {
		l.advance()
	}
	val, err := strconv.ParseInt(text, 0, 64)
	if err != nil {
		return fmt.Errorf("%d:%d: bad integer literal %q", t.Line, t.Col, text)
	}
	t.Kind, t.Num, t.Text = TNumber, val, text
	return nil
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
		for n := 1; n < 3 && l.peek() >= '0' && l.peek() <= '7'; n++ {
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
		for ; class[l.peek()]&cHex != 0; n++ {
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

func (l *lexer) lexChar(t *Token) error {
	l.advance() // opening quote
	if l.pos >= len(l.src) {
		return l.errf("unterminated character literal")
	}
	val := l.advance()
	if val == '\\' {
		var err error
		if val, err = l.lexEscape(); err != nil {
			return err
		}
	}
	if l.pos >= len(l.src) || l.advance() != '\'' {
		return fmt.Errorf("%d:%d: unterminated character literal", t.Line, t.Col)
	}
	t.Kind, t.Num = TChar, int64(val)
	return nil
}

func (l *lexer) lexString(t *Token) error {
	l.advance() // opening quote
	// A literal without escapes or splices is its own source text; only
	// those make the lexer build the decoded value.
	start := l.pos
	var sb strings.Builder
	built := false
	for {
		if l.pos >= len(l.src) {
			return fmt.Errorf("%d:%d: unterminated string literal", t.Line, t.Col)
		}
		at := l.pos
		c := l.advance()
		if c == '"' {
			break
		}
		if !built && (c == '\\' || l.pos != l.end) {
			sb.WriteString(l.src[start:at])
			built = true
		}
		if c == '\\' {
			e, err := l.lexEscape()
			if err != nil {
				return err
			}
			c = e
		}
		if built {
			sb.WriteByte(c)
		}
	}
	t.Kind, t.Str = TString, l.src[start:l.end-1]
	if built {
		t.Str = sb.String()
	}
	return nil
}

// tokenStore holds lexed tokens in chunks that never move once made, so
// that the expander can point at a run's tokens while later ones are lexed.
// The first chunk is sized from the source and the next ones double up to
// maxChunk, which bounds the unused tail of the last. A store may be reset
// and filled again, reusing its chunks.
type tokenStore struct {
	chunks [][]Token
	last   int // the chunk being filled
	n      int // tokens in the store
}

const maxChunk = 1024

// init empties the store for a source of n bytes, sizing the first chunk
// if it has none. C runs about three bytes a token (the corpus 2.8 with its
// directives), so n/2 tokens are room for all but the densest sources.
func (s *tokenStore) init(n int) {
	if len(s.chunks) == 0 {
		s.chunks = [][]Token{make([]Token, 0, min(max(n/2, 16), maxChunk))}
	}
	for i := range s.chunks[:s.last+1] {
		s.chunks[i] = s.chunks[i][:0]
	}
	s.last, s.n = 0, 0
}

// next appends a zero token and returns it.
func (s *tokenStore) next() *Token {
	c := &s.chunks[s.last]
	if len(*c) == cap(*c) {
		if s.last++; s.last == len(s.chunks) {
			s.chunks = append(s.chunks, make([]Token, 0, min(2*cap(*c), maxChunk)))
		}
		c = &s.chunks[s.last]
	}
	*c = append(*c, Token{})
	s.n++
	return &(*c)[len(*c)-1]
}

// flatten returns every token in one slice.
func (s *tokenStore) flatten() []Token {
	if s.last == 0 {
		return s.chunks[0]
	}
	out := make([]Token, 0, s.n)
	for _, c := range s.chunks[:s.last+1] {
		out = append(out, c...)
	}
	return out
}

// refs returns references to the tokens from the from'th on, walking back
// over the chunks that hold them.
func (s *tokenStore) refs(from int) []ptok {
	out := make([]ptok, s.n-from)
	k := len(out)
	for i := s.last; k > 0; i-- {
		c := s.chunks[i]
		take := min(len(c), k)
		for j := range take {
			out[k-take+j].Token = &c[len(c)-take+j]
		}
		k -= take
	}
	return out
}
