package cc

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
)

// macro is a preprocessor definition.
type macro struct {
	name   string
	isFunc bool
	params []string
	body   []Token
}

// Preprocess handles the single-file subset of the C preprocessor the loop
// corpus needs: object-like and function-like #define, #undef, and ignored
// #include lines. It returns the fully macro-expanded token stream.
//
// It runs translation phases 2 to 4 in one scan of src: line splices are
// deleted, comments become whitespace, and only then is a '#' that begins a
// logical line a directive, so a directive in a comment does nothing and a
// comment may precede a directive or span the lines of one.
//
// Directives act in source order: each run of code between two directives
// is expanded with the macros defined at that point, and a macro invocation
// whose arguments span a directive (undefined in C, C11 6.10.3p11) is an
// error. A macro is not expanded inside its own expansion (C11 6.10.3.4p2),
// and an expansion past the bounds below fails with ErrExpansionTooLarge.
//
// Headers are not read, so the one macro they supply that loops use, NULL,
// is predefined as <stddef.h> defines it; a #define or #undef in the source
// overrides it.
func Preprocess(src string) ([]Token, error) {
	l := newLexer(src)
	e := &expander{macros: map[string]*macro{"NULL": nullMacro}, budget: maxExpansion}
	s := stores.Get().(*tokenStore)
	defer stores.Put(s)
	s.init(len(src))
	// The expanded runs are kept until the end, so that the output is built
	// in one slice of its final size.
	var runs [][]ptok
	total := 0
	for {
		from := s.n
		directive, err := l.code(s)
		if err != nil {
			return nil, err
		}
		expanded, err := e.expand(s.refs(from))
		if err != nil {
			return nil, err
		}
		runs = append(runs, expanded)
		total += len(expanded)
		if !directive {
			break
		}
		if err := l.directive(e); err != nil {
			return nil, err
		}
	}
	out := make([]Token, 0, total)
	for _, run := range runs {
		for _, t := range run {
			out = append(out, *t.Token)
		}
	}
	return out, nil
}

// stores holds the token stores of finished Preprocess calls for reuse:
// once the output is copied out, nothing points into a store.
var stores = sync.Pool{New: func() any { return new(tokenStore) }}

// code lexes tokens into s up to the end of the source or the '#' that
// begins a directive, which it reads, reporting that a directive follows.
func (l *lexer) code(s *tokenStore) (directive bool, err error) {
	for {
		if err := l.skipBlank(false); err != nil {
			return false, err
		}
		if l.pos >= len(l.src) {
			return false, nil
		}
		if l.bol && l.src[l.pos] == '#' {
			return true, nil
		}
		if err := l.lex(s.next()); err != nil {
			return false, err
		}
		l.bol = false
	}
}

// directive runs the directive whose '#' is at pos, reading its line up to
// the newline that ends it.
func (l *lexer) directive(e *expander) error {
	hash := l.pos
	l.advance()
	l.bol = false
	if err := l.skipBlank(true); err != nil {
		return err
	}
	if l.atLineEnd() {
		return nil // the null directive
	}
	switch l.word() {
	case "define":
		m, err := l.define()
		if err != nil {
			return err
		}
		e.macros[m.name] = m
		return nil
	case "undef":
		if err := l.skipBlank(true); err != nil {
			return err
		}
		delete(e.macros, l.word())
	case "include":
		// Headers provide declarations we already know about; ignore.
	default:
		line := l.src[hash:]
		if i := strings.IndexByte(line, '\n'); i >= 0 {
			line = line[:i]
		}
		return fmt.Errorf("cc: unsupported preprocessor directive %q", strings.TrimSpace(line))
	}
	// The rest of the line is ignored.
	for !l.atLineEnd() {
		if err := l.skipBlank(true); err != nil {
			return err
		}
		if !l.atLineEnd() {
			l.advance()
		}
	}
	return nil
}

// word reads the identifier characters at pos.
func (l *lexer) word() string {
	start := l.pos
	if l.skipClass(cIdent); l.pos == start {
		return ""
	}
	return unsplice(l.src[start:l.end])
}

// lineToken lexes the next token of a directive's line into t, or reports
// that the line has ended.
func (l *lexer) lineToken(t *Token) (bool, error) {
	if err := l.skipBlank(true); err != nil {
		return false, fmt.Errorf("cc: bad #define: %v", err)
	}
	if l.atLineEnd() {
		return false, nil
	}
	if err := l.lex(t); err != nil {
		return false, fmt.Errorf("cc: bad #define: %v", err)
	}
	return true, nil
}

// define reads a #define's line after the word define.
func (l *lexer) define() (*macro, error) {
	var t Token
	ok, err := l.lineToken(&t)
	if err != nil {
		return nil, err
	}
	if !ok || t.Kind != TIdent && t.Kind != TKeyword {
		return nil, fmt.Errorf("cc: #define needs a name")
	}
	m := &macro{name: t.Text}
	// Function-like only if '(' immediately follows the name.
	if l.peek() == '(' {
		m.isFunc = true
		l.advance()
		for {
			ok, err := l.lineToken(&t)
			if err != nil {
				return nil, err
			}
			if !ok {
				return nil, fmt.Errorf("cc: unterminated macro parameter list for %s", m.name)
			}
			if t.Kind == TPunct && t.Text == ")" {
				break
			}
			if t.Kind == TIdent {
				m.params = append(m.params, t.Text)
			} else if t.Kind != TPunct || t.Text != "," {
				return nil, fmt.Errorf("cc: bad macro parameter list for %s", m.name)
			}
		}
	}
	for {
		m.body = append(m.body, Token{})
		ok, err := l.lineToken(&m.body[len(m.body)-1])
		if err != nil {
			return nil, err
		}
		if !ok {
			m.body = m.body[:len(m.body)-1]
			return m, nil
		}
	}
}

// nullMacro is NULL as <stddef.h> defines it.
var nullMacro = func() *macro {
	toks, err := Lex("NULL ((void *)0)")
	if err != nil {
		panic(err)
	}
	return &macro{name: "NULL", body: toks[1:]}
}()

// Expansion bounds, far above what any loop needs. maxExpansion caps one
// source's replacement work: each token a replacement produces, each
// hide-set entry it merges, and each token of a macro call's argument list
// costs one, so neither doubling macro chains nor large arguments copied at
// every level of nested calls can exhaust memory. A call nested d deep in
// arguments costs at least d^2 (each level's list holds the levels inside
// it), so the budget also bounds the expander's recursion. maxExpansionDepth
// caps the macros a token may come from.
const (
	maxExpansion      = 1 << 18
	maxExpansionDepth = 64
)

// ErrExpansionTooLarge reports a macro expansion past the preprocessor's
// bounds.
var ErrExpansionTooLarge = errors.New("cc: macro expansion too large")

// expander carries the macro table and expansion budget through one source.
type expander struct {
	macros map[string]*macro
	budget int // work macro replacement may still do (see maxExpansion)
}

// hideSet is the set of macros a token came from, which may not expand it
// again. Sets are immutable and share tails; n is the set's size.
type hideSet struct {
	name string
	n    int
	next *hideSet
}

func (h *hideSet) size() int {
	if h == nil {
		return 0
	}
	return h.n
}

func (h *hideSet) has(name string) bool {
	for ; h != nil; h = h.next {
		if h.name == name {
			return true
		}
	}
	return false
}

func (h *hideSet) add(name string) *hideSet { return &hideSet{name, h.size() + 1, h} }

// union returns the names of h and o.
func (h *hideSet) union(o *hideSet) *hideSet {
	for ; h != nil; h = h.next {
		if !o.has(h.name) {
			o = o.add(h.name)
		}
	}
	return o
}

// ptok is a token under expansion with its hide set. It points at the
// token, in the lexed source or a macro body, so that the expander's copies
// of the stream take a few bytes a token.
type ptok struct {
	*Token
	hide *hideSet
}

// expand fully macro-replaces in (Prosser's algorithm), reusing in. A macro
// name outside its own hide set is replaced by the body, each parameter by
// its fully expanded argument, and rescanned with the rest of the input; the
// replacement's hide sets gain the name's set and the name. (C leaves open
// whether a closing parenthesis's hide set counts too, C11 6.10.3.4p4; here
// it does not.)
func (e *expander) expand(in []ptok) ([]ptok, error) {
	// stack holds the unread input in reverse: the next token is last.
	stack := in
	slices.Reverse(stack)
	out := make([]ptok, 0, len(in))
	for len(stack) > 0 {
		t := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		var m *macro
		if t.Kind == TIdent {
			m = e.macros[t.Text]
		}
		if m == nil || t.hide.has(t.Text) {
			out = append(out, t)
			continue
		}
		var args [][]ptok
		if m.isFunc {
			// A function-like macro name not followed by '(' is ordinary.
			if len(stack) == 0 || stack[len(stack)-1].Kind != TPunct || stack[len(stack)-1].Text != "(" {
				out = append(out, t)
				continue
			}
			var err error
			if args, stack, err = e.popArgs(stack); err != nil {
				return nil, err
			}
			if len(args) != len(m.params) && !(len(m.params) == 0 && len(args) == 1 && len(args[0]) == 0) {
				return nil, fmt.Errorf("cc: macro %s expects %d arguments, got %d", m.name, len(m.params), len(args))
			}
		}
		if t.hide.size() >= maxExpansionDepth {
			return nil, fmt.Errorf("%w: macros nested more than %d deep", ErrExpansionTooLarge, maxExpansionDepth)
		}
		var err error
		if stack, err = e.subst(stack, m, args, t.hide.add(m.name)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// subst pushes m's replacement list onto stack, last token first, with each
// parameter replaced by its fully expanded argument and hide added to every
// token's hide set.
func (e *expander) subst(stack []ptok, m *macro, args [][]ptok, hide *hideSet) ([]ptok, error) {
	expanded := make([][]ptok, len(args))
	for i := len(m.body) - 1; i >= 0 && e.budget >= 0; i-- {
		p := slices.Index(m.params, m.body[i].Text)
		if m.body[i].Kind != TIdent || p < 0 {
			stack = append(stack, ptok{&m.body[i], hide})
			e.budget--
			continue
		}
		if expanded[p] == nil {
			arg, err := e.expand(args[p])
			if err != nil {
				return nil, err
			}
			expanded[p] = arg
		}
		for j := len(expanded[p]) - 1; j >= 0; j-- {
			t := expanded[p][j]
			stack = append(stack, ptok{t.Token, t.hide.union(hide)})
			e.budget -= 1 + t.hide.size()
		}
	}
	if e.budget < 0 {
		return nil, errOverBudget
	}
	return stack, nil
}

var errOverBudget = fmt.Errorf("%w: past %d units of work", ErrExpansionTooLarge, maxExpansion)

// popArgs pops a parenthesised argument list from the top of stack,
// returning the arguments and the rest of the stack. The list is charged to
// the budget, one unit a token, before it is copied: arguments live in one
// copy of the list, since later pushes overwrite the stack below them.
func (e *expander) popArgs(stack []ptok) ([][]ptok, []ptok, error) {
	end, depth := len(stack)-1, 1 // stack[end] is the '('
	for depth > 0 && end > 0 {
		end--
		if t := stack[end]; t.Kind == TPunct && t.Text == "(" {
			depth++
		} else if t.Kind == TPunct && t.Text == ")" {
			depth--
		}
	}
	if depth > 0 {
		return nil, nil, fmt.Errorf("cc: unterminated macro invocation at %s", stack[len(stack)-1].Pos())
	}
	if e.budget -= len(stack) - end; e.budget < 0 {
		return nil, nil, errOverBudget
	}
	list := slices.Clone(stack[end:])
	slices.Reverse(list)
	var args [][]ptok
	start := 1
	for i, t := range list {
		switch {
		case t.Kind != TPunct:
		case t.Text == "(":
			depth++
		case t.Text == ")":
			depth--
		case t.Text == "," && depth == 1:
			args = append(args, list[start:i:i])
			start = i + 1
		}
	}
	return append(args, list[start:len(list)-1:len(list)-1]), stack[:end], nil
}
