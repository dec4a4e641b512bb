package cc

import (
	"errors"
	"fmt"
	"slices"
	"strings"
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
// Directives act in source order: each run of code lines is expanded with
// the macros defined at that point, and a macro invocation whose arguments
// span a directive (undefined in C, C11 6.10.3p11) is an error. A macro is
// not expanded inside its own expansion (C11 6.10.3.4p2), and an expansion
// past the bounds below fails with ErrExpansionTooLarge.
//
// Headers are not read, so the one macro they supply that loops use, NULL,
// is predefined as <stddef.h> defines it; a #define or #undef in the source
// overrides it.
func Preprocess(src string) ([]Token, error) {
	lines := splitLogicalLines(src)
	// Directive lines are lexed as blank lines, so every token keeps its
	// line number.
	code := make([]string, len(lines))
	var directives []int
	for i, line := range lines {
		if strings.HasPrefix(strings.TrimSpace(line), "#") {
			directives = append(directives, i)
		} else {
			code[i] = line
		}
	}
	toks, err := Lex(strings.Join(code, "\n"))
	if err != nil {
		return nil, err
	}
	e := &expander{macros: map[string]*macro{"NULL": nullMacro}, budget: maxExpansion}
	rest := make([]ptok, len(toks))
	for i := range toks {
		rest[i].Token = &toks[i]
	}
	// The expanded runs are kept until the end, so that the output is built
	// in one slice of its final size.
	var runs [][]ptok
	total := 0
	for _, d := range append(directives, len(lines)) {
		// The run before line d+1, capped at its length: expand reuses it.
		n := 0
		for n < len(rest) && rest[n].Line <= d {
			n++
		}
		expanded, err := e.expand(rest[:n:n])
		if err != nil {
			return nil, err
		}
		runs = append(runs, expanded)
		total += len(expanded)
		rest = rest[n:]
		if d == len(lines) {
			break
		}
		line := strings.TrimSpace(lines[d])
		directive := strings.TrimSpace(line[1:])
		switch {
		case strings.HasPrefix(directive, "define"):
			m, err := parseDefine(strings.TrimSpace(directive[len("define"):]))
			if err != nil {
				return nil, err
			}
			e.macros[m.name] = m
		case strings.HasPrefix(directive, "undef"):
			delete(e.macros, strings.TrimSpace(directive[len("undef"):]))
		case strings.HasPrefix(directive, "include"):
			// Headers provide declarations we already know about; ignore.
		case directive == "":
			// Null directive.
		default:
			return nil, fmt.Errorf("cc: unsupported preprocessor directive %q", line)
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

// nullMacro is NULL as <stddef.h> defines it.
var nullMacro = func() *macro {
	m, err := parseDefine("NULL ((void *)0)")
	if err != nil {
		panic(err)
	}
	return m
}()

// splitLogicalLines splits src into lines, joining backslash continuations.
func splitLogicalLines(src string) []string {
	raw := strings.Split(src, "\n")
	var out []string
	for i := 0; i < len(raw); i++ {
		line := raw[i]
		for strings.HasSuffix(strings.TrimRight(line, " \t"), "\\") && i+1 < len(raw) {
			line = strings.TrimRight(strings.TrimRight(line, " \t"), "\\")
			i++
			line += " " + raw[i]
		}
		out = append(out, line)
	}
	return out
}

func parseDefine(rest string) (*macro, error) {
	toks, err := Lex(rest)
	if err != nil {
		return nil, fmt.Errorf("cc: bad #define: %v", err)
	}
	if len(toks) == 0 || toks[0].Kind != TIdent && toks[0].Kind != TKeyword {
		return nil, fmt.Errorf("cc: #define needs a name")
	}
	m := &macro{name: toks[0].Text}
	i := 1
	// Function-like only if '(' immediately follows the name in the source
	// text; since we lexed, approximate: '(' is the next token and the name
	// is directly followed by '(' in rest.
	nameEnd := len(m.name)
	if i < len(toks) && toks[i].Kind == TPunct && toks[i].Text == "(" &&
		nameEnd < len(rest) && rest[nameEnd] == '(' {
		m.isFunc = true
		i++
		for i < len(toks) && !(toks[i].Kind == TPunct && toks[i].Text == ")") {
			if toks[i].Kind == TIdent {
				m.params = append(m.params, toks[i].Text)
			} else if toks[i].Kind != TPunct || toks[i].Text != "," {
				return nil, fmt.Errorf("cc: bad macro parameter list for %s", m.name)
			}
			i++
		}
		if i >= len(toks) {
			return nil, fmt.Errorf("cc: unterminated macro parameter list for %s", m.name)
		}
		i++ // ')'
	}
	m.body = toks[i:]
	return m, nil
}

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
		m := e.macros[t.Text]
		if t.Kind != TIdent || m == nil || t.hide.has(t.Text) {
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
