package cc

import (
	"fmt"
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
// Headers are not read, so the one macro they supply that loops use, NULL,
// is predefined as <stddef.h> defines it; a #define or #undef in the source
// overrides it.
func Preprocess(src string) ([]Token, error) {
	macros := map[string]*macro{"NULL": nullMacro}
	var codeLines []string

	lines := splitLogicalLines(src)
	for _, line := range lines {
		trimmed := strings.TrimSpace(line)
		if !strings.HasPrefix(trimmed, "#") {
			codeLines = append(codeLines, line)
			continue
		}
		codeLines = append(codeLines, "") // keep line numbering stable
		directive := strings.TrimSpace(trimmed[1:])
		switch {
		case strings.HasPrefix(directive, "define"):
			m, err := parseDefine(strings.TrimSpace(directive[len("define"):]))
			if err != nil {
				return nil, err
			}
			macros[m.name] = m
		case strings.HasPrefix(directive, "undef"):
			name := strings.TrimSpace(directive[len("undef"):])
			delete(macros, name)
		case strings.HasPrefix(directive, "include"):
			// Headers provide declarations we already know about; ignore.
		case directive == "":
			// Null directive.
		default:
			return nil, fmt.Errorf("cc: unsupported preprocessor directive %q", trimmed)
		}
	}

	toks, err := Lex(strings.Join(codeLines, "\n"))
	if err != nil {
		return nil, err
	}
	return expandMacros(toks, macros, 0)
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

const maxMacroDepth = 32

func expandMacros(toks []Token, macros map[string]*macro, depth int) ([]Token, error) {
	if depth > maxMacroDepth {
		return nil, fmt.Errorf("cc: macro expansion too deep (recursive macro?)")
	}
	var out []Token
	changed := false
	for i := 0; i < len(toks); i++ {
		t := toks[i]
		if t.Kind != TIdent {
			out = append(out, t)
			continue
		}
		m, ok := macros[t.Text]
		if !ok {
			out = append(out, t)
			continue
		}
		if !m.isFunc {
			out = append(out, m.body...)
			changed = true
			continue
		}
		// Function-like: require '('; otherwise the name is ordinary.
		if i+1 >= len(toks) || toks[i+1].Kind != TPunct || toks[i+1].Text != "(" {
			out = append(out, t)
			continue
		}
		args, next, err := collectMacroArgs(toks, i+1)
		if err != nil {
			return nil, err
		}
		if len(args) != len(m.params) && !(len(m.params) == 0 && len(args) == 1 && len(args[0]) == 0) {
			return nil, fmt.Errorf("cc: macro %s expects %d arguments, got %d", m.name, len(m.params), len(args))
		}
		byName := map[string][]Token{}
		for pi, p := range m.params {
			byName[p] = args[pi]
		}
		for _, bt := range m.body {
			if bt.Kind == TIdent {
				if rep, ok := byName[bt.Text]; ok {
					out = append(out, rep...)
					continue
				}
			}
			out = append(out, bt)
		}
		changed = true
		i = next - 1
	}
	if changed {
		return expandMacros(out, macros, depth+1)
	}
	return out, nil
}

// collectMacroArgs parses the parenthesised argument list starting at the
// '(' at index open; it returns the argument token slices and the index just
// past the closing ')'.
func collectMacroArgs(toks []Token, open int) ([][]Token, int, error) {
	depth := 0
	var args [][]Token
	var cur []Token
	for i := open; i < len(toks); i++ {
		t := toks[i]
		if t.Kind == TPunct {
			switch t.Text {
			case "(":
				depth++
				if depth == 1 {
					continue
				}
			case ")":
				depth--
				if depth == 0 {
					args = append(args, cur)
					return args, i + 1, nil
				}
			case ",":
				if depth == 1 {
					args = append(args, cur)
					cur = nil
					continue
				}
			}
		}
		cur = append(cur, t)
	}
	return nil, 0, fmt.Errorf("cc: unterminated macro invocation at %s", toks[open].Pos())
}
