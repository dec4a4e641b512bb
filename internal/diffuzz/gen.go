// Package diffuzz is a differential fuzzer for the string-loop pipeline. It
// generates random C string loops inside the subset the front end supports,
// runs each loop on random NUL-terminated buffers through three executors —
// the concrete cir interpreter (ground truth), symbolic execution replayed on
// the concrete input, and, when synthesis succeeds, the synthesized gadget
// summary — and reports any disagreement as a structured, minimized finding.
package diffuzz

import (
	"fmt"
	"strings"
)

// rng is a splitmix64 generator: tiny, seedable, and stable across Go
// releases (math/rand's stream is not guaranteed between versions, and seed
// reproducibility is the whole point of the fuzzer).
type rng struct{ x uint64 }

func newRng(seed uint64) *rng { return &rng{x: seed} }

func (r *rng) next() uint64 {
	r.x += 0x9e3779b97f4a7c15
	z := r.x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a uniform int in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// pct is true with probability p percent.
func (r *rng) pct(p int) bool { return r.intn(100) < p }

func pickByte(r *rng, xs []byte) byte    { return xs[r.intn(len(xs))] }
func pickStr(r *rng, xs []string) string { return xs[r.intn(len(xs))] }

// AtomKind is the shape of one condition atom.
type AtomKind int

// Atom kinds.
const (
	// AtomCmp compares the current character against a constant: *s OP 'c'.
	AtomCmp AtomKind = iota
	// AtomCtype applies a ctype.h classifier: isdigit(*s), !isspace(*s), ...
	AtomCtype
	// AtomTruth tests the current character for non-zero: *s.
	AtomTruth
)

// Atom is one leaf of a loop condition.
type Atom struct {
	Kind AtomKind
	Op   string // AtomCmp: one of == != < <= > >=
	Ch   byte   // AtomCmp: the constant character
	Fn   string // AtomCtype: classifier name
	Neg  bool   // AtomCtype: negated (!isdigit(*s))
}

// Cond is a conjunction/disjunction chain of atoms; Conns[i] joins
// Atoms[i] and Atoms[i+1] with "&&" or "||" (C precedence applies).
type Cond struct {
	Atoms []Atom
	Conns []string
}

// LoopForm selects the loop statement.
type LoopForm int

// Loop forms.
const (
	FormWhile LoopForm = iota
	FormFor
	FormDoWhile
)

// RetKind selects the return expression after the loop.
type RetKind int

// Return kinds.
const (
	// RetCursor returns the cursor (s, or s+i in index form).
	RetCursor RetKind = iota
	// RetNull returns 0.
	RetNull
	// RetCondNull returns the cursor if the current character is non-zero,
	// else NULL — the strchr miss convention.
	RetCondNull
	// RetAcc returns the last-match accumulator (requires Acc).
	RetAcc
)

// Prog is the generator's mini-AST: one string loop in the supported C
// subset. It is the unit the minimizer shrinks — every field removal or
// simplification still renders to a valid program.
type Prog struct {
	NullGuard bool  // if (!s) return 0;
	Idx       bool  // index form (s[i], i++) instead of pointer form (*s, s++)
	Acc       bool  // char *last = 0; ... if (CUR == AccCh) last = CUR_PTR;
	AccCh     byte  // accumulator match character
	PreSkip   *Atom // optional pre-loop skip: if (ATOM) advance;
	Form      LoopForm
	Cond      Cond
	Ret       RetKind
	Octal     bool // render non-printable char constants as octal escapes
}

// Clone deep-copies p so the minimizer can mutate freely.
func (p *Prog) Clone() *Prog {
	q := *p
	q.Cond.Atoms = append([]Atom(nil), p.Cond.Atoms...)
	q.Cond.Conns = append([]string(nil), p.Cond.Conns...)
	if p.PreSkip != nil {
		a := *p.PreSkip
		q.PreSkip = &a
	}
	return &q
}

// alphabet is the pool of constant characters: common delimiters, class
// boundaries, and a couple of bytes ≥ 0x7f to exercise char signedness.
var alphabet = []byte{
	' ', '\t', '\n', 'a', 'b', 'z', 'A', 'Z', '0', '9',
	'/', '=', ':', '.', '#', '-', '_', 0, 0x7f, 0xc3,
}

var ctypeFns = []string{
	"isdigit", "isspace", "isblank", "isupper", "islower", "isalpha", "isalnum",
}

var cmpOps = []string{"==", "==", "!=", "!=", "<", "<=", ">", ">="}

// Generate builds a random program from seed. The same seed always yields
// the same program.
func Generate(seed uint64) *Prog {
	r := newRng(seed)
	r.next() // scramble small seeds apart
	p := &Prog{
		NullGuard: r.pct(50),
		Idx:       r.pct(30),
		Octal:     r.pct(30),
	}
	switch {
	case r.pct(50):
		p.Form = FormWhile
	case r.pct(60):
		p.Form = FormFor
	default:
		p.Form = FormDoWhile
	}
	if r.pct(20) {
		p.Acc = true
		p.AccCh = pickByte(r, alphabet)
	}
	if r.pct(25) {
		a := genAtom(r)
		p.PreSkip = &a
	}

	n := 1
	if r.pct(55) {
		n++
		if r.pct(35) {
			n++
		}
	}
	seenTruth := false
	for i := 0; i < n; i++ {
		a := genAtom(r)
		for a.Kind == AtomTruth && seenTruth {
			a = genAtom(r)
		}
		if a.Kind == AtomTruth {
			seenTruth = true
		}
		p.Cond.Atoms = append(p.Cond.Atoms, a)
		if i > 0 {
			conn := "&&"
			if r.pct(40) {
				conn = "||"
			}
			p.Cond.Conns = append(p.Cond.Conns, conn)
		}
	}

	switch {
	case p.Acc && r.pct(70):
		p.Ret = RetAcc
	case r.pct(60):
		p.Ret = RetCursor
	case r.pct(70):
		p.Ret = RetCondNull
	default:
		p.Ret = RetNull
	}
	return p
}

func genAtom(r *rng) Atom {
	switch {
	case r.pct(55):
		return Atom{Kind: AtomCmp, Op: pickStr(r, cmpOps), Ch: pickByte(r, alphabet)}
	case r.pct(55):
		return Atom{Kind: AtomCtype, Fn: pickStr(r, ctypeFns), Neg: r.pct(35)}
	default:
		return Atom{Kind: AtomTruth}
	}
}

// charLit renders c as a C character literal. Printables stay literal;
// non-printables use hex or (when octal is set) octal escapes, so the
// generator also exercises both escape paths of the lexer.
func charLit(c byte, octal bool) string {
	switch c {
	case 0:
		return `'\0'`
	case '\t':
		return `'\t'`
	case '\n':
		return `'\n'`
	case '\r':
		return `'\r'`
	case '\'':
		return `'\''`
	case '\\':
		return `'\\'`
	}
	if c >= 32 && c < 127 {
		return fmt.Sprintf("'%c'", c)
	}
	if octal {
		return fmt.Sprintf(`'\%03o'`, c)
	}
	return fmt.Sprintf(`'\x%02x'`, c)
}

// cur is the current-character expression for the program's form.
func (p *Prog) cur() string {
	if p.Idx {
		return "s[i]"
	}
	return "*s"
}

// cursor is the current-position pointer expression.
func (p *Prog) cursor() string {
	if p.Idx {
		return "s + i"
	}
	return "s"
}

// advance is the step statement (without trailing semicolon).
func (p *Prog) advance() string {
	if p.Idx {
		return "i++"
	}
	return "s++"
}

func (p *Prog) atomSrc(a Atom) string {
	switch a.Kind {
	case AtomCmp:
		return fmt.Sprintf("%s %s %s", p.cur(), a.Op, charLit(a.Ch, p.Octal))
	case AtomCtype:
		if a.Neg {
			return fmt.Sprintf("!%s(%s)", a.Fn, p.cur())
		}
		return fmt.Sprintf("%s(%s)", a.Fn, p.cur())
	default:
		return p.cur()
	}
}

func (p *Prog) condSrc() string {
	var sb strings.Builder
	for i, a := range p.Cond.Atoms {
		if i > 0 {
			sb.WriteString(" " + p.Cond.Conns[i-1] + " ")
		}
		sb.WriteString(p.atomSrc(a))
	}
	return sb.String()
}

// Source renders p to C. The output always parses and lowers; a front-end
// rejection of generated source is itself a finding.
func (p *Prog) Source() string {
	var b strings.Builder
	b.WriteString("char *f(char *s) {\n")
	if p.NullGuard {
		b.WriteString("    if (!s) return 0;\n")
	}
	if p.Idx {
		b.WriteString("    int i = 0;\n")
	}
	if p.Acc {
		b.WriteString("    char *last = 0;\n")
	}
	if p.PreSkip != nil {
		fmt.Fprintf(&b, "    if (%s) %s;\n", p.atomSrc(*p.PreSkip), p.advance())
	}

	body := ""
	if p.Acc {
		body = fmt.Sprintf("if (%s == %s) last = %s; ",
			p.cur(), charLit(p.AccCh, p.Octal), p.cursor())
	}
	cond := p.condSrc()
	switch p.Form {
	case FormWhile:
		fmt.Fprintf(&b, "    while (%s) { %s%s; }\n", cond, body, p.advance())
	case FormFor:
		if body == "" {
			fmt.Fprintf(&b, "    for (; %s; %s)\n        ;\n", cond, p.advance())
		} else {
			fmt.Fprintf(&b, "    for (; %s; %s) { %s}\n", cond, p.advance(), body)
		}
	case FormDoWhile:
		fmt.Fprintf(&b, "    do { %s%s; } while (%s);\n", body, p.advance(), cond)
	}

	switch p.Ret {
	case RetCursor:
		fmt.Fprintf(&b, "    return %s;\n", p.cursor())
	case RetNull:
		b.WriteString("    return 0;\n")
	case RetCondNull:
		fmt.Fprintf(&b, "    return %s ? %s : 0;\n", p.cur(), p.cursor())
	case RetAcc:
		b.WriteString("    return last;\n")
	}
	b.WriteString("}\n")
	return b.String()
}

// interestingBytes collects the characters the program is sensitive to:
// every compared constant, its neighbours, and classifier boundaries.
func (p *Prog) interestingBytes() []byte {
	var out []byte
	add := func(c byte) { out = append(out, c) }
	atom := func(a Atom) {
		switch a.Kind {
		case AtomCmp:
			add(a.Ch)
			add(a.Ch + 1)
			if a.Ch > 0 {
				add(a.Ch - 1)
			}
		case AtomCtype:
			for _, c := range []byte{'0', '9', 'A', 'Z', 'a', 'z', ' ', '\t', '\n', '_'} {
				add(c)
			}
		}
	}
	for _, a := range p.Cond.Atoms {
		atom(a)
	}
	if p.PreSkip != nil {
		atom(*p.PreSkip)
	}
	if p.Acc {
		add(p.AccCh)
	}
	if len(out) == 0 {
		out = []byte{'a', ' ', '0'}
	}
	return out
}

// GenInput builds one random NUL-terminated buffer (content length up to
// maxLen) biased towards the program's interesting characters. The returned
// slice always ends with the terminator; interior zero bytes are possible
// (buffers longer than their string).
func GenInput(r *rng, p *Prog, maxLen int) []byte {
	interesting := p.interestingBytes()
	n := r.intn(maxLen + 1)
	buf := make([]byte, 0, n+1)
	for i := 0; i < n; i++ {
		switch {
		case r.pct(70):
			buf = append(buf, pickByte(r, interesting))
		case r.pct(7):
			buf = append(buf, 0)
		default:
			buf = append(buf, byte(1+r.intn(255)))
		}
	}
	return append(buf, 0)
}
