package vocab

import (
	"fmt"
	"strings"

	"stringloops/internal/cstr"
)

// This file compiles gadget programs back to executable forms: C source for
// the refactoring application (§4.5) and native Go closures for the
// optimisation study (§4.4). The Go compiler precomputes character-set
// lookup tables and leans on the standard library's assembly-backed byte
// search, standing in for glibc's SIMD string routines.

// CompileToC renders the program as a C function with the paper's
// loopFunction signature. Simple programs compile to idiomatic one-liners
// (the refactorings submitted upstream in §4.5); general programs compile to
// the mechanical skip-flag form shown in §2.2, which returns Algorithm 1's
// invalid pointer after the last instruction only when a run can get there.
func CompileToC(p Program, name string) string {
	if s, ok := prettyC(p); ok {
		return fmt.Sprintf("char *%s(char *s) {\n%s}\n", name, s)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "char *%s(char *s) {\n", name)
	sb.WriteString("  char *result = s;\n")
	sb.WriteString("  int skipInstruction = 0;\n")
	if p.Uses(OpReverse) {
		sb.WriteString("  char *rev = reverse_string(s); /* helper: heap copy, reversed */\n")
	}
	for _, in := range p {
		sb.WriteString("  if (!skipInstruction) {\n")
		sb.WriteString("    " + instrC(in) + "\n")
		sb.WriteString("  } else skipInstruction = 0;\n")
	}
	if p.canRunOffEnd() {
		sb.WriteString("  return (char *)-1; /* invalid pointer: ran out of instructions */\n")
	} else {
		sb.WriteString("  return result;\n")
	}
	sb.WriteString("}\n")
	return sb.String()
}

// canRunOffEnd reports whether some run of the program can pass its last
// instruction, which Algorithm 1 answers with the invalid pointer. It takes
// both ways at every skip test (Z, X), so it needs no input.
func (p Program) canRunOffEnd() bool {
	reach := make([]bool, len(p)+2)
	reach[0] = true
	for i, in := range p {
		if !reach[i] {
			continue
		}
		switch in.Op {
		case OpReturn:
		case OpIsNullptr, OpIsStart:
			reach[i+1], reach[i+2] = true, true
		default:
			reach[i+1] = true
		}
	}
	return reach[len(p)] || reach[len(p)+1]
}

func instrC(in Instr) string {
	switch in.Op {
	case OpRawmemchr:
		return fmt.Sprintf("result = rawmemchr(result, %s);", cChar(in.Arg[0]))
	case OpStrchr:
		return fmt.Sprintf("result = strchr(result, %s);", cChar(in.Arg[0]))
	case OpStrrchr:
		return fmt.Sprintf("result = strrchr(result, %s);", cChar(in.Arg[0]))
	case OpStrpbrk:
		return fmt.Sprintf("result = strpbrk(result, %s);", cSet(in.Arg))
	case OpStrspn:
		return fmt.Sprintf("result += strspn(result, %s);", cSet(in.Arg))
	case OpStrcspn:
		return fmt.Sprintf("result += strcspn(result, %s);", cSet(in.Arg))
	case OpIsNullptr:
		return "skipInstruction = result != NULL;"
	case OpIsStart:
		return "skipInstruction = result != s;"
	case OpIncrement:
		return "result++;"
	case OpSetToEnd:
		return "result = s + strlen(s);"
	case OpSetToStart:
		return "result = s;"
	case OpReverse:
		return "result = rev; s = rev;"
	case OpReturn:
		return "return result;"
	}
	return "/* unknown */"
}

// prettyC recognises the handful of shapes that cover most synthesised
// programs and emits the idiomatic replacement the paper's pull requests
// used.
func prettyC(p Program) (string, bool) {
	// [gadget..., F] with no control gadgets.
	if len(p) == 2 && p[1].Op == OpReturn {
		switch p[0].Op {
		case OpStrspn:
			return fmt.Sprintf("  return s + strspn(s, %s);\n", cSet(p[0].Arg)), true
		case OpStrcspn:
			return fmt.Sprintf("  return s + strcspn(s, %s);\n", cSet(p[0].Arg)), true
		case OpStrchr:
			return fmt.Sprintf("  return strchr(s, %s);\n", cChar(p[0].Arg[0])), true
		case OpStrrchr:
			return fmt.Sprintf("  return strrchr(s, %s);\n", cChar(p[0].Arg[0])), true
		case OpStrpbrk:
			return fmt.Sprintf("  return strpbrk(s, %s);\n", cSet(p[0].Arg)), true
		case OpRawmemchr:
			return fmt.Sprintf("  return rawmemchr(s, %s);\n", cChar(p[0].Arg[0])), true
		case OpSetToEnd:
			return "  return s + strlen(s);\n", true
		}
	}
	// [Z, F, gadget..., F]: NULL guard prefix.
	if len(p) >= 3 && p[0].Op == OpIsNullptr && p[1].Op == OpReturn {
		inner, ok := prettyC(p[2:])
		if ok {
			return "  if (s == NULL)\n    return NULL;\n" + inner, true
		}
	}
	// [V, strspn, F]: the backward trailing-trim idiom.
	if len(p) == 3 && p[0].Op == OpReverse && p[1].Op == OpStrspn && p[2].Op == OpReturn {
		set := cstr.ExpandMeta(p[1].Arg)
		cond := fmt.Sprintf("strchr(%s, *p)", cSet(p[1].Arg))
		if len(set) == 1 {
			cond = fmt.Sprintf("*p == %s", cChar(set[0]))
		}
		return fmt.Sprintf("  char *p = s + strlen(s) - 1;\n  while (p >= s && %s)\n    p--;\n  return p;\n", cond), true
	}
	return "", false
}

func cChar(c byte) string { return CLiteral([]byte{c}, '\'') }

func cSet(arg []byte) string { return CLiteral(cstr.ExpandMeta(arg), '"') }

// CLiteral renders b as a C literal between quote: a double quote makes a
// string literal, a single quote a character constant. Bytes outside
// printable ASCII, other than tab and newline, become three-digit octal
// escapes. A hex escape would take every hex digit after it, so "\x01"
// followed by 'b' reads as the one byte 0x1b; an octal escape ends after
// three digits.
func CLiteral(b []byte, quote byte) string {
	var sb strings.Builder
	sb.WriteByte(quote)
	for _, c := range b {
		switch {
		case c == quote || c == '\\':
			sb.WriteByte('\\')
			sb.WriteByte(c)
		case c == '\n':
			sb.WriteString(`\n`)
		case c == '\t':
			sb.WriteString(`\t`)
		case c < 32 || c > 126:
			fmt.Fprintf(&sb, "\\%03o", c)
		default:
			sb.WriteByte(c)
		}
	}
	sb.WriteByte(quote)
	return sb.String()
}

// CompiledFunc is a natively compiled summary: it runs the program against a
// NUL-terminated buffer (nil = NULL input).
type CompiledFunc func(buf []byte) Result

// CompileGo compiles the program into a Go closure. Common shapes get
// specialised closures that go straight to the standard library's
// assembly-backed byte search (the moral equivalent of calling glibc's SIMD
// strchr); character sets become 256-entry lookup tables built once at
// compile time. Every curated summary takes one of these shapes (the
// native-execution side of §4.4); anything else runs on the gadget
// interpreter, Run.
func CompileGo(p Program) CompiledFunc {
	if f := specializeGo(p); f != nil {
		return f
	}
	return func(buf []byte) Result { return Run(p, buf) }
}

// specializeGo recognises the shapes most synthesised programs take and
// returns a direct closure, or nil.
func specializeGo(p Program) CompiledFunc {
	// Optional ZF prefix: NULL-guarded body.
	if len(p) >= 3 && p[0].Op == OpIsNullptr && p[1].Op == OpReturn {
		inner := specializeGo(p[2:])
		if inner == nil {
			return nil
		}
		return func(buf []byte) Result {
			if buf == nil {
				return NullResult()
			}
			return inner(buf)
		}
	}
	setTable := func(arg []byte) *[256]bool {
		var tbl [256]bool
		for _, c := range cstr.ExpandMeta(arg) {
			tbl[c] = true
		}
		return &tbl
	}
	// Backward trim: V P<set> F.
	if len(p) == 3 && p[0].Op == OpReverse && p[1].Op == OpStrspn && p[2].Op == OpReturn {
		tbl := setTable(p[1].Arg)
		return func(buf []byte) Result {
			if buf == nil {
				return InvalidResult()
			}
			i := cstr.Strlen(buf, 0) - 1
			for i >= 0 && tbl[buf[i]] {
				i--
			}
			return PtrResult(i)
		}
	}
	if len(p) != 2 || p[1].Op != OpReturn {
		return nil
	}
	in := p[0]
	switch in.Op {
	case OpSetToEnd:
		return func(buf []byte) Result {
			if buf == nil {
				return InvalidResult()
			}
			return PtrResult(cstr.Strlen(buf, 0))
		}
	case OpStrchr:
		c := in.Arg[0]
		return func(buf []byte) Result {
			if buf == nil {
				return InvalidResult()
			}
			if j := cstr.Strchr(buf, 0, c); j != cstr.NotFound {
				return PtrResult(j)
			}
			return NullResult()
		}
	case OpStrrchr:
		c := in.Arg[0]
		return func(buf []byte) Result {
			if buf == nil {
				return InvalidResult()
			}
			if j := cstr.Strrchr(buf, 0, c); j != cstr.NotFound {
				return PtrResult(j)
			}
			return NullResult()
		}
	case OpRawmemchr:
		c := in.Arg[0]
		return func(buf []byte) Result {
			if buf == nil {
				return InvalidResult()
			}
			if j := cstr.Memchr(buf, 0, c, len(buf)); j != cstr.NotFound {
				return PtrResult(j)
			}
			return InvalidResult()
		}
	case OpStrcspn:
		if len(in.Arg) == 1 && in.Arg[0] != cstr.MetaDigit && in.Arg[0] != cstr.MetaSpace {
			// One delimiter: a single optimized byte search bounded by the
			// terminator.
			c := in.Arg[0]
			return func(buf []byte) Result {
				if buf == nil {
					return InvalidResult()
				}
				if j := cstr.Strchr(buf, 0, c); j != cstr.NotFound {
					return PtrResult(j)
				}
				return PtrResult(cstr.Strlen(buf, 0))
			}
		}
		tbl := setTable(in.Arg)
		return func(buf []byte) Result {
			if buf == nil {
				return InvalidResult()
			}
			i := 0
			for buf[i] != 0 && !tbl[buf[i]] {
				i++
			}
			return PtrResult(i)
		}
	case OpStrspn:
		tbl := setTable(in.Arg)
		return func(buf []byte) Result {
			if buf == nil {
				return InvalidResult()
			}
			i := 0
			for tbl[buf[i]] {
				i++
			}
			return PtrResult(i)
		}
	case OpStrpbrk:
		tbl := setTable(in.Arg)
		return func(buf []byte) Result {
			if buf == nil {
				return InvalidResult()
			}
			i := 0
			for buf[i] != 0 && !tbl[buf[i]] {
				i++
			}
			if buf[i] == 0 {
				return NullResult()
			}
			return PtrResult(i)
		}
	}
	return nil
}
