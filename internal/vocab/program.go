// Package vocab implements the synthesis vocabulary of Table 1: the thirteen
// gadgets, the character encoding of synthesised programs (each program is a
// byte string matched by the extended regular expressions of the table), the
// concrete interpreter of Algorithm 1, a symbolic interpreter used both for
// bounded equivalence checking and for solving gadget arguments during CEGIS,
// and compilers from gadget programs back to C source and to native Go
// closures.
package vocab

import (
	"fmt"
	"strings"

	"stringloops/internal/cstr"
)

// Op is a gadget opcode — the single character representing it in encoded
// programs (column two of Table 1).
type Op byte

// The thirteen gadgets of Table 1.
const (
	OpRawmemchr  Op = 'M' // result = rawmemchr(result, $1)
	OpStrchr     Op = 'C' // result = strchr(result, $1)
	OpStrrchr    Op = 'R' // result = strrchr(result, $1)
	OpStrpbrk    Op = 'B' // result = strpbrk(result, $1)
	OpStrspn     Op = 'P' // result += strspn(result, $1)
	OpStrcspn    Op = 'N' // result += strcspn(result, $1)
	OpIsNullptr  Op = 'Z' // skipInstruction = result != NULL
	OpIsStart    Op = 'X' // skipInstruction = result != s
	OpIncrement  Op = 'I' // result++
	OpSetToEnd   Op = 'E' // result = s + strlen(s)
	OpSetToStart Op = 'S' // result = s
	OpReverse    Op = 'V' // reverses the string (first instruction only)
	OpReturn     Op = 'F' // return result and terminate
)

// Ops lists the gadgets in Table 1 order; the position of each opcode is its
// bit in a Vocabulary.
var Ops = []Op{
	OpRawmemchr, OpStrchr, OpStrrchr, OpStrpbrk, OpStrspn, OpStrcspn,
	OpIsNullptr, OpIsStart, OpIncrement, OpSetToEnd, OpSetToStart,
	OpReverse, OpReturn,
}

// Name returns the gadget's name as used in the paper.
func (o Op) Name() string {
	switch o {
	case OpRawmemchr:
		return "rawmemchr"
	case OpStrchr:
		return "strchr"
	case OpStrrchr:
		return "strrchr"
	case OpStrpbrk:
		return "strpbrk"
	case OpStrspn:
		return "strspn"
	case OpStrcspn:
		return "strcspn"
	case OpIsNullptr:
		return "is nullptr"
	case OpIsStart:
		return "is start"
	case OpIncrement:
		return "increment"
	case OpSetToEnd:
		return "set to end"
	case OpSetToStart:
		return "set to start"
	case OpReverse:
		return "reverse"
	case OpReturn:
		return "return"
	}
	return fmt.Sprintf("op(%c)", byte(o))
}

// TakesChar reports whether the gadget takes exactly one character argument
// (regexp `X(.)`).
func (o Op) TakesChar() bool {
	return o == OpRawmemchr || o == OpStrchr || o == OpStrrchr
}

// TakesSet reports whether the gadget takes a NUL-terminated character-set
// argument (regexp `X(.+)\0`).
func (o Op) TakesSet() bool {
	return o == OpStrpbrk || o == OpStrspn || o == OpStrcspn
}

// Instr is one decoded instruction: an opcode plus its argument characters
// (nil for argument-less gadgets, one byte for TakesChar, one or more for
// TakesSet).
type Instr struct {
	Op  Op
	Arg []byte
}

// EncodedSize returns the instruction's length in the encoded byte string:
// the opcode, the argument characters, and the NUL terminator of sets.
func (in Instr) EncodedSize() int {
	switch {
	case in.Op.TakesChar():
		return 2
	case in.Op.TakesSet():
		return 2 + len(in.Arg)
	default:
		return 1
	}
}

// Program is a decoded gadget program.
type Program []Instr

// EncodedSize is the total length of the encoded program — the quantity
// bounded by max_prog_size in Algorithm 2 and swept in Figure 2.
func (p Program) EncodedSize() int {
	n := 0
	for _, in := range p {
		n += in.EncodedSize()
	}
	return n
}

// Encode renders the program in the byte encoding of Table 1 (e.g. the
// summary of Figure 1 encodes as "P \t\x00F").
func (p Program) Encode() string {
	var sb strings.Builder
	for _, in := range p {
		sb.WriteByte(byte(in.Op))
		sb.Write(in.Arg)
		if in.Op.TakesSet() {
			sb.WriteByte(0)
		}
	}
	return sb.String()
}

// Decode parses an encoded program. It fails on malformed encodings —
// missing arguments, unterminated sets, or unknown opcodes.
func Decode(s string) (Program, error) {
	var p Program
	i := 0
	for i < len(s) {
		op := Op(s[i])
		i++
		switch {
		case op.TakesChar():
			if i >= len(s) {
				return nil, fmt.Errorf("vocab: %s missing character argument", op.Name())
			}
			p = append(p, Instr{Op: op, Arg: []byte{s[i]}})
			i++
		case op.TakesSet():
			j := strings.IndexByte(s[i:], 0)
			if j < 0 {
				return nil, fmt.Errorf("vocab: %s set argument not NUL-terminated", op.Name())
			}
			if j == 0 {
				return nil, fmt.Errorf("vocab: %s set argument empty", op.Name())
			}
			p = append(p, Instr{Op: op, Arg: []byte(s[i : i+j])})
			i += j + 1
		case isKnownOp(op):
			p = append(p, Instr{Op: op})
		default:
			return nil, fmt.Errorf("vocab: unknown opcode %q", byte(op))
		}
	}
	return p, nil
}

func isKnownOp(op Op) bool { return opBits[op] != 0 }

// String renders the program readably, expanding meta-characters, e.g.
// `strspn(" \t"); return`.
func (p Program) String() string {
	parts := make([]string, len(p))
	for i, in := range p {
		switch {
		case in.Op.TakesChar() || in.Op.TakesSet():
			parts[i] = fmt.Sprintf("%s(%s)", in.Op.Name(), argString(in.Arg))
		default:
			parts[i] = in.Op.Name()
		}
	}
	return strings.Join(parts, "; ")
}

func argString(arg []byte) string {
	var sb strings.Builder
	sb.WriteByte('"')
	for _, c := range arg {
		switch c {
		case cstr.MetaDigit:
			sb.WriteString("\\d")
		case cstr.MetaSpace:
			sb.WriteString("\\s")
		case '\t':
			sb.WriteString("\\t")
		case '\n':
			sb.WriteString("\\n")
		case '"', '\\':
			sb.WriteByte('\\')
			sb.WriteByte(c)
		default:
			if c < 32 || c > 126 {
				fmt.Fprintf(&sb, "\\x%02x", c)
			} else {
				sb.WriteByte(c)
			}
		}
	}
	sb.WriteByte('"')
	return sb.String()
}

// Uses reports whether the program uses the given gadget.
func (p Program) Uses(op Op) bool {
	for _, in := range p {
		if in.Op == op {
			return true
		}
	}
	return false
}

// ---- Vocabulary bit-vectors (§4.2.3) ----

// Vocabulary is a subset of the thirteen gadgets, encoded as a bit-vector in
// Table 1 order — the domain of the Gaussian-process optimisation of §4.2.3.
type Vocabulary uint16

// FullVocabulary contains all thirteen gadgets.
const FullVocabulary Vocabulary = 1<<13 - 1

// opBits[op] is op's bit in a Vocabulary, and 0 for a byte that is no
// opcode, so membership is one lookup rather than a scan of Ops.
var opBits = func() (bits [256]Vocabulary) {
	for i, o := range Ops {
		bits[o] = 1 << uint(i)
	}
	return bits
}()

// Contains reports whether the vocabulary includes op.
func (v Vocabulary) Contains(op Op) bool { return v&opBits[op] != 0 }

// With returns the vocabulary extended with op.
func (v Vocabulary) With(op Op) Vocabulary { return v | opBits[op] }

// Size returns the number of gadgets in the vocabulary.
func (v Vocabulary) Size() int {
	n := 0
	for i := range Ops {
		if v&(1<<uint(i)) != 0 {
			n++
		}
	}
	return n
}

// Letters renders the vocabulary as its opcode letters in Table 1 order,
// e.g. "MPNIFV" prints as "MPNIVF" (the paper's tables order letters
// loosely; we normalise to Table 1 order).
func (v Vocabulary) Letters() string {
	var sb strings.Builder
	for i, o := range Ops {
		if v&(1<<uint(i)) != 0 {
			sb.WriteByte(byte(o))
		}
	}
	return sb.String()
}

// VocabularyOf builds a vocabulary from opcode letters, e.g. "MPNIFV".
func VocabularyOf(letters string) (Vocabulary, error) {
	var v Vocabulary
	for i := 0; i < len(letters); i++ {
		op := Op(letters[i])
		if !isKnownOp(op) {
			return 0, fmt.Errorf("vocab: unknown opcode letter %q", letters[i])
		}
		v = v.With(op)
	}
	return v, nil
}
