package vocab

import (
	"math/rand"
	"strings"
	"testing"

	"stringloops/internal/bv"
	"stringloops/internal/cstr"
	"stringloops/internal/sat"
	"stringloops/internal/strsolver"
)

// tin is the shared interner for this package's tests.
var tin = bv.NewInterner()

func mustDecode(t *testing.T, s string) Program {
	t.Helper()
	p, err := Decode(s)
	if err != nil {
		t.Fatalf("Decode(%q): %v", s, err)
	}
	return p
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	cases := []string{
		"P \t\x00F",        // the paper's Figure 1 summary
		"ZFP \t\x00F",      // with NULL guard (§2.2)
		"EF",               // strlen-style
		"Ca\x00"[:2] + "F", // strchr('a')
		"VCx" + "F",
		"N:\x00IF",
		"Babc\x00F",
		"SXIF",
		"M\aF",
	}
	for _, enc := range cases {
		p := mustDecode(t, enc)
		if got := p.Encode(); got != enc {
			t.Errorf("round trip %q -> %q", enc, got)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	for _, enc := range []string{"C", "P", "Pab", "P\x00F", "Q", "Mx\x00junk\x01"} {
		if _, err := Decode(enc); err == nil {
			t.Errorf("Decode(%q) should fail", enc)
		}
	}
}

func TestEncodedSize(t *testing.T) {
	p := mustDecode(t, "ZFP \t\x00F")
	// Z(1) + F(1) + P+2 chars+NUL(4) + F(1) = 7.
	if got := p.EncodedSize(); got != 7 {
		t.Fatalf("EncodedSize = %d, want 7", got)
	}
}

func run(t *testing.T, enc, s string) Result {
	t.Helper()
	return Run(mustDecode(t, enc), cstr.Terminate(s))
}

func TestRunFigure1Summary(t *testing.T) {
	// P \t F  ==  s + strspn(s, " \t")
	cases := map[string]int{"": 0, "abc": 0, "  abc": 2, "\t \tx": 3, " \t ": 3}
	for s, want := range cases {
		got := run(t, "P \t\x00F", s)
		if got.Kind != Ptr || got.Off != want {
			t.Errorf("summary(%q) = %+v, want offset %d", s, got, want)
		}
	}
}

func TestRunNullGuard(t *testing.T) {
	p := mustDecode(t, "ZFP \t\x00F")
	if got := Run(p, nil); got.Kind != Null {
		t.Fatalf("ZF... on NULL = %+v, want NULL", got)
	}
	if got := Run(p, cstr.Terminate(" x")); got.Kind != Ptr || got.Off != 1 {
		t.Fatalf("ZF... on ' x' = %+v", got)
	}
	// Without the guard, NULL input is invalid.
	if got := Run(mustDecode(t, "P \t\x00F"), nil); got.Kind != Invalid {
		t.Fatalf("P...F on NULL = %+v, want invalid", got)
	}
}

func TestRunSetToEnd(t *testing.T) {
	// EF iterates to the terminator and returns it.
	for _, s := range []string{"", "a", "hello"} {
		got := run(t, "EF", s)
		if got.Kind != Ptr || got.Off != len(s) {
			t.Errorf("EF(%q) = %+v", s, got)
		}
	}
}

func TestRunStrchrNull(t *testing.T) {
	got := run(t, "CzF", "abc")
	if got.Kind != Null {
		t.Fatalf("strchr('z') on abc = %+v, want NULL", got)
	}
	got = run(t, "CbF", "abc")
	if got.Kind != Ptr || got.Off != 1 {
		t.Fatalf("strchr('b') on abc = %+v", got)
	}
}

func TestRunReverseEqualsStrrchr(t *testing.T) {
	// reverse; strchr(c); return  ==  strrchr(c) when c occurs.
	for _, s := range []string{"abcabc", "xyz", "aaa", "b"} {
		for _, c := range []byte{'a', 'b'} {
			viaReverse := Run(Program{
				{Op: OpReverse}, {Op: OpStrchr, Arg: []byte{c}}, {Op: OpReturn},
			}, cstr.Terminate(s))
			direct := Run(Program{
				{Op: OpStrrchr, Arg: []byte{c}}, {Op: OpReturn},
			}, cstr.Terminate(s))
			if viaReverse != direct {
				t.Errorf("reverse+strchr(%q) on %q = %+v, strrchr = %+v", c, s, viaReverse, direct)
			}
		}
	}
}

func TestRunReverseSpan(t *testing.T) {
	// reverse; strspn(" "); return — trims trailing spaces, returning a
	// pointer to the last non-space character (backward loop semantics).
	got := run(t, "VP \x00F", "ab  ")
	// reversed = "  ba"; span 2; F maps offset 2 -> 4-1-2 = 1 = last 'b'.
	if got.Kind != Ptr || got.Off != 1 {
		t.Fatalf("VP' 'F on 'ab  ' = %+v, want offset 1", got)
	}
	// All spaces: reversed span = len, maps to -1 (before the start).
	got = run(t, "VP \x00F", "   ")
	if got.Kind != Ptr || got.Off != -1 {
		t.Fatalf("VP' 'F on spaces = %+v, want offset -1", got)
	}
}

func TestRunReverseNotFirstInvalid(t *testing.T) {
	got := run(t, "IVF", "ab")
	if got.Kind != Invalid {
		t.Fatalf("V not first = %+v, want invalid", got)
	}
}

func TestRunIsStart(t *testing.T) {
	// X skips the next instruction when result != s. Program "XIF": at the
	// start result == s, so I runs: returns s+1. After "I" first: "IXIF"
	// result != s so the second I is skipped: returns s+1.
	got := run(t, "XIF", "abc")
	if got.Off != 1 {
		t.Fatalf("XIF = %+v", got)
	}
	got = run(t, "IXIF", "abc")
	if got.Off != 1 {
		t.Fatalf("IXIF = %+v", got)
	}
}

func TestRunMetaCharacters(t *testing.T) {
	// strspn with the digit meta-character.
	p := Program{{Op: OpStrspn, Arg: []byte{cstr.MetaDigit}}, {Op: OpReturn}}
	got := Run(p, cstr.Terminate("0129a"))
	if got.Off != 4 {
		t.Fatalf("digit span = %+v", got)
	}
	p = Program{{Op: OpStrcspn, Arg: []byte{cstr.MetaSpace}}, {Op: OpReturn}}
	got = Run(p, cstr.Terminate("ab\tcd"))
	if got.Off != 2 {
		t.Fatalf("space cspan = %+v", got)
	}
}

func TestRunRawmemchrUB(t *testing.T) {
	// rawmemchr for an absent character scans past the buffer: invalid.
	got := run(t, "MxF", "abc")
	if got.Kind != Invalid {
		t.Fatalf("rawmemchr miss = %+v, want invalid", got)
	}
	got = run(t, "MbF", "abc")
	if got.Kind != Ptr || got.Off != 1 {
		t.Fatalf("rawmemchr hit = %+v", got)
	}
}

func TestRunMalformedPrograms(t *testing.T) {
	// No F: runs out of instructions.
	if got := run(t, "I", "ab"); got.Kind != Invalid {
		t.Fatalf("no return = %+v", got)
	}
	// Increment on NULL result.
	if got := run(t, "CzIF", "ab"); got.Kind != Invalid {
		t.Fatalf("increment NULL = %+v", got)
	}
}

func TestProgramString(t *testing.T) {
	p := mustDecode(t, "ZFP \t\x00F")
	s := p.String()
	for _, want := range []string{"is nullptr", "return", `strspn(" \t")`} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func TestVocabularyBits(t *testing.T) {
	v, err := VocabularyOf("MPNIFV")
	if err != nil {
		t.Fatal(err)
	}
	if v.Size() != 6 {
		t.Fatalf("size = %d", v.Size())
	}
	for _, op := range []Op{OpRawmemchr, OpStrspn, OpStrcspn, OpIncrement, OpReturn, OpReverse} {
		if !v.Contains(op) {
			t.Errorf("missing %s", op.Name())
		}
	}
	if v.Contains(OpStrchr) {
		t.Error("should not contain strchr")
	}
	if FullVocabulary.Size() != 13 {
		t.Error("full vocabulary should have 13 gadgets")
	}
	if _, err := VocabularyOf("Q"); err == nil {
		t.Error("bad letter should fail")
	}
	// Letters round-trips through Table 1 order.
	if v2, _ := VocabularyOf(v.Letters()); v2 != v {
		t.Error("Letters round trip failed")
	}
	// Each opcode's bit is its position in Ops; a byte that is no opcode is
	// in no vocabulary and adds nothing to one.
	for b := 0; b < 256; b++ {
		op, want := Op(b), Vocabulary(0)
		for i, o := range Ops {
			if o == op {
				want = 1 << uint(i)
			}
		}
		if got := Vocabulary(0).With(op); got != want || FullVocabulary.Contains(op) != (want != 0) {
			t.Errorf("%q: With gives %#x and Contains %v, want bit %#x", b, got, FullVocabulary.Contains(op), want)
		}
	}
}

// enumBuffers enumerates NUL-terminated buffers of capacity maxLen.
func enumBuffers(maxLen int, alphabet []byte) [][]byte {
	syms := append([]byte{0}, alphabet...)
	var out [][]byte
	var rec func(prefix []byte)
	rec = func(prefix []byte) {
		if len(prefix) == maxLen {
			out = append(out, append(append([]byte{}, prefix...), 0))
			return
		}
		for _, c := range syms {
			rec(append(prefix, c))
		}
	}
	rec(nil)
	return out
}

// symAgainstConcrete checks RunSymbolic against Run over all bounded buffers.
func symAgainstConcrete(t *testing.T, enc string, alphabet []byte) {
	t.Helper()
	p := mustDecode(t, enc)
	s := strsolver.New(tin, "s", 3)
	outcomes := RunSymbolic(Symbolize(tin, p), s)
	for _, buf := range enumBuffers(3, alphabet) {
		a := &bv.Assignment{Terms: map[string]uint64{}}
		for i := 0; i < 3; i++ {
			a.Terms["s["+string('0'+byte(i))+"]"] = uint64(buf[i])
		}
		want := Run(p, buf)
		active := 0
		for _, o := range outcomes {
			if !o.Guard.Eval(a) {
				continue
			}
			active++
			if o.Res != want {
				t.Fatalf("%q on %q: symbolic %+v != concrete %+v", enc, buf, o.Res, want)
			}
		}
		if active != 1 {
			t.Fatalf("%q on %q: %d active outcomes, want 1", enc, buf, active)
		}
	}
}

func TestSymbolicMatchesConcrete(t *testing.T) {
	alphabet := []byte{'a', 'b', ' '}
	cases := []string{
		"P \x00F",
		"Pab\x00F",
		"Na\x00F",
		"CaF",
		"RaF",
		"Bab\x00F",
		"MaF",
		"EF",
		"IF",
		"SF",
		"XIF",
		"ZFIF",
		"VCaF",
		"VP \x00F",
		"VEF",
		"ICbF",
		"P \x00ICa" + "F",
		"EXIF",
	}
	for _, enc := range cases {
		symAgainstConcrete(t, enc, alphabet)
	}
}

func TestSymbolicMetaChars(t *testing.T) {
	symAgainstConcrete(t, "P\a\x00F", []byte{'0', '9', 'a'})
	symAgainstConcrete(t, "N\v\x00F", []byte{' ', '\n', 'a'})
}

func TestSymbolicNullInput(t *testing.T) {
	p := mustDecode(t, "ZFP \x00F")
	if got := Symbolize(tin, p).RunNullInput(); got.Kind != Null {
		t.Fatalf("ZF null input = %+v", got)
	}
	p2 := mustDecode(t, "P \x00F")
	if got := Symbolize(tin, p2).RunNullInput(); got.Kind != Invalid {
		t.Fatalf("P null input = %+v", got)
	}
}

func TestSymbolicArgumentSolving(t *testing.T) {
	// CEGIS inner step: find the argument character of strspn such that the
	// program agrees with skipping leading spaces on two examples.
	arg := tin.Var("arg", 8)
	prog := SymProgram{{Op: OpStrspn, Arg: []*bv.Term{arg}}, {Op: OpReturn}}
	solver := bv.NewSolver()
	examples := map[string]int{"  x": 2, "y ": 0}
	for ex, wantOff := range examples {
		s, err := strsolver.FromConcrete(tin, cstr.Terminate(ex))
		if err != nil {
			t.Fatal(err)
		}
		outcomes := RunSymbolic(prog, s)
		cond := bv.False
		for _, o := range outcomes {
			if o.Res.Kind == Ptr && o.Res.Off == wantOff {
				cond = tin.BOr2(cond, o.Guard)
			}
		}
		solver.Assert(cond)
	}
	solver.Assert(tin.Ne(arg, tin.Byte(0)))
	if st := solver.Check(); st != sat.Sat {
		t.Fatalf("argument solving: %v", st)
	}
	got := byte(arg.Eval(solver.ModelAssignment()))
	if got != ' ' && got != cstr.MetaSpace {
		t.Fatalf("solved arg %q, want space or whitespace meta", got)
	}
}

// randomProgram builds a random well-formed program for property testing.
func randomProgram(rng *rand.Rand, alphabet []byte) Program {
	var p Program
	if rng.Intn(4) == 0 {
		p = append(p, Instr{Op: OpReverse})
	}
	n := 1 + rng.Intn(3)
	bodyOps := []Op{OpRawmemchr, OpStrchr, OpStrrchr, OpStrpbrk, OpStrspn,
		OpStrcspn, OpIsNullptr, OpIsStart, OpIncrement, OpSetToEnd, OpSetToStart}
	for i := 0; i < n; i++ {
		op := bodyOps[rng.Intn(len(bodyOps))]
		in := Instr{Op: op}
		if op.TakesChar() {
			in.Arg = []byte{alphabet[rng.Intn(len(alphabet))]}
		}
		if op.TakesSet() {
			k := 1 + rng.Intn(2)
			for j := 0; j < k; j++ {
				in.Arg = append(in.Arg, alphabet[rng.Intn(len(alphabet))])
			}
		}
		p = append(p, in)
	}
	p = append(p, Instr{Op: OpReturn})
	return p
}

func TestCompileGoMatchesRunProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	alphabet := []byte{'a', 'b', ' '}
	bufs := enumBuffers(3, alphabet)
	for iter := 0; iter < 200; iter++ {
		p := randomProgram(rng, alphabet)
		compiled := CompileGo(p)
		for _, buf := range bufs {
			want := Run(p, buf)
			got := compiled(buf)
			if got != want {
				t.Fatalf("iter %d: %q on %q: compiled %+v != interpreted %+v",
					iter, p.Encode(), buf, got, want)
			}
		}
		if got, want := compiled(nil), Run(p, nil); got != want {
			t.Fatalf("iter %d: NULL input mismatch", iter)
		}
	}
}

func TestRandomSymbolicMatchesConcreteProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	alphabet := []byte{'a', ' '}
	for iter := 0; iter < 30; iter++ {
		p := randomProgram(rng, alphabet)
		symAgainstConcrete(t, p.Encode(), alphabet)
	}
}

func TestCompileToCPretty(t *testing.T) {
	c := CompileToC(mustDecode(t, "P \t\x00F"), "skip_ws")
	if !strings.Contains(c, `return s + strspn(s, " \t");`) {
		t.Fatalf("pretty C missing strspn: %s", c)
	}
	c = CompileToC(mustDecode(t, "ZFCa"+"F"), "find_a")
	if !strings.Contains(c, "return NULL;") || !strings.Contains(c, "strchr(s, 'a')") {
		t.Fatalf("null-guard pretty C wrong: %s", c)
	}
}

func TestCompileToCBackwardTrim(t *testing.T) {
	c := CompileToC(mustDecode(t, "VP/\x00F"), "trim")
	for _, want := range []string{"strlen(s) - 1", "p >= s", "*p == '/'", "p--"} {
		if !strings.Contains(c, want) {
			t.Fatalf("backward-trim C missing %q:\n%s", want, c)
		}
	}
	c = CompileToC(mustDecode(t, "VPab\x00F"), "trim2")
	if !strings.Contains(c, `strchr("ab", *p)`) {
		t.Fatalf("multi-char backward trim should use strchr:\n%s", c)
	}
}

func TestCompileToCMechanical(t *testing.T) {
	c := CompileToC(mustDecode(t, "SXIF"), "odd")
	for _, want := range []string{"skipInstruction", "result++", "return result;"} {
		if !strings.Contains(c, want) {
			t.Fatalf("mechanical C missing %q:\n%s", want, c)
		}
	}
}

func TestEncodeDecodeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for iter := 0; iter < 300; iter++ {
		p := randomProgram(rng, []byte{'a', 'b', ':', ' '})
		q, err := Decode(p.Encode())
		if err != nil {
			t.Fatalf("iter %d: decode(%q): %v", iter, p.Encode(), err)
		}
		if q.Encode() != p.Encode() || len(q) != len(p) {
			t.Fatalf("iter %d: round trip %q -> %q", iter, p.Encode(), q.Encode())
		}
		for i := range p {
			if q[i].Op != p[i].Op || string(q[i].Arg) != string(p[i].Arg) {
				t.Fatalf("iter %d: instruction %d differs", iter, i)
			}
		}
	}
}

func TestSpecializedShapesMatchGeneric(t *testing.T) {
	// Every shape with a specialised closure must agree with the gadget
	// interpreter on bounded buffers and NULL.
	shapes := []string{
		"EF", "CaF", "RaF", "MaF",
		"P \x00F", "Pab\x00F", "Na\x00F", "N\v\x00F", "Bab\x00F",
		"VPa\x00F", "ZFEF", "ZFP \x00F", "ZFCaF",
	}
	bufs := enumBuffers(3, []byte{'a', 'b', ' '})
	for _, enc := range shapes {
		p := mustDecode(t, enc)
		spec := CompileGo(p)
		for _, buf := range bufs {
			if got, want := spec(buf), Run(p, buf); got != want {
				t.Fatalf("%q on %q: specialised %+v != generic %+v", enc, buf, got, want)
			}
		}
		if got, want := spec(nil), Run(p, nil); got != want {
			t.Fatalf("%q on NULL: specialised %+v != generic %+v", enc, got, want)
		}
	}
}

func TestOpMetadata(t *testing.T) {
	if !OpStrchr.TakesChar() || OpStrchr.TakesSet() {
		t.Error("strchr metadata wrong")
	}
	if !OpStrspn.TakesSet() || OpStrspn.TakesChar() {
		t.Error("strspn metadata wrong")
	}
	if OpReturn.TakesChar() || OpReturn.TakesSet() {
		t.Error("return metadata wrong")
	}
	for _, op := range Ops {
		if op.Name() == "" || strings.HasPrefix(op.Name(), "op(") {
			t.Errorf("missing name for %c", byte(op))
		}
	}
}
