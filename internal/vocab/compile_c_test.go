package vocab_test

import (
	"strings"
	"testing"

	"stringloops/internal/cc"
	"stringloops/internal/cir"
	"stringloops/internal/vocab"
)

func TestCLiteral(t *testing.T) {
	cases := map[string]string{
		"abc":       `"abc"`,
		"a\tb":      `"a\tb"`,
		"a\"b\\c":   `"a\"b\\c"`,
		"a\x01b":    `"a\001b"`, // "\x01b" would be the one byte 0x1b
		"new\nline": `"new\nline"`,
		"it's":      `"it's"`,
		"\x00\xff":  `"\000\377"`,
	}
	for in, want := range cases {
		if got := vocab.CLiteral([]byte(in), '"'); got != want {
			t.Errorf("CLiteral(%q, '\"') = %s, want %s", in, got, want)
		}
	}
	for c, want := range map[byte]string{'a': `'a'`, '\'': `'\''`, '"': `'"'`, 0: `'\000'`, '\n': `'\n'`} {
		if got := vocab.CLiteral([]byte{c}, '\''); got != want {
			t.Errorf("CLiteral(%q, '\\'') = %s, want %s", c, got, want)
		}
	}
}

// TestCLiteralRoundTripsThroughLexer reads every byte value back through the
// front end's lexer, as a character constant and inside one string literal.
func TestCLiteralRoundTripsThroughLexer(t *testing.T) {
	all := make([]byte, 256)
	for i := range all {
		all[i] = byte(i)
	}
	for _, c := range all {
		src := vocab.CLiteral([]byte{c}, '\'')
		toks, err := cc.Lex(src)
		if err != nil || len(toks) != 1 || toks[0].Num != int64(c) {
			t.Errorf("byte %d as %s: lexed %v, %v", c, src, toks, err)
		}
	}
	src := vocab.CLiteral(all, '"')
	toks, err := cc.Lex(src)
	if err != nil || len(toks) != 1 || toks[0].Str != string(all) {
		t.Fatalf("all bytes as %s: lexed %v, %v", src, toks, err)
	}
}

// lowerC lowers the one function of a C translation unit.
func lowerC(t *testing.T, src string) *cir.Func {
	t.Helper()
	file, err := cc.Parse(src)
	if err != nil {
		t.Fatalf("%v:\n%s", err, src)
	}
	f, err := cir.LowerFunc(file.Funcs[0], file)
	if err != nil {
		t.Fatalf("%v:\n%s", err, src)
	}
	return f
}

// runC runs a char *f(char *) function on buf (nil = NULL) and maps the
// outcome into the interpreter's domain: a fault or a pointer outside the
// input is the invalid pointer.
func runC(f *cir.Func, buf []byte) vocab.Result {
	mem := cir.NewMemory()
	arg, obj := cir.NullVal(), -1
	if buf != nil {
		obj = mem.AllocData(append([]byte{}, buf...))
		arg = cir.PtrVal(obj, 0)
	}
	res, err := cir.Exec(f, []cir.CVal{arg}, mem, 0)
	switch {
	case err != nil:
		return vocab.InvalidResult()
	case res.Ret.IsNull() && res.Ret.Off == 0:
		return vocab.NullResult()
	case res.Ret.IsPtr && obj >= 0 && res.Ret.Obj == obj:
		return vocab.PtrResult(res.Ret.Off)
	}
	return vocab.InvalidResult()
}

// buffers returns every NUL-terminated buffer of three bytes over alphabet.
func buffers(alphabet []byte) [][]byte {
	var out [][]byte
	for _, a := range alphabet {
		for _, b := range alphabet {
			for _, c := range alphabet {
				out = append(out, []byte{a, b, c, 0})
			}
		}
	}
	return out
}

func TestCompileToCMatchesInterpreterProperty(t *testing.T) {
	// The emitted C, lowered by the front end, must agree with the
	// interpreter on every bounded buffer and on NULL.
	progs := []string{
		"P \x00F", "Nab\x00F", "CaF", "RbF", "Bab\x00F", "EF", "IF", "Ma" + "F",
		"ZFP \x00F", "ZFCaF", "SIF", "P \x00ICbF", "P5\x00ZFIF", "CaZFIF",
		// Is-start programs: the skip flag against a moved result.
		"SXIF", "XFIF", "P \x00XFIF", "IXFSF",
	}
	bufs := buffers([]byte{0, 'a', 'b', ' ', '5', '\n'})
	for _, enc := range progs {
		p, err := vocab.Decode(enc)
		if err != nil {
			t.Fatal(err)
		}
		if vocab.CanRunOffEnd(p) {
			t.Fatalf("%q: can run off its end", enc)
		}
		src := vocab.CompileToC(p, "t")
		if strings.Contains(src, "(char *)-1") {
			t.Fatalf("%q: C keeps the run-off return:\n%s", enc, src)
		}
		f := lowerC(t, src)
		if loops := cir.FindLoops(f); len(loops) != 0 {
			t.Fatalf("%q: C has %d loops:\n%s", enc, len(loops), src)
		}
		for _, buf := range append(bufs, nil) {
			if got, want := runC(f, buf), vocab.Run(p, buf); got != want {
				t.Fatalf("%q on %q: C %v, interpreter %v\n%s", enc, buf, got, want, src)
			}
		}
	}
}

func TestCompileToCRunOffEnd(t *testing.T) {
	// Programs that can pass their last instruction keep the invalid-pointer
	// return; programs that cannot end in a plain return.
	for enc, runsOff := range map[string]bool{
		"I": true, "ZF": true, "XF": true, "ZFI": true, "IZF": true,
		"IF": false, "ZFIF": false, "IZFF": false, "FZ": false, "SXIFF": false,
	} {
		p, err := vocab.Decode(enc)
		if err != nil {
			t.Fatal(err)
		}
		if got := vocab.CanRunOffEnd(p); got != runsOff {
			t.Errorf("%q: canRunOffEnd = %v, want %v", enc, got, runsOff)
		}
		src := vocab.CompileToC(p, "t")
		if got := strings.Contains(src, "return (char *)-1;"); got != runsOff {
			t.Errorf("%q: invalid-pointer return = %v, want %v:\n%s", enc, got, runsOff, src)
		}
		if runsOff {
			// Loop-free C cannot make the invalid pointer: the front end
			// refuses the cast, and with it the program.
			file, err := cc.Parse(src)
			if err == nil {
				_, err = cir.LowerFunc(file.Funcs[0], file)
			}
			if err == nil {
				t.Errorf("%q: front end accepted the invalid-pointer return", enc)
			}
			continue
		}
		f := lowerC(t, src)
		for _, buf := range append(buffers([]byte{0, 'a', ' '}), nil) {
			if got, want := runC(f, buf), vocab.Run(p, buf); got != want {
				t.Fatalf("%q on %q: C %v, interpreter %v\n%s", enc, buf, got, want, src)
			}
		}
	}
}
