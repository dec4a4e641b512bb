package cir_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"stringloops/internal/cc"
	"stringloops/internal/cir"
	"stringloops/internal/diffuzz"
	"stringloops/internal/loopdb"
)

// The decoded Machine against the reference tree-walker (RefExec): on every
// function and input below, both must return the same value, the same step
// count and the same error text. The machine runs warm — one machine per
// function, its heap reset between runs — as every caller that runs a loop
// many times does; the reference runs on a fresh heap each time.

// xcheck runs f on buf (nil is the NULL input) on m and on the reference,
// with the step bound maxSteps, and reports any difference. It returns the
// reference's step count.
func xcheck(t *testing.T, name string, f *cir.Func, m *cir.Machine, buf []byte, maxSteps int) int {
	t.Helper()
	ref := cir.NewMemory()
	heap := m.Heap()
	refArg, arg := cir.NullVal(), cir.NullVal()
	if buf != nil {
		refArg = cir.PtrVal(ref.AllocData(append([]byte{}, buf...)), 0)
		arg = cir.PtrVal(heap.AllocCopy(buf), 0)
	}
	want, werr := cir.RefExec(f, []cir.CVal{refArg}, ref, maxSteps)
	got, gerr := m.Exec([]cir.CVal{arg}, heap, maxSteps)
	if got != want || errText(gerr) != errText(werr) {
		t.Fatalf("%s on %q (max %d steps): machine %v, %v; reference %v, %v", name, buf, maxSteps, got, gerr, want, werr)
	}
	return want.Steps
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// comparedBytes returns f's byte constants (immediates in 1..255 and
// string-literal bytes) plus one byte that is none of them.
func comparedBytes(f *cir.Func) []byte {
	var out []byte
	add := func(c byte) {
		if c != 0 && !slices.Contains(out, c) {
			out = append(out, c)
		}
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for _, a := range in.Args {
				if a.Kind == cir.KConst && a.Imm > 0 && a.Imm < 256 {
					add(byte(a.Imm))
				}
			}
		}
	}
	for _, s := range f.StrLits {
		for i := range len(s) {
			add(s[i])
		}
	}
	for c := byte('a'); ; c++ {
		if !slices.Contains(out, c) {
			return append(out, c)
		}
	}
}

// inputs is the cross-check battery for f: NULL, "", every one-byte string,
// every two-byte string over f's compared bytes, then extra.
func inputs(f *cir.Func, extra [][]byte) [][]byte {
	out := [][]byte{nil, {0}}
	for c := 1; c < 256; c++ {
		out = append(out, []byte{byte(c), 0})
	}
	bs := comparedBytes(f)
	for _, a := range bs {
		for _, b := range bs {
			out = append(out, []byte{a, b, 0})
		}
	}
	return append(out, extra...)
}

// xcheckAll cross-checks f on every input, each also under a step bound
// that cuts the run short, so ErrStepLimit must fall on the same step.
func xcheckAll(t *testing.T, name string, f *cir.Func, ins [][]byte) {
	t.Helper()
	m := cir.NewMachine(f)
	for _, in := range ins {
		if steps := xcheck(t, name, f, m, in, 0); steps > 1 {
			xcheck(t, name, f, m, in, steps/2)
			xcheck(t, name, f, m, in, steps-1)
		}
	}
}

// lowerSource parses src and lowers its first function.
func lowerSource(t testing.TB, src string) *cir.Func {
	t.Helper()
	file, err := cc.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	funcs, err := cir.LowerFile(file)
	if err != nil {
		t.Fatal(err)
	}
	return funcs[0]
}

// randomBuffers returns n NUL-terminated buffers of content length up to 6
// over f's compared bytes and NUL.
func randomBuffers(f *cir.Func, n int, seed int64) [][]byte {
	r := rand.New(rand.NewSource(seed))
	alphabet := append(comparedBytes(f), 0)
	out := make([][]byte, n)
	for i := range out {
		buf := make([]byte, r.Intn(7), 8)
		for j := range buf {
			buf[j] = alphabet[r.Intn(len(alphabet))]
		}
		out[i] = append(buf, 0)
	}
	return out
}

func TestExecMatchesReference(t *testing.T) {
	t.Run("corpus", func(t *testing.T) {
		for i, l := range loopdb.Corpus() {
			for _, promote := range []bool{false, true} {
				f, err := l.Lower()
				if err != nil {
					t.Fatal(err)
				}
				if promote {
					cir.Mem2Reg(f)
				}
				xcheckAll(t, fmt.Sprintf("%s (ssa %v)", l.Name, promote), f, inputs(f, randomBuffers(f, 32, int64(i))))
			}
		}
	})
	t.Run("diffuzz", func(t *testing.T) {
		seeds := uint64(500)
		if testing.Short() {
			seeds = 100
		}
		for seed := uint64(1); seed <= seeds; seed++ {
			p := diffuzz.Generate(seed)
			extra := diffuzz.SeedInputs(seed, p, 16, 8)
			for _, promote := range []bool{false, true} {
				f := lowerSource(t, p.Source())
				if promote {
					cir.Mem2Reg(f)
				}
				xcheckAll(t, fmt.Sprintf("seed %d (ssa %v)", seed, promote), f, inputs(f, extra))
			}
		}
	})
}

// FuzzExecMatchesReference cross-checks the machine on the program diffuzz
// generates from seed, as lowered and after Mem2Reg, on raw (clamped to 16
// bytes and NUL-terminated).
func FuzzExecMatchesReference(f *testing.F) {
	for seed := uint64(1); seed <= 16; seed++ {
		for _, in := range diffuzz.SeedInputs(seed, diffuzz.Generate(seed), 2, 8) {
			f.Add(seed, in[:len(in)-1])
		}
	}
	f.Fuzz(func(t *testing.T, seed uint64, raw []byte) {
		if len(raw) > 16 {
			raw = raw[:16]
		}
		buf := append(append([]byte{}, raw...), 0)
		src := diffuzz.Generate(seed).Source()
		for _, promote := range []bool{false, true} {
			fn := lowerSource(t, src)
			if promote {
				cir.Mem2Reg(fn)
			}
			m := cir.NewMachine(fn)
			name := fmt.Sprintf("seed %d (ssa %v)", seed, promote)
			if steps := xcheck(t, name, fn, m, buf, 0); steps > 1 {
				xcheck(t, name, fn, m, buf, steps/2)
			}
			xcheck(t, name, fn, m, nil, 0)
		}
	})
}

// TestExecEdgeCasesMatchReference covers what the corpus does not reach:
// pointer ordering across objects, stores into a run's own copy of a string
// literal, an alloca executed on every iteration, division by zero, string
// intrinsics, phis that read each other on one edge (a parallel copy), and
// IR no lowering produces — each of which the machine
// decodes to a trap raised only when a run reaches it.
func TestExecEdgeCasesMatchReference(t *testing.T) {
	sources := map[string]string{
		"cross-object order":     `char *f(char *s) { char *t = "ab"; if (s < t) return s; return s + 1; }`,
		"cross-object equal":     `char *f(char *s) { char *t = "ab"; if (s == t) return 0; return s; }`,
		"literal store":          `char *f(char *s) { char *t = "ab"; t[0] = *s; if (t[0] == 'x') return s; return s + 1; }`,
		"literal store past end": `char *f(char *s) { char *t = "ab"; t[3] = 'x'; return s; }`,
		"alloca per iteration":   `char *f(char *s) { while (*s) { int k = *s; if (k == 'q') break; s++; } return s; }`,
		"division by zero":       `char *f(char *s) { int n = 0; while (*s) { n = 100 / (*s - 'a'); s++; } if (n > 9) return s; return 0; }`,
		"remainder by zero":      `char *f(char *s) { int n = *s % (*s - 'b'); if (n) return s; return 0; }`,
		"strchr":                 `char *f(char *s) { return strchr(s, 'b'); }`,
		"strrchr":                `char *f(char *s) { return strrchr(s, 'b'); }`,
		"strspn":                 `char *f(char *s) { return s + strspn(s, "ab"); }`,
		"strcspn":                `char *f(char *s) { return s + strcspn(s, "ab"); }`,
		"strpbrk":                `char *f(char *s) { return strpbrk(s, "ab"); }`,
		"strlen":                 `char *f(char *s) { return s + strlen(s); }`,
		"rawmemchr":              `char *f(char *s) { return rawmemchr(s, 'b'); }`,
		"memchr":                 `char *f(char *s) { return memchr(s, 'b', 2); }`,
		"ctype":                  `char *f(char *s) { while (isalnum(*s) || isspace(*s) || isupper(tolower(*s)) || islower(toupper(*s))) s++; return s; }`,
		"pointer difference":     `char *f(char *s) { char *p = s; while (*p) p++; if (p - s > 2) return s; return p; }`,
		"foreign return":         `char *f(char *s) { if (*s) return "x"; return s; }`,
		"spin":                   `char *f(char *s) { while (*s != 'x') s = s + 0; return s; }`,
		"phi swap":               `char *f(char *s) { char *a = s; char *b = s + 1; int n = 0; while (n < 3) { char *t = a; a = b; b = t; n++; } return a; }`,
	}
	bufs := [][]byte{nil, []byte("\x00"), []byte("a\x00"), []byte("b\x00"), []byte("x\x00"), []byte("ab\x00"),
		[]byte("ba\x00"), []byte("q\x00"), []byte("aq\x00"), []byte("Ab 1\x00"), []byte("a\x00b\x00"), []byte("xyz")}
	for name, src := range sources {
		for _, promote := range []bool{false, true} {
			f := lowerSource(t, src)
			if promote {
				cir.Mem2Reg(f)
			}
			m := cir.NewMachine(f)
			for _, in := range bufs {
				if steps := xcheck(t, name, f, m, in, 5000); steps > 1 {
					xcheck(t, name, f, m, in, steps/2)
				}
			}
		}
	}

	// Malformed IR: each function runs fine on input "a", and reaches its
	// flaw on input "b".
	for name, flaw := range map[string]func(f *cir.Func, bad *cir.Block){
		"unknown operand kind": func(f *cir.Func, bad *cir.Block) {
			bad.Instrs[0].Args[0] = cir.Operand{Kind: 9}
		},
		"unknown binop": func(f *cir.Func, bad *cir.Block) {
			bad.Instrs[0].Op, bad.Instrs[0].Sub = cir.OpBin, "rol"
		},
		"unknown binop on pointers": func(f *cir.Func, bad *cir.Block) {
			bad.Instrs[0].Op, bad.Instrs[0].Sub = cir.OpBin, "rol"
			bad.Instrs[0].Args[1] = cir.Reg(f.Params[0].Reg, cir.TyPtr)
		},
		"unknown comparison": func(f *cir.Func, bad *cir.Block) {
			bad.Instrs[0].Op, bad.Instrs[0].Sub = cir.OpCmp, "lt"
		},
		"unknown pointer comparison": func(f *cir.Func, bad *cir.Block) {
			bad.Instrs[0].Op, bad.Instrs[0].Sub = cir.OpCmp, "lt"
			bad.Instrs[0].Args[0] = cir.Reg(f.Params[0].Reg, cir.TyPtr)
			bad.Instrs[0].Args[1] = cir.Reg(f.Params[0].Reg, cir.TyPtr)
		},
		"unknown intrinsic": func(f *cir.Func, bad *cir.Block) {
			bad.Instrs[0].Op, bad.Instrs[0].Sub = cir.OpCall, "isfoo"
			bad.Instrs[0].Args = bad.Instrs[0].Args[:1]
		},
		"unsupported call": func(f *cir.Func, bad *cir.Block) {
			bad.Instrs[0].Op, bad.Instrs[0].Sub = cir.OpCall, "isdigit"
		},
		"phi with no edge": func(f *cir.Func, bad *cir.Block) {
			phi := &cir.Instr{Op: cir.OpPhi, Res: f.NewReg(), Args: []cir.Operand{cir.ConstOp(1)}, Blocks: []*cir.Block{bad}}
			bad.Instrs = append([]*cir.Instr{phi}, bad.Instrs...)
		},
		"phi with bad operand": func(f *cir.Func, bad *cir.Block) {
			phi := &cir.Instr{Op: cir.OpPhi, Res: f.NewReg(), Args: []cir.Operand{{Kind: 7}}, Blocks: cir.Preds(f, bad)[:1]}
			bad.Instrs = append([]*cir.Instr{phi}, bad.Instrs...)
		},
		"falls through": func(f *cir.Func, bad *cir.Block) {
			bad.Instrs = bad.Instrs[:len(bad.Instrs)-1]
		},
		"unknown opcode": func(f *cir.Func, bad *cir.Block) {
			bad.Instrs[0].Op = cir.Op(200)
		},
	} {
		// The flawed block computes s + 1 via "%r = add 1, 2" first: an
		// instruction with two integer operands to corrupt.
		f := lowerSource(t, `char *f(char *s) { int k = 1; if (*s == 'b') { k = k + 2; return s + k; } return s; }`)
		cir.Mem2Reg(f)
		var bad *cir.Block
		for _, b := range f.Blocks {
			if len(b.Instrs) > 1 && b.Instrs[0].Op == cir.OpBin && b.Instrs[0].Sub == "add" {
				bad = b
			}
		}
		if bad == nil {
			t.Fatalf("%s: no block starts with an add:\n%s", name, f)
		}
		flaw(f, bad)
		m := cir.NewMachine(f)
		for _, in := range [][]byte{[]byte("a\x00"), []byte("b\x00"), nil} {
			xcheck(t, name, f, m, in, 0)
		}
		if _, err := cir.Exec(f, []cir.CVal{cir.PtrVal(0, 0)}, memWith("b\x00"), 0); err == nil && name != "unknown opcode" {
			t.Errorf("%s: reaching the flaw did not fail", name)
		}
		if _, err := cir.Exec(f, []cir.CVal{cir.PtrVal(0, 0)}, memWith("a\x00"), 0); err != nil {
			t.Errorf("%s: a run that never reaches the flaw failed: %v", name, err)
		}
		if name == "phi with no edge" {
			_, err := cir.Exec(f, []cir.CVal{cir.PtrVal(0, 0)}, memWith("b\x00"), 0)
			if want := "cir: phi in b1.then has no incoming edge from b0.entry"; errText(err) != want {
				t.Errorf("%s: error %q, want %q", name, errText(err), want)
			}
		}
	}

	// A phi in the entry block: the run enters it from no block at all.
	f := lowerSource(t, `char *f(char *s) { return s; }`)
	entry := f.Blocks[0]
	entry.Instrs = append([]*cir.Instr{{Op: cir.OpPhi, Res: f.NewReg(), Args: []cir.Operand{cir.ConstOp(1)}, Blocks: []*cir.Block{entry}}}, entry.Instrs...)
	xcheck(t, "entry phi", f, cir.NewMachine(f), []byte("a\x00"), 0)
	_, err := cir.Exec(f, []cir.CVal{cir.PtrVal(0, 0)}, memWith("a\x00"), 0)
	if want := "cir: phi in b0.entry has no incoming edge from function entry"; errText(err) != want {
		t.Errorf("entry phi: error %q, want %q", errText(err), want)
	}
}

func memWith(s string) *cir.Memory {
	m := cir.NewMemory()
	m.AllocData([]byte(s))
	return m
}

// TestExecOutOfRangeRegistersFail covers IR on which the tree-walker
// panics (an index out of range): the machine reports an error instead, and
// only on a run that reaches the flaw.
func TestExecOutOfRangeRegistersFail(t *testing.T) {
	for name, flaw := range map[string]func(f *cir.Func, bad *cir.Block){
		"operand": func(f *cir.Func, bad *cir.Block) { bad.Instrs[0].Args[0] = cir.Reg(f.NumRegs+5, cir.TyI32) },
		"result":  func(f *cir.Func, bad *cir.Block) { bad.Instrs[0].Res = -3 },
		"string":  func(f *cir.Func, bad *cir.Block) { bad.Instrs[0].Args[0] = cir.StrOp(4) },
	} {
		f := lowerSource(t, `char *f(char *s) { int k = 1; if (*s == 'b') { k = k + 2; return s + k; } return s; }`)
		cir.Mem2Reg(f)
		for _, b := range f.Blocks {
			if len(b.Instrs) > 1 && b.Instrs[0].Op == cir.OpBin {
				flaw(f, b)
			}
		}
		m := cir.NewMachine(f)
		if _, err := m.Exec([]cir.CVal{cir.PtrVal(0, 0)}, memWith("a\x00"), 0); err != nil {
			t.Errorf("%s: a run that never reaches the flaw failed: %v", name, err)
		}
		if _, err := m.Exec([]cir.CVal{cir.PtrVal(0, 0)}, memWith("b\x00"), 0); err == nil {
			t.Errorf("%s: reaching the flaw did not fail", name)
		}
	}
}
