package symex

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"stringloops/internal/bv"
	"stringloops/internal/cir"
	"stringloops/internal/engine"
	"stringloops/internal/faultpoint"
	"stringloops/internal/strsolver"
)

// malformedFlaws are the flaws of cir's TestExecOutOfRangeRegistersFail and
// every case of its TestExecEdgeCasesMatchReference malformed-IR table
// (internal/cir/machine_test.go), applied to flawedSrc's block that starts
// with "%r = add 1, 2". A run on "a" never reaches the flaw; one on "b" does.
var malformedFlaws = map[string]func(f *cir.Func, bad *cir.Block){
	"out-of-range operand": func(f *cir.Func, bad *cir.Block) { bad.Instrs[0].Args[0] = cir.Reg(f.NumRegs+5, cir.TyI32) },
	"out-of-range result":  func(f *cir.Func, bad *cir.Block) { bad.Instrs[0].Res = -3 },
	"out-of-range string":  func(f *cir.Func, bad *cir.Block) { bad.Instrs[0].Args[0] = cir.StrOp(4) },
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
		phi := &cir.Instr{Op: cir.OpPhi, Res: f.NewReg(), Args: []cir.Operand{{Kind: 7}}, Blocks: []*cir.Block{predOf(f, bad)}}
		bad.Instrs = append([]*cir.Instr{phi}, bad.Instrs...)
	},
	"nil branch target": func(f *cir.Func, bad *cir.Block) {
		*bad.Term() = cir.Instr{Op: cir.OpCondBr, Res: -1, Args: []cir.Operand{cir.ConstOp(1)}, Blocks: []*cir.Block{bad, nil}}
	},
	"br with no target": func(f *cir.Func, bad *cir.Block) {
		*bad.Term() = cir.Instr{Op: cir.OpBr, Res: -1}
	},
	"falls through": func(f *cir.Func, bad *cir.Block) {
		bad.Instrs = bad.Instrs[:len(bad.Instrs)-1]
	},
	"unknown opcode": func(f *cir.Func, bad *cir.Block) {
		bad.Instrs[0].Op = cir.Op(200)
	},
}

// predOf is the first block of f that branches to b.
func predOf(f *cir.Func, b *cir.Block) *cir.Block {
	for _, p := range f.Blocks {
		if slices.Contains(p.Succs(), b) {
			return p
		}
	}
	return nil
}

const flawedSrc = `char *f(char *s) { int k = 1; if (*s == 'b') { k = k + 2; return s + k; } return s; }`

// flawed lowers flawedSrc, promotes it and applies flaw.
func flawed(t *testing.T, name string, flaw func(f *cir.Func, bad *cir.Block)) *cir.Func {
	t.Helper()
	f := lower(t, flawedSrc)
	cir.Mem2Reg(f)
	for _, b := range f.Blocks {
		if len(b.Instrs) > 1 && b.Instrs[0].Op == cir.OpBin && b.Instrs[0].Sub == "add" {
			flaw(f, b)
			return f
		}
	}
	t.Fatalf("%s: no block starts with an add:\n%s", name, f)
	return nil
}

// machineErr is cir.Machine's error on f run on buf.
func machineErr(f *cir.Func, buf string) error {
	m := cir.NewMachine(f)
	mem := m.Heap()
	_, err := m.Exec([]cir.CVal{cir.PtrVal(mem.AllocCopy([]byte(buf)), 0)}, mem, 0)
	return err
}

// TestMalformedIRIsATypedError: on malformed IR a symbolic run over every
// string of length up to 2, enumerating or merging, ends in an error that
// wraps ErrUnsupported and carries the concrete machine's text for the same
// flaw, on the run or on a path, and never panics. An unknown opcode, which
// the machine steps over, is symex's own "opcode" error.
func TestMalformedIRIsATypedError(t *testing.T) {
	for name, flaw := range malformedFlaws {
		want := "symex: unsupported operation: opcode 200"
		if name != "unknown opcode" {
			if err := machineErr(flawed(t, name, flaw), "a\x00"); err != nil {
				t.Fatalf("%s: the machine failed off the flaw: %v", name, err)
			}
			err := machineErr(flawed(t, name, flaw), "b\x00")
			if err == nil {
				t.Fatalf("%s: the machine ran through the flaw", name)
			}
			want = err.Error()
		}
		for _, merge := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/merge=%v", name, merge), func(t *testing.T) {
				in := bv.NewInterner()
				e := &Engine{In: in, Config: Config{Merge: merge}, CheckFeasibility: true,
					Budget: engine.NewBudget(nil, engine.Limits{})}
				var paths []Path
				var err error
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Fatalf("panic: %v", r)
						}
					}()
					paths, err = e.RunOn(flawed(t, name, flaw), strsolver.New(in, "s", 2).Bytes)
				}()
				errs := []error{err}
				for _, p := range paths {
					errs = append(errs, p.Err)
				}
				var got []string
				for _, err := range errs {
					if err == nil {
						continue
					}
					got = append(got, err.Error())
					if errors.Is(err, ErrUnsupported) && strings.Contains(err.Error(), want) {
						return
					}
				}
				t.Errorf("no error wraps ErrUnsupported and carries %q; errors %q", want, got)
			})
		}
	}
}

// TestStringCallForkConsultsFaultSite: a string call's found/miss split is
// a fork step like a branch's, so with SymexForkFail armed at rate 1 both
// abort the run with an error wrapping faultpoint.ErrInjected.
func TestStringCallForkConsultsFaultSite(t *testing.T) {
	for _, src := range []string{
		`char *f(char *s) { return strchr(s, ':'); }`,
		`char *f(char *s) { while (*s == ' ') s++; return s; }`,
	} {
		in := bv.NewInterner()
		faults := faultpoint.New(faultpoint.Config{Seed: 1, Rates: map[faultpoint.Site]float64{faultpoint.SymexForkFail: 1}})
		b := engine.NewBudget(nil, engine.Limits{})
		e := &Engine{In: in, Config: Config{Faults: faults}, CheckFeasibility: true, Budget: b}
		paths, err := e.RunOn(lower(t, src), strsolver.New(in, "s", 3).Bytes)
		if !errors.Is(err, faultpoint.ErrInjected) || !errors.Is(err, ErrTimeout) {
			t.Errorf("%s: %d paths, error %v; want an injected fork failure", src, len(paths), err)
		}
		if fired, forks := faults.Fired(faultpoint.SymexForkFail), b.Count(engine.Forks); fired != 1 || forks != 1 {
			t.Errorf("%s: %d fork-fail firings over %d forks, want 1 and 1", src, fired, forks)
		}
	}
}
