package vocab

import (
	"math/rand"
	"testing"

	"stringloops/internal/bv"
	"stringloops/internal/cstr"
	"stringloops/internal/strsolver"
)

// randomSymInstrs appends n random instructions over all 13 opcodes to p.
// A quarter of the instructions are preceded by a chain of one to three
// Z/X flag setters, and arg supplies each argument character.
func randomSymInstrs(rng *rand.Rand, p SymProgram, n int, arg func() *bv.Term) SymProgram {
	for k := 0; k < n; k++ {
		if rng.Intn(4) == 0 {
			for z := 1 + rng.Intn(3); z > 0; z-- {
				p = append(p, SymInstr{Op: []Op{OpIsNullptr, OpIsStart}[rng.Intn(2)]})
			}
		}
		in := SymInstr{Op: Ops[rng.Intn(len(Ops))]}
		switch {
		case in.Op.TakesChar():
			in.Arg = []*bv.Term{arg()}
		case in.Op.TakesSet():
			for j := 1 + rng.Intn(2); j > 0; j-- {
				in.Arg = append(in.Arg, arg())
			}
		}
		p = append(p, in)
	}
	return p
}

// cloneRun copies r's state into fresh slices.
func cloneRun(r *SymRun) SymRun {
	return SymRun{
		s:        r.s,
		pc:       r.pc,
		live:     guarded[config]{keys: append([]config(nil), r.live.keys...), guards: append([]*bv.Bool(nil), r.live.guards...)},
		terminal: guarded[Result]{keys: append([]Result(nil), r.terminal.keys...), guards: append([]*bv.Bool(nil), r.terminal.guards...)},
	}
}

// sameRunState reports whether two runs hold the same state, guards
// compared by pointer.
func sameRunState(a, b *SymRun) bool {
	if a.s != b.s || a.pc != b.pc || len(a.live.keys) != len(b.live.keys) ||
		len(a.terminal.keys) != len(b.terminal.keys) {
		return false
	}
	for i := range a.live.keys {
		if a.live.keys[i] != b.live.keys[i] || a.live.guards[i] != b.live.guards[i] {
			return false
		}
	}
	for i := range a.terminal.keys {
		if a.terminal.keys[i] != b.terminal.keys[i] || a.terminal.guards[i] != b.terminal.guards[i] {
			return false
		}
	}
	return true
}

// TestStepIntoMatchesRunSymbolic steps a random shared prefix once, branches
// several random suffixes from it through reused buffers, and checks every
// branch against RunSymbolic on the whole program: the same outcomes in the
// same order under pointer-identical guards. Programs with constant arguments
// run on a symbolic string (bounded verification), programs with variable
// arguments on concrete strings (argument solving). The prefix's run must be
// unchanged by its branches.
func TestStepIntoMatchesRunSymbolic(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	in := bv.NewInterner()
	symbolic := strsolver.New(in, "s", 3)
	var concrete []*strsolver.SymString
	for _, str := range []string{"", "a", " a", "ab ", "a a"} {
		cs, err := strsolver.FromConcrete(in, cstr.Terminate(str))
		if err != nil {
			t.Fatal(err)
		}
		concrete = append(concrete, cs)
	}
	alphabet := []byte{'a', ' ', cstr.MetaSpace}
	constArg := func() *bv.Term { return in.Byte(alphabet[rng.Intn(len(alphabet))]) }
	varArg := func() *bv.Term { return in.Var(string(rune('p'+rng.Intn(4))), 8) }

	var branch [2]SymRun // reused by every branch of every iteration
	reverses := 0
	for iter := 0; iter < 300; iter++ {
		str, arg := symbolic, constArg
		if iter%2 == 1 {
			str, arg = concrete[rng.Intn(len(concrete))], varArg
		}
		var prefix SymProgram
		if rng.Intn(3) == 0 {
			prefix = append(prefix, SymInstr{Op: OpReverse})
		}
		prefix = randomSymInstrs(rng, prefix, rng.Intn(3), arg)
		base, next := NewSymRun(str), new(SymRun)
		for _, ins := range prefix {
			base.StepInto(next, ins)
			base, next = next, base
		}
		before := cloneRun(base)

		for b := 0; b < 4; b++ {
			suffix := randomSymInstrs(rng, nil, rng.Intn(3), arg)
			if rng.Intn(4) != 0 {
				suffix = append(suffix, SymInstr{Op: OpReturn})
			}
			run := base
			for k, ins := range suffix {
				if ins.Op == OpReverse {
					reverses++
				}
				run.StepInto(&branch[k%2], ins)
				run = &branch[k%2]
			}
			prog := append(append(SymProgram(nil), prefix...), suffix...)
			got := run.AppendOutcomes(nil)
			want := RunSymbolic(prog, str)
			if len(got) != len(want) {
				t.Fatalf("iter %d branch %d: %d outcomes stepped, %d from scratch", iter, b, len(got), len(want))
			}
			for i := range want {
				if got[i].Res != want[i].Res || got[i].Guard != want[i].Guard {
					t.Fatalf("iter %d branch %d: outcome %d stepped %+v under %p, from scratch %+v under %p",
						iter, b, i, got[i].Res, got[i].Guard, want[i].Res, want[i].Guard)
				}
			}
		}
		if !sameRunState(base, &before) {
			t.Fatalf("iter %d: branching changed the prefix's run", iter)
		}
	}
	if reverses == 0 {
		t.Fatal("no suffix stepped a reverse")
	}
}

// TestStepIntoRejectsItsReceiver pins the aliasing guard: stepping a run into
// itself would read the configurations it is overwriting.
func TestStepIntoRejectsItsReceiver(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("StepInto into its receiver did not panic")
		}
	}()
	r := NewSymRun(strsolver.New(bv.NewInterner(), "s", 2))
	r.StepInto(r, SymInstr{Op: OpReturn})
}

// TestRunNullInputIgnoresArguments checks the argument-free NULL-input run
// against Run on the concrete program, arguments included, for programs
// longer than its stack buffer too.
func TestRunNullInputIgnoresArguments(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	in := bv.NewInterner()
	for iter := 0; iter < 300; iter++ {
		sp := randomSymInstrs(rng, nil, 1+rng.Intn(12), func() *bv.Term { return in.Byte('a') })
		if rng.Intn(2) == 0 {
			sp = append(sp, SymInstr{Op: OpReturn})
		}
		p := make(Program, len(sp))
		for i, si := range sp {
			p[i] = Instr{Op: si.Op, Arg: make([]byte, len(si.Arg))}
			for j := range si.Arg {
				p[i].Arg[j] = 'a'
			}
		}
		if got, want := sp.RunNullInput(), Run(p, nil); got != want {
			t.Fatalf("iter %d: %q on NULL: %+v, Run gives %+v", iter, p.Encode(), got, want)
		}
	}
}
