package symex

import (
	"testing"

	"stringloops/internal/bv"
	"stringloops/internal/cir"
	"stringloops/internal/strsolver"
)

func TestStrlenCallSymbolic(t *testing.T) {
	// p = s + strlen(s) - 1; single path, symbolic offset.
	f := lower(t, `
char *lastchar(char *s) {
  char *p = s + strlen(s) - 1;
  return p;
}`)
	buf := strsolver.New(tin, "s", 3).Bytes
	e := &Engine{In: tin, Objects: [][]*bv.Term{buf}}
	paths, err := e.Run(f, []Value{PtrValue(0, tin.Int32(0))}, bv.True)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 {
		t.Fatalf("paths = %d, want 1 (strlen is branch-free symbolically)", len(paths))
	}
	// Check the offset term against every concrete buffer.
	for _, cbuf := range enumBuffers(3, []byte{'a', 'b'}) {
		a := assignFor(cbuf)
		want := -1
		for i := 0; cbuf[i] != 0; i++ {
			want = i
		}
		got := int32(paths[0].Ret.Off.Eval(a))
		if int(got) != want {
			t.Errorf("%q: offset %d, want %d", cbuf, got, want)
		}
	}
}

func TestStrlenBackwardLoopSymbolic(t *testing.T) {
	// The full rtrim pattern must agree with the concrete interpreter.
	checkAgainstConcrete(t, `
char *rtrim(char *s) {
  char *p = s + strlen(s) - 1;
  while (p >= s && *p == ' ')
    p--;
  return p;
}`, 3, []byte{' ', 'a'})
}

func TestStrlenNullDeref(t *testing.T) {
	f := lower(t, `long n(char *s) { return strlen(s); }`)
	e := &Engine{In: tin}
	paths, err := e.Run(f, []Value{NullValue()}, bv.True)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 || paths[0].Err != ErrNullDeref {
		t.Fatalf("paths = %+v, want null-deref error", paths)
	}
}

func TestConcreteStrlenIntrinsic(t *testing.T) {
	// The concrete interpreter agrees with C strlen semantics.
	f := lower(t, `int n(char *s) { return strlen(s); }`)
	for _, s := range []string{"", "a", "hello world"} {
		mem := cir.NewMemory()
		obj := mem.AllocData(append([]byte(s), 0))
		res, err := cir.Exec(f, []cir.CVal{cir.PtrVal(obj, 0)}, mem, 0)
		if err != nil {
			t.Fatal(err)
		}
		if int(res.Ret.Int) != len(s) {
			t.Errorf("strlen(%q) = %d", s, res.Ret.Int)
		}
	}
	// Unterminated buffer: UB surfaced as a memory error.
	mem := cir.NewMemory()
	obj := mem.AllocData([]byte{'a', 'b'})
	if _, err := cir.Exec(f, []cir.CVal{cir.PtrVal(obj, 0)}, mem, 0); err != cir.ErrMemory {
		t.Fatalf("err = %v", err)
	}
}

func TestExecSSAFunction(t *testing.T) {
	// The concrete interpreter must handle phi nodes (post-mem2reg code).
	f := lower(t, `
char *skip(char *s) {
  while (*s == 'x')
    s++;
  return s;
}`)
	cir.Mem2Reg(f)
	mem := cir.NewMemory()
	obj := mem.AllocData(append([]byte("xxab"), 0))
	res, err := cir.Exec(f, []cir.CVal{cir.PtrVal(obj, 0)}, mem, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ret.Off != 2 {
		t.Fatalf("SSA exec offset = %d, want 2", res.Ret.Off)
	}
}

func TestSymbolicSSAFunction(t *testing.T) {
	// The symbolic engine also runs SSA form; results must agree with the
	// non-SSA form on all bounded strings.
	src := `
char *skip(char *s) {
  while (*s == 'x' || *s == 'y')
    s++;
  return s;
}`
	plain := lower(t, src)
	ssa := lower(t, src)
	cir.Mem2Reg(ssa)
	for _, f := range []*cir.Func{plain, ssa} {
		buf := strsolver.New(tin, "s", 2).Bytes
		e := &Engine{In: tin, Objects: [][]*bv.Term{buf}}
		paths, err := e.Run(f, []Value{PtrValue(0, tin.Int32(0))}, bv.True)
		if err != nil {
			t.Fatal(err)
		}
		for _, cbuf := range enumBuffers(2, []byte{'x', 'y', 'z'}) {
			a := assignFor(cbuf)
			active := 0
			for _, p := range paths {
				if p.Cond.Eval(a) {
					active++
					want := 0
					for cbuf[want] == 'x' || cbuf[want] == 'y' {
						want++
					}
					if got := int32(p.Ret.Off.Eval(a)); int(got) != want {
						t.Errorf("%q: offset %d, want %d", cbuf, got, want)
					}
				}
			}
			if active != 1 {
				t.Fatalf("%q: %d active paths", cbuf, active)
			}
		}
	}
}
