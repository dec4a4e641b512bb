package symex

import (
	"testing"

	"stringloops/internal/bv"
	"stringloops/internal/cstr"
	"stringloops/internal/strsolver"
)

// The symbolic string-function intrinsics must agree with cstr reference
// semantics on every bounded buffer, checked through full functions.

func TestStrspnIntrinsicSymbolic(t *testing.T) {
	checkAgainstConcrete2(t, `
char *skip(char *s) {
  return s + strspn(s, " \t");
}`, func(buf []byte) (int, bool) {
		return cstr.Strspn(buf, 0, []byte(" \t")), true
	}, 3, []byte{' ', '\t', 'a'})
}

func TestStrcspnIntrinsicSymbolic(t *testing.T) {
	checkAgainstConcrete2(t, `
char *find(char *s) {
  return s + strcspn(s, ":;");
}`, func(buf []byte) (int, bool) {
		return cstr.Strcspn(buf, 0, []byte(":;")), true
	}, 3, []byte{':', ';', 'a'})
}

func TestStrchrIntrinsicSymbolic(t *testing.T) {
	checkAgainstConcrete2(t, `
char *find(char *s) {
  return strchr(s, '/');
}`, func(buf []byte) (int, bool) {
		j := cstr.Strchr(buf, 0, '/')
		if j == cstr.NotFound {
			return 0, false
		}
		return j, true
	}, 3, []byte{'/', 'a'})
}

func TestStrchrNulIntrinsicSymbolic(t *testing.T) {
	// strchr(s, '\0') finds the terminator (ISO C).
	checkAgainstConcrete2(t, `
char *end(char *s) {
  return strchr(s, 0);
}`, func(buf []byte) (int, bool) {
		return cstr.Strlen(buf, 0), true
	}, 3, []byte{'a', 'b'})
}

// checkAgainstConcrete2 compares a function's symbolic paths against a Go
// oracle returning (offset, isPtr) — isPtr=false means NULL.
func checkAgainstConcrete2(t *testing.T, src string, oracle func([]byte) (int, bool), maxLen int, alphabet []byte) {
	t.Helper()
	f := lower(t, src)
	buf := strsolver.New(tin, "s", maxLen).Bytes
	e := &Engine{In: tin, Objects: [][]*bv.Term{buf}, CheckFeasibility: true}
	paths, err := e.Run(f, []Value{PtrValue(0, tin.Int32(0))}, bv.True)
	if err != nil {
		t.Fatal(err)
	}
	for _, cbuf := range enumBuffers(maxLen, alphabet) {
		a := assignFor(cbuf)
		wantOff, wantPtr := oracle(cbuf)
		active := 0
		for _, p := range paths {
			if !p.Cond.Eval(a) {
				continue
			}
			active++
			if p.Err != nil {
				t.Fatalf("%q: error path %v", cbuf, p.Err)
			}
			if wantPtr {
				if !p.Ret.IsPtr || p.Ret.IsNull() {
					t.Fatalf("%q: got %+v, want pointer at %d", cbuf, p.Ret, wantOff)
				}
				if got := int32(p.Ret.Off.Eval(a)); int(got) != wantOff {
					t.Fatalf("%q: offset %d, want %d", cbuf, got, wantOff)
				}
			} else if !p.Ret.IsNull() {
				t.Fatalf("%q: got %+v, want NULL", cbuf, p.Ret)
			}
		}
		if active != 1 {
			t.Fatalf("%q: %d active paths", cbuf, active)
		}
	}
}

func TestStrspnSymbolicSetRejected(t *testing.T) {
	// The set argument must be a literal; passing the scanned string itself
	// is outside the modelled subset and must fail cleanly.
	f := lower(t, `char *weird(char *s) { return s + strspn(s, s); }`)
	buf := strsolver.New(tin, "s", 2).Bytes
	e := &Engine{In: tin, Objects: [][]*bv.Term{buf}}
	paths, err := e.Run(f, []Value{PtrValue(0, tin.Int32(0))}, bv.True)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		if p.Err == nil {
			t.Fatal("symbolic set argument must error")
		}
	}
}
