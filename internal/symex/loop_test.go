package symex

import (
	"errors"
	"slices"
	"testing"

	"stringloops/internal/bv"
	"stringloops/internal/cir"
	"stringloops/internal/loopdb"
	"stringloops/internal/strsolver"
	"stringloops/internal/vocab"
)

// loopBytes returns the byte constants of f's IR (immediates in 1..255 and
// string-literal bytes) plus one byte that is none of them: the alphabet on
// which every comparison of the loop can go either way.
func loopBytes(f *cir.Func) []byte {
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

// TestRunConcreteMatchesRunLoop checks the runner's two halves against each
// other: on every buffer of capacity 3 over a corpus loop's bytes, the
// concrete result must equal the result of the one symbolic path whose
// condition the buffer satisfies.
func TestRunConcreteMatchesRunLoop(t *testing.T) {
	corpus := loopdb.Corpus()
	checked := 0
	for i := 0; i < len(corpus); i += 8 {
		l := corpus[i]
		f, err := l.Lower()
		if err != nil {
			t.Fatal(err)
		}
		buf := strsolver.New(tin, "s", 3).Bytes
		e := &Engine{In: tin, CheckFeasibility: true}
		paths, err := e.RunLoop(f, buf)
		if errors.Is(err, ErrUnsupported) {
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", l.Name, err)
		}
		checked++
		for _, in := range enumBuffers(3, loopBytes(f)) {
			want, _ := RunConcrete(f, in, 0)
			a := assignFor(in)
			var got []vocab.Result
			for _, p := range paths {
				if !p.Cond.Eval(a) {
					continue
				}
				r := vocab.Result{Kind: p.Kind}
				if p.Kind == vocab.Ptr {
					r.Off = int(int32(p.Off.Eval(a)))
				}
				got = append(got, r)
			}
			if len(got) != 1 || got[0] != want {
				t.Fatalf("%s on %q: RunConcrete %v, RunLoop paths claiming it %v", l.Name, in, want, got)
			}
		}
	}
	if checked < 10 {
		t.Fatalf("only %d sampled corpus loops ran symbolically", checked)
	}
}

// TestRunConcreteInvalid pins the errors behind RunConcrete's Invalid
// results, and ClassifyPath's for the same loops run symbolically.
func TestRunConcreteInvalid(t *testing.T) {
	deref := lower(t, `char *f(char *s) { while (*s) s++; return s; }`)
	foreign := lower(t, `char *f(char *s) { return "x"; }`)
	spin := lower(t, `char *f(char *s) { while (*s != 'x') s = s + 0; return s; }`)
	scan := lower(t, `char *f(char *s) { while (*s != 'x') s++; return s; }`)
	for _, tc := range []struct {
		name string
		f    *cir.Func
		in   []byte
		want error
	}{
		{"null input", deref, nil, cir.ErrMemory},
		{"foreign return", foreign, []byte("a\x00"), ErrForeignReturn},
		{"step limit", spin, []byte("a\x00"), cir.ErrStepLimit},
		{"out-of-bounds read", scan, []byte("ab\x00"), cir.ErrMemory},
	} {
		r, err := RunConcrete(tc.f, tc.in, 1000)
		if r.Kind != vocab.Invalid || !errors.Is(err, tc.want) {
			t.Errorf("%s: RunConcrete = %v, %v; want UB, %v", tc.name, r, err, tc.want)
		}
	}

	for _, tc := range []struct {
		name string
		f    *cir.Func
		in   []*bv.Term
		want error
	}{
		{"null input", deref, nil, ErrNullDeref},
		{"foreign return", foreign, strsolver.New(tin, "s", 1).Bytes, ErrForeignReturn},
		{"out-of-bounds read", scan, []*bv.Term{tin.Byte('a'), tin.Byte('b'), tin.Byte(0)}, ErrOOB},
	} {
		e := &Engine{In: tin}
		paths, err := e.RunOn(tc.f, tc.in)
		if err != nil || len(paths) != 1 {
			t.Fatalf("%s: RunOn = %d paths, %v", tc.name, len(paths), err)
		}
		lp, err := ClassifyPath(paths[0])
		if lp.Kind != vocab.Invalid || !errors.Is(err, tc.want) {
			t.Errorf("%s: ClassifyPath = %v, %v; want Invalid, %v", tc.name, lp.Kind, err, tc.want)
		}
	}
}

// concreteBattery is, per corpus loop, the strings a warm runner is held to:
// "", every one-byte string, and two- and four-byte strings over the loop's
// bytes.
func concreteBattery(f *cir.Func) [][]byte {
	ins := [][]byte{{0}}
	for c := 1; c < 256; c++ {
		ins = append(ins, []byte{byte(c), 0})
	}
	bs := loopBytes(f)
	for i, a := range bs {
		b := bs[(i+1)%len(bs)]
		ins = append(ins, []byte{a, b, 0}, []byte{a, a, b, b, 0})
	}
	return ins
}

func TestWarmRunnerDoesNotAllocate(t *testing.T) {
	for _, l := range loopdb.Corpus() {
		f, err := l.Lower()
		if err != nil {
			t.Fatal(err)
		}
		var ins [][]byte
		for _, in := range append(concreteBattery(f), nil) {
			// A foreign return formats its error.
			if _, err := RunConcrete(f, in, 0); !errors.Is(err, ErrForeignReturn) {
				ins = append(ins, in)
			}
		}
		run := NewRunner(f)
		if allocs := testing.AllocsPerRun(5, func() {
			for _, in := range ins {
				run.Run(in, 0)
			}
		}); allocs != 0 {
			t.Errorf("%s: a warm runner allocates %.1f times per battery", l.Name, allocs)
		}
	}
}

// BenchmarkRunConcrete is one warm run of a corpus loop: each op is the next
// (loop, input) pair of every corpus loop's concreteBattery.
func BenchmarkRunConcrete(b *testing.B) {
	type job struct {
		run *Runner
		in  []byte
	}
	var jobs []job
	for _, l := range loopdb.Corpus() {
		f, err := l.Lower()
		if err != nil {
			b.Fatal(err)
		}
		run := NewRunner(f)
		for _, in := range concreteBattery(f) {
			jobs = append(jobs, job{run, in})
			run.Run(in, 0)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		j := jobs[i%len(jobs)]
		runSink, _ = j.run.Run(j.in, 0)
	}
}

var runSink vocab.Result
