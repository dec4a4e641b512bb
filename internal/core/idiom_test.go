package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"stringloops/internal/cc"
	"stringloops/internal/cegis"
	"stringloops/internal/cir"
	"stringloops/internal/cstr"
	"stringloops/internal/loopdb"
	"stringloops/internal/vocab"
)

// lowerSummaryC lowers the one function of a summary's C.
func lowerSummaryC(t *testing.T, c string) *cir.Func {
	t.Helper()
	file, err := cc.Parse(c)
	if err != nil {
		t.Fatalf("%v:\n%s", err, c)
	}
	g, err := cir.LowerFunc(file.Funcs[0], file)
	if err != nil {
		t.Fatalf("%v:\n%s", err, c)
	}
	return g
}

// runPtr runs a char *f(char *) function on buf (nil = NULL): the offset
// into buf, "NULL", or the fault.
func runPtr(f *cir.Func, buf []byte) string {
	mem := cir.NewMemory()
	arg, obj := cir.NullVal(), -1
	if buf != nil {
		obj = mem.AllocData(append([]byte{}, buf...))
		arg = cir.PtrVal(obj, 0)
	}
	res, err := cir.Exec(f, []cir.CVal{arg}, mem, 0)
	switch {
	case err != nil:
		return "fault"
	case res.Ret.IsNull():
		return "NULL"
	case res.Ret.IsPtr && res.Ret.Obj == obj:
		return fmt.Sprintf("s+%d", res.Ret.Off)
	}
	return "foreign pointer"
}

// checkRewrite runs the pass and cross-checks the replacement against the
// original on a battery of inputs.
func checkRewrite(t *testing.T, src, name string) *IdiomRewrite {
	t.Helper()
	r, err := RewriteIdiom(src, name, time.Minute)
	if err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	f, err := lowerNamed(src, name)
	if err != nil {
		t.Fatal(err)
	}
	g := lowerSummaryC(t, r.C)
	if loops := cir.FindLoops(g); len(loops) != 0 {
		t.Fatalf("replacement still has %d loops:\n%s", len(loops), r.C)
	}
	if g.String() != r.RewrittenIR {
		t.Fatalf("RewrittenIR is not the lowered C:\n%s", r.RewrittenIR)
	}
	inputs := []string{"", " ", "abc", "  x", "::", "a:b", "123", "a1b2", "///", "x/y/z", "hello world"}
	for _, in := range inputs {
		buf := cstr.Terminate(in)
		if orig, repl := runPtr(f, buf), runPtr(g, buf); orig != repl {
			t.Fatalf("on %q: original %s, replacement %s (summary %s)", in, orig, repl, r.Summary)
		}
	}
	if orig, repl := runPtr(f, nil), runPtr(g, nil); orig != repl {
		t.Fatalf("NULL: original %s, replacement %s", orig, repl)
	}
	return r
}

func TestRewriteSpanLoop(t *testing.T) {
	r := checkRewrite(t, `
char *skip(char *s) {
  while (*s == ' ' || *s == '\t')
    s++;
  return s;
}`, "skip")
	if !strings.Contains(r.C, `strspn(s, " \t")`) && !strings.Contains(r.C, `strspn(s, "\t ")`) {
		t.Errorf("C %s", r.C)
	}
}

func TestRewriteCspnLoop(t *testing.T) {
	checkRewrite(t, `
char *find(char *s) {
  while (*s && *s != ':')
    s++;
  return s;
}`, "find")
}

func TestRewriteStrchrLoop(t *testing.T) {
	checkRewrite(t, `
char *find(char *s) {
  while (*s && *s != '@')
    s++;
  return *s == '@' ? s : 0;
}`, "find")
}

func TestRewriteStrlenLoop(t *testing.T) {
	checkRewrite(t, `
char *end(char *s) {
  while (*s)
    s++;
  return s;
}`, "end")
}

func TestRewriteNullGuardedLoop(t *testing.T) {
	r := checkRewrite(t, `
char *skip(char *s) {
  char *p;
  for (p = s; p && *p == '/'; p++)
    ;
  return p;
}`, "skip")
	if !strings.Contains(r.C, "if (s == NULL)") {
		t.Errorf("C %s", r.C)
	}
}

func TestRewriteRawmemchrLoop(t *testing.T) {
	// The '/' inputs in checkRewrite exercise the found case; absent
	// characters are UB in both forms.
	checkRewrite(t, `
char *raw(char *s) {
  while (*s != '/')
    s++;
  return s;
}`, "raw")
}

func TestRewriteDigitLoopExpandsMeta(t *testing.T) {
	r := checkRewrite(t, `
char *skipnum(char *s) {
  while (*s >= '0' && *s <= '9')
    s++;
  return s;
}`, "skipnum")
	// The C must carry the expanded digit set literal.
	if !strings.Contains(r.C, `"0123456789"`) {
		t.Fatalf("digit set not expanded:\n%s", r.C)
	}
}

func TestRewriteBackwardLoopRefused(t *testing.T) {
	_, err := RewriteIdiom(`
char *rtrim(char *s) {
  char *p = s + strlen(s) - 1;
  while (p >= s && *p == ' ')
    p--;
  return p;
}`, "rtrim", time.Minute)
	if !errors.Is(err, ErrNoLoopFreeForm) {
		t.Fatalf("err = %v, want no-loop-free-form", err)
	}
}

func TestRewriteUnsummarisableRefused(t *testing.T) {
	_, err := RewriteIdiom(`
char *mid(char *s) {
  int n = 0;
  while (s[n]) n++;
  return s + n / 2;
}`, "mid", 2*time.Second)
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want not-found", err)
	}
}

// TestSummaryCProvenOnCorpus proves the shipped C of every
// synthesised-corpus summary equal to its loop, and runs the pass on each:
// the summaries without reverse are installed loop-free, the rest refused.
func TestSummaryCProvenOnCorpus(t *testing.T) {
	var proven, installed, refused int
	for _, l := range loopdb.Corpus() {
		if !l.ExpectSynth || l.WantProgram == "" {
			continue
		}
		p, err := vocab.Decode(l.WantProgram)
		if err != nil {
			t.Fatalf("%s: %v", l.Name, err)
		}
		f, err := l.Lower()
		if err != nil {
			t.Fatal(err)
		}
		c := vocab.CompileToC(p, f.Name+"_summary")
		ok, cex, err := cegis.VerifyFunctionEquivalence(f, lowerSummaryC(t, c), 3, nil)
		if err != nil || !ok {
			t.Errorf("%s: summary C not proven (ok=%v, cex %q, err %v):\n%s", l.Name, ok, cex, err, c)
			continue
		}
		proven++

		r, err := RewriteIdiom(l.Source, l.FuncName, time.Minute)
		if p.Uses(vocab.OpReverse) {
			if !errors.Is(err, ErrNoLoopFreeForm) {
				t.Errorf("%s: reverse summary: err = %v, want no-loop-free-form", l.Name, err)
			}
			refused++
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", l.Name, err)
			continue
		}
		if loops := cir.FindLoops(lowerSummaryC(t, r.C)); len(loops) != 0 {
			t.Errorf("%s: replacement has %d loops:\n%s", l.Name, len(loops), r.C)
		}
		installed++
	}
	if proven != 77 || installed != 72 || refused != 5 {
		t.Errorf("proven %d, installed %d, refused %d; want 77, 72, 5", proven, installed, refused)
	}
}
