package cegis

import (
	"errors"
	"testing"
	"time"

	"stringloops/internal/cc"
	"stringloops/internal/cir"
	"stringloops/internal/cstr"
	"stringloops/internal/symex"
	"stringloops/internal/vocab"
)

func lowerLoop(t *testing.T, src string) *cir.Func {
	t.Helper()
	file, err := cc.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	f, err := cir.LowerFunc(file.Funcs[0], file)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	return f
}

// synth runs synthesis with a vocabulary given as letters and returns the
// program (failing the test if not found).
func synth(t *testing.T, src, letters string, maxSize int, timeout time.Duration) vocab.Program {
	t.Helper()
	f := lowerLoop(t, src)
	var v vocab.Vocabulary
	if letters == "" {
		v = vocab.FullVocabulary
	} else {
		var err error
		v, err = vocab.VocabularyOf(letters)
		if err != nil {
			t.Fatal(err)
		}
	}
	out, err := Synthesize(f, Options{Vocabulary: v, MaxProgSize: maxSize, Timeout: timeout})
	if err != nil {
		t.Fatalf("synthesize: %v", err)
	}
	if !out.Found {
		t.Fatalf("no program found for:\n%s\nstats: %+v", src, out.Stats)
	}
	// Cross-check on a battery of concrete strings.
	checkAgainstLoop(t, f, out.Program)
	return out.Program
}

// checkAgainstLoop compares the synthesised program with the loop on many
// concrete strings (longer than the bounded verification, exercising the
// small-model claim of §3).
func checkAgainstLoop(t *testing.T, f *cir.Func, prog vocab.Program) {
	t.Helper()
	inputs := []string{
		"", " ", "  ", "\t \t", "a", "ab", " a b ", "abc:def", "::", "a:",
		"123", "12x", "xyz", "   leading", "trailing   ", "a,b;c", "\n\n",
		"hello world", "0", "aaaaaaaaab", " \t\n mixed \t", "/path/to/x",
	}
	for _, in := range inputs {
		buf := cstr.Terminate(in)
		want, _ := symex.RunConcrete(f, buf, 0)
		got := vocab.Run(prog, buf)
		if got != want {
			t.Fatalf("program %q disagrees with loop on %q: got %+v, want %+v",
				prog.Encode(), in, got, want)
		}
	}
	// NULL input.
	want, _ := symex.RunConcrete(f, nil, 0)
	if got := vocab.Run(prog, nil); got != want {
		t.Fatalf("program %q disagrees on NULL: got %+v want %+v", prog.Encode(), got, want)
	}
}

func TestSynthesizeFigure1(t *testing.T) {
	// The paper's bash loop: needs the NULL guard plus strspn — "ZFP \t\0F".
	prog := synth(t, `
#define whitespace(c) (((c) == ' ') || ((c) == '\t'))
char* loopFunction(char* line) {
  char *p;
  for (p = line; p && *p && whitespace (*p); p++)
    ;
  return p;
}`, "PZF", 8, time.Minute)
	if enc := prog.Encode(); enc != "ZFP \t\x00F" && enc != "ZFP\t \x00F" {
		t.Errorf("unexpected encoding %q (still verified equivalent)", enc)
	}
}

func TestSynthesizeStrcspnStyle(t *testing.T) {
	// Stop at ':' — strcspn(":"); the loop has no NULL guard, so Original
	// faults on NULL and so must the program (no ZF prefix).
	prog := synth(t, `
char *find(char *s) {
  while (*s && *s != ':')
    s++;
  return s;
}`, "NF", 5, time.Minute)
	if prog.Encode() != "N:\x00F" {
		t.Errorf("encoding %q, want N:\\0F", prog.Encode())
	}
}

func TestSynthesizeStrspnTwoChars(t *testing.T) {
	prog := synth(t, `
char *skip(char *s) {
  while (*s == 'a' || *s == 'b')
    s++;
  return s;
}`, "PF", 6, time.Minute)
	if prog.Encode() != "Pab\x00F" {
		t.Errorf("encoding %q, want Pab\\0F", prog.Encode())
	}
}

func TestSynthesizeStrlenStyle(t *testing.T) {
	// The "EF" program of §4.2.2: iterate to the terminator.
	prog := synth(t, `
char *end(char *s) {
  while (*s)
    s++;
  return s;
}`, "EF", 2, time.Minute)
	if prog.Encode() != "EF" {
		t.Errorf("encoding %q, want EF", prog.Encode())
	}
}

func TestSynthesizeWithMetaCharacter(t *testing.T) {
	// Skipping digits needs the digit meta-character with a single-member
	// set (ten literal members would not fit in the size budget).
	prog := synth(t, `
char *skipnum(char *s) {
  while (*s >= '0' && *s <= '9')
    s++;
  return s;
}`, "PF", 5, time.Minute)
	if prog.Encode() != "P\a\x00F" {
		t.Errorf("encoding %q, want P<meta-digit>\\0F", prog.Encode())
	}
}

func TestSynthesizeIsdigitCall(t *testing.T) {
	prog := synth(t, `
char *skipnum(char *s) {
  while (isdigit(*s))
    s++;
  return s;
}`, "PF", 5, time.Minute)
	if prog.Encode() != "P\a\x00F" {
		t.Errorf("encoding %q, want P<meta-digit>\\0F", prog.Encode())
	}
}

func TestSynthesizeRawmemchrStyle(t *testing.T) {
	// No terminator check: undefined behaviour when '/' is absent — only
	// rawmemchr matches that behaviour (strchr would return NULL).
	prog := synth(t, `
char *rawfind(char *s) {
  while (*s != '/')
    s++;
  return s;
}`, "MF", 4, time.Minute)
	if prog.Encode() != "M/F" {
		t.Errorf("encoding %q, want M/F", prog.Encode())
	}
}

func TestSynthesizeStrchrStyleReturnsNull(t *testing.T) {
	// Returns NULL when not found: this is strchr, not strcspn.
	prog := synth(t, `
char *find(char *s) {
  while (*s) {
    if (*s == '@')
      return s;
    s++;
  }
  return 0;
}`, "CF", 4, time.Minute)
	if prog.Encode() != "C@F" {
		t.Errorf("encoding %q, want C@F", prog.Encode())
	}
}

func TestSynthesizeBackwardLoop(t *testing.T) {
	// Definition 2 backward loop: scan back over trailing spaces, returning
	// the last non-space character (or s-1 when the string is all spaces).
	// Summarised as reverse + strspn — the pairing §2.2 motivates.
	prog := synth(t, `
char *rtrim(char *s) {
  char *p = s;
  while (*p) p++;
  p--;
  while (p >= s && *p == ' ')
    p--;
  return p;
}`, "VPXIEF", 8, 2*time.Minute)
	if !prog.Uses(vocab.OpReverse) {
		t.Errorf("expected reverse in %q (%s)", prog.Encode(), prog.String())
	}
	if prog.EncodedSize() != 5 {
		t.Errorf("expected the size-5 program VP' '\\0F, got %q", prog.Encode())
	}
}

func TestSynthesizeIdentity(t *testing.T) {
	prog := synth(t, `
char *id(char *s) {
  return s;
}`, "F", 1, time.Minute)
	if prog.Encode() != "F" {
		t.Errorf("encoding %q, want F", prog.Encode())
	}
}

func TestIterativeDeepeningFindsSmallest(t *testing.T) {
	// With a generous max size the smallest program must still be found
	// first (iterative deepening, §4.2.2).
	prog := synth(t, `
char *end(char *s) {
  while (*s)
    s++;
  return s;
}`, "EIFPN", 6, time.Minute)
	if prog.EncodedSize() != 2 {
		t.Errorf("smallest program has size 2, got %q (size %d)", prog.Encode(), prog.EncodedSize())
	}
}

func TestSynthesizeTimeout(t *testing.T) {
	// An unsummarisable loop (returns the middle of the string) must time
	// out rather than produce a wrong program.
	f := lowerLoop(t, `
char *mid(char *s) {
  char *p = s;
  int n = 0;
  while (p[n]) n++;
  return s + n / 2;
}`)
	out, err := Synthesize(f, Options{Timeout: 2 * time.Second, MaxProgSize: 4})
	if err != nil && !errors.Is(err, ErrTimeout) {
		t.Fatalf("unexpected error: %v", err)
	}
	if out.Found {
		t.Fatalf("must not synthesise the unsummarisable loop; got %q", out.Program.Encode())
	}
}

func TestUnsupportedLoopRejected(t *testing.T) {
	// A loop that writes through the pointer is outside the engine's subset
	// (such loops are filtered before synthesis in the pipeline).
	f := lowerLoop(t, `
char *w(char *s) {
  while (*s) { *s = ' '; s++; }
  return s;
}`)
	_, err := Synthesize(f, Options{Timeout: time.Second})
	if err == nil {
		t.Fatal("expected unsupported-loop error")
	}
}

// mulLoop multiplies by a symbolic byte, which symbolic execution does not
// model.
const mulLoop = `
char *m(char *s) {
  int h = 1;
  while (*s) { h = h * *s; s++; }
  if (h == 7) return s;
  return 0;
}`

// TestUnsupportedLoopKeepsSymexSentinel: a run error is wrapped, not
// flattened, so the caller sees both this package's sentinel and symex's.
func TestUnsupportedLoopKeepsSymexSentinel(t *testing.T) {
	_, err := Synthesize(lowerLoop(t, mulLoop), Options{Timeout: time.Second})
	if !errors.Is(err, ErrUnsupportedLoop) || !errors.Is(err, symex.ErrUnsupported) {
		t.Fatalf("err = %v, want both ErrUnsupportedLoop and symex.ErrUnsupported", err)
	}
	const want = "cegis: loop not supported by symbolic execution: symex: unsupported operation: symbolic multiplication"
	if err.Error() != want {
		t.Errorf("err = %q, want %q", err, want)
	}
}

func TestVerifyEquivalenceStandalone(t *testing.T) {
	f := lowerLoop(t, `
char *find(char *s) {
  while (*s && *s != ':')
    s++;
  return s;
}`)
	good, _ := vocab.Decode("N:\x00F")
	ok, _, err := VerifyEquivalence(f, good, 3)
	if err != nil || !ok {
		t.Fatalf("good program rejected: ok=%v err=%v", ok, err)
	}
	bad, _ := vocab.Decode("N;\x00F")
	ok, cex, err := VerifyEquivalence(f, bad, 3)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("bad program accepted")
	}
	if cex == nil {
		t.Fatal("no counterexample produced")
	}
	// The counterexample must actually distinguish them.
	want, _ := symex.RunConcrete(f, cex, 0)
	if vocab.Run(bad, cex) == want {
		t.Fatalf("counterexample %q does not distinguish", cex)
	}
}

func TestCounterexamplesAccumulate(t *testing.T) {
	f := lowerLoop(t, `
char *skip(char *s) {
  while (*s == 'q')
    s++;
  return s;
}`)
	s, err := New(f, Options{Vocabulary: mustVocab(t, "PF"), MaxProgSize: 4, Timeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.Synthesize()
	if err != nil || !out.Found {
		t.Fatalf("synthesis failed: %v %+v", err, out)
	}
	if out.Stats.Counterexamples == 0 {
		t.Error("expected counterexamples to be generated")
	}
	if len(s.cexs) != out.Stats.Counterexamples {
		t.Error("counterexample accounting mismatch")
	}
}

func mustVocab(t *testing.T, letters string) vocab.Vocabulary {
	t.Helper()
	v, err := vocab.VocabularyOf(letters)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestSynthesizeFullVocabularySmall(t *testing.T) {
	// End-to-end with the complete Table 1 vocabulary on a small loop.
	prog := synth(t, `
char *find(char *s) {
  while (*s && *s != '=')
    s++;
  return s;
}`, "", 4, 2*time.Minute)
	if prog.Encode() != "N=\x00F" {
		t.Errorf("encoding %q, want N=\\0F", prog.Encode())
	}
}
