package memoryless

import (
	"errors"
	"strings"
	"testing"

	"stringloops/internal/cc"
	"stringloops/internal/cir"
	"stringloops/internal/loopdb"
	"stringloops/internal/symex"
)

func lower(t *testing.T, src string) *cir.Func {
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

func verify(t *testing.T, src string) Report {
	t.Helper()
	return Verify(lower(t, src), 3)
}

func TestWhitespaceSkipIsMemoryless(t *testing.T) {
	r := verify(t, `
char *skip(char *s) {
  while (*s == ' ' || *s == '\t')
    s++;
  return s;
}`)
	if !r.Memoryless {
		t.Fatalf("should be memoryless: %s", r.Reason)
	}
	if r.Spec.Dir != Forward || r.Spec.Miss != MissEnd {
		t.Fatalf("spec = %+v", r.Spec)
	}
	// X is the exit set: everything except space and tab.
	if r.Spec.X[' '] || r.Spec.X['\t'] || !r.Spec.X['a'] {
		t.Fatalf("exit set wrong")
	}
}

func TestStrcspnStyleIsMemoryless(t *testing.T) {
	r := verify(t, `
char *find(char *s) {
  while (*s && *s != ':')
    s++;
  return s;
}`)
	if !r.Memoryless || r.Spec.Dir != Forward {
		t.Fatalf("strcspn-style: %+v %s", r.Spec, r.Reason)
	}
	if !r.Spec.X[':'] || r.Spec.X['a'] {
		t.Fatal("exit set should be {':'}")
	}
}

func TestStrchrStyleNullMiss(t *testing.T) {
	r := verify(t, `
char *find(char *s) {
  while (*s) {
    if (*s == '@')
      return s;
    s++;
  }
  return 0;
}`)
	if !r.Memoryless || r.Spec.Miss != MissNull {
		t.Fatalf("strchr-style: %+v %s", r.Spec, r.Reason)
	}
}

func TestRawmemchrStyleUnsafeMiss(t *testing.T) {
	r := verify(t, `
char *rawfind(char *s) {
  while (*s != '/')
    s++;
  return s;
}`)
	if !r.Memoryless || r.Spec.Miss != MissUnsafe {
		t.Fatalf("rawmemchr-style: %+v %s", r.Spec, r.Reason)
	}
}

func TestBackwardLoopIsMemoryless(t *testing.T) {
	r := verify(t, `
char *rtrim(char *s) {
  char *p = s;
  while (*p) p++;
  p--;
  while (p >= s && *p == ' ')
    p--;
  return p;
}`)
	if !r.Memoryless {
		t.Fatalf("backward loop: %s", r.Reason)
	}
	if r.Spec.Dir != Backward || r.Spec.Miss != MissStartMinus1 {
		t.Fatalf("spec = dir %v miss %v", r.Spec.Dir, r.Spec.Miss)
	}
}

func TestIsdigitLoopConservativelyRejected(t *testing.T) {
	// §3.3: "Invalid loops typically ... change the read value by some
	// constant offset (e.g., in tolower and isdigit)" — ctype calls fail the
	// syntactic conditions even though synthesis handles them via
	// meta-characters.
	r := verify(t, `
char *skipnum(char *s) {
  while (isdigit(*s))
    s++;
  return s;
}`)
	if r.Memoryless {
		t.Fatal("isdigit loop must be conservatively rejected")
	}
	if !strings.Contains(r.Reason, "isdigit") {
		t.Fatalf("reason = %q", r.Reason)
	}
}

func TestDigitRangeComparisonAccepted(t *testing.T) {
	// Direct character comparisons against constants are fine (Definition 1
	// allows constant characters in character comparisons).
	r := verify(t, `
char *skipnum(char *s) {
  while (*s >= '0' && *s <= '9')
    s++;
  return s;
}`)
	if !r.Memoryless {
		t.Fatalf("range-comparison digit loop: %s", r.Reason)
	}
}

func TestConstantOffsetIdiomRejected(t *testing.T) {
	r := verify(t, `
char *skipnum(char *s) {
  while ((unsigned char)(*s - '0') < 10)
    s++;
  return s;
}`)
	if r.Memoryless {
		t.Fatal("(*s - '0') < 10 idiom must be conservatively rejected")
	}
	if !strings.Contains(r.Reason, "constant offset") {
		t.Fatalf("reason = %q", r.Reason)
	}
}

func TestTolowerLoopRejectedSyntactically(t *testing.T) {
	r := verify(t, `
char *low(char *s) {
  while (tolower(*s) == 'a')
    s++;
  return s;
}`)
	if r.Memoryless {
		t.Fatal("tolower loop must be rejected")
	}
	if !strings.Contains(r.Reason, "tolower") {
		t.Fatalf("reason = %q", r.Reason)
	}
}

func TestConstantOffsetReadRejected(t *testing.T) {
	// Reads s[i] and s[i+1]: not of the form p0+i only.
	r := verify(t, `
char *pairs(char *s) {
  int i = 0;
  while (s[i] && s[i+1] == s[i])
    i++;
  return s + i;
}`)
	if r.Memoryless {
		t.Fatal("two-position read must be rejected")
	}
}

func TestStrideTwoRejected(t *testing.T) {
	r := verify(t, `
char *even(char *s) {
  int i = 0;
  while (s[i] == 'a')
    i += 2;
  return s + i;
}`)
	if r.Memoryless {
		t.Fatal("stride-2 loop must be rejected")
	}
}

func TestMemoryfulLoopRejected(t *testing.T) {
	// Remembers the first character: decisions depend on more than the
	// current character.
	r := verify(t, `
char *runof(char *s) {
  int i = 1;
  if (!*s) return s;
  while (s[i] == s[0])
    i++;
  return s + i;
}`)
	if r.Memoryless {
		t.Fatal("memoryful loop must be rejected")
	}
}

func TestHalfReturnRejected(t *testing.T) {
	r := verify(t, `
char *mid(char *s) {
  char *p = s;
  int n = 0;
  while (p[n]) n++;
  return s + n / 2;
}`)
	if r.Memoryless {
		t.Fatal("non-cursor return must be rejected")
	}
}

func TestIterationCountConstantRejected(t *testing.T) {
	// Stops after 5 iterations: compares i against a constant other than
	// zero/len (the paper's typical invalid-loop pattern).
	r := verify(t, `
char *five(char *s) {
  int i = 0;
  while (s[i] && i < 5)
    i++;
  return s + i;
}`)
	if r.Memoryless {
		t.Fatal("bounded-count loop must be rejected")
	}
}

func TestVerifyTiming(t *testing.T) {
	r := verify(t, `
char *skip(char *s) {
  while (*s == ' ')
    s++;
  return s;
}`)
	if !r.Memoryless {
		t.Fatalf("reason: %s", r.Reason)
	}
	// The paper reports under 3 seconds per loop on its stack; ours must be
	// well inside that.
	if r.Elapsed.Seconds() > 3 {
		t.Fatalf("verification took %v", r.Elapsed)
	}
}

func TestInferSpecDirectly(t *testing.T) {
	f := lower(t, `
char *find(char *s) {
  while (*s && *s != 'q')
    s++;
  return s;
}`)
	spec, reason := InferSpec(f)
	if spec == nil {
		t.Fatalf("no spec: %s", reason)
	}
	if !spec.X['q'] {
		t.Fatal("q must be in the exit set")
	}
	for _, c := range []byte{'a', ' ', '0'} {
		if spec.X[c] {
			t.Fatalf("%q must not be in the exit set", c)
		}
	}
}

func TestPrescreenAcceptsPredicates(t *testing.T) {
	f := lower(t, `
char *skipnum(char *s) {
  while (isdigit(*s) || isspace(*s))
    s++;
  return s;
}`)
	if reason := Prescreen(f); reason != "" {
		t.Fatalf("prescreen rejected predicate calls: %s", reason)
	}
}

func TestNonLoopSignatureRejected(t *testing.T) {
	f := lower(t, `int f(int x) { return x; }`)
	if r := Verify(f, 3); r.Memoryless {
		t.Fatal("non-loopFunction must be rejected")
	}
}

// TestAnalysesLeaveTheIRUnchanged: loop detection, the filter pipeline and
// the §3.3 syntactic conditions only read a function, on every corpus loop
// as lowered and after Mem2Reg.
func TestAnalysesLeaveTheIRUnchanged(t *testing.T) {
	for _, l := range loopdb.Corpus() {
		f, err := l.Lower()
		if err != nil {
			t.Fatal(err)
		}
		for _, promote := range []bool{false, true} {
			if promote {
				cir.Mem2Reg(f)
			}
			want := f.String()
			cir.FindLoops(f)
			cir.ClassifyLoops([]*cir.Func{f})
			SyntacticConditions(f)
			if got := f.String(); got != want {
				t.Fatalf("%s (SSA %v): the analyses changed the function:\n%s\nwas\n%s", l.Name, promote, got, want)
			}
		}
	}
}

// TestUnsupportedLoopKeepsSymexSentinel: the bounded check wraps a run
// error, so the caller sees both this package's sentinel and symex's.
func TestUnsupportedLoopKeepsSymexSentinel(t *testing.T) {
	f := lower(t, `
char *m(char *s) {
  int h = 1;
  while (*s) { h = h * *s; s++; }
  if (h == 7) return s;
  return 0;
}`)
	_, _, err := checkEquivalence(f, &Spec{}, 3, VerifyOptions{})
	if !errors.Is(err, ErrUnsupported) || !errors.Is(err, symex.ErrUnsupported) {
		t.Fatalf("err = %v, want both ErrUnsupported and symex.ErrUnsupported", err)
	}
	const want = "memoryless: loop not supported: symex: unsupported operation: symbolic multiplication"
	if err.Error() != want {
		t.Errorf("err = %q, want %q", err, want)
	}
}
