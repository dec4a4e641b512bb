package core

import (
	"errors"
	"strings"
	"testing"
	"time"
)

const figure1 = `
#define whitespace(c) (((c) == ' ') || ((c) == '\t'))
char* loopFunction(char* line) {
  char *p;
  for (p = line; p && *p && whitespace (*p); p++)
    ;
  return p;
}`

func TestSummarizeFigure1(t *testing.T) {
	s, err := Summarize(figure1, "", Options{Timeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if s.Encoded != "ZFP\t \x00F" && s.Encoded != "ZFP \t\x00F" {
		t.Errorf("encoded %q", s.Encoded)
	}
	if !s.Memoryless || s.Direction != "forward" {
		t.Errorf("memoryless report: %v %s", s.Memoryless, s.Direction)
	}
	if !strings.Contains(s.C, "strspn") {
		t.Errorf("C output: %s", s.C)
	}
	off, found := s.Run("  \tx")
	if !found || off != 3 {
		t.Errorf("Run = %d,%v", off, found)
	}
	if _, found := s.Run(""); !found {
		t.Error("empty string should return a pointer")
	}
}

func TestSummarizeNullGuardWithoutDefinition(t *testing.T) {
	// NULL comes from a header the front end does not read; it is
	// predefined as <stddef.h> defines it.
	src := `#include <string.h>
char *skip(char *s) {
  if (s == NULL)
    return NULL;
  while (*s == ' ')
    s++;
  return s;
}`
	s, err := Summarize(src, "skip", Options{Timeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if s.Encoded != "ZFP \x00F" {
		t.Errorf("encoded %q", s.Encoded)
	}
	if off, found := s.Run("  x"); !found || off != 2 {
		t.Errorf("Run = %d,%v", off, found)
	}
}

func TestSummarizeNamedFunction(t *testing.T) {
	src := `
char *first(char *s) { while (*s == 'a') s++; return s; }
char *second(char *s) { while (*s == 'b') s++; return s; }`
	s, err := Summarize(src, "second", Options{Timeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if s.Encoded != "Pb\x00F" {
		t.Errorf("encoded %q", s.Encoded)
	}
	if _, err := Summarize(src, "missing", Options{}); err == nil {
		t.Error("missing function must error")
	}
}

func TestSummarizeNoLoopFunction(t *testing.T) {
	_, err := Summarize(`int f(int x) { return x; }`, "", Options{})
	if !errors.Is(err, ErrNoLoopFunction) {
		t.Fatalf("err = %v", err)
	}
}

func TestSummarizeNotFound(t *testing.T) {
	_, err := Summarize(`
char *mid(char *s) {
  int n = 0;
  while (s[n]) n++;
  return s + n / 2;
}`, "", Options{Timeout: 2 * time.Second, MaxProgramSize: 4})
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestRequireMemoryless(t *testing.T) {
	src := `
char *skipnum(char *s) {
  while (isdigit(*s))
    s++;
  return s;
}`
	// Without the flag the loop synthesises (meta-characters).
	if _, err := Summarize(src, "", Options{Timeout: time.Minute}); err != nil {
		t.Fatalf("plain summarise: %v", err)
	}
	// With the flag the conservative §3.3 rejection surfaces.
	_, err := Summarize(src, "", Options{Timeout: time.Minute, RequireMemoryless: true})
	if !errors.Is(err, ErrNotMemoryless) {
		t.Fatalf("err = %v", err)
	}
}

func TestVerifyMemoryless(t *testing.T) {
	r, err := VerifyMemoryless(figure1, "loopFunction")
	if err != nil {
		t.Fatal(err)
	}
	if !r.Memoryless || r.Direction != "forward" {
		t.Fatalf("report %+v", r)
	}
	r, err = VerifyMemoryless(`
char *bad(char *s) {
  int i = 0;
  while (s[i] && i < 5) i++;
  return s + i;
}`, "")
	if err != nil {
		t.Fatal(err)
	}
	if r.Memoryless || r.Reason == "" {
		t.Fatalf("report %+v", r)
	}
}

func TestCheckEquivalence(t *testing.T) {
	src := `char *f(char *s) { while (*s == 'x') s++; return s; }`
	ok, _, err := CheckEquivalence(src, "f", "Px\x00F", 3)
	if err != nil || !ok {
		t.Fatalf("good summary: ok=%v err=%v", ok, err)
	}
	ok, cex, err := CheckEquivalence(src, "f", "Py\x00F", 3)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("wrong summary accepted")
	}
	if !strings.ContainsAny(cex, "xy") && cex == "" {
		t.Logf("counterexample %q (any distinguishing string is fine)", cex)
	}
}

func TestFindCandidates(t *testing.T) {
	cands, err := FindCandidates(`
char *good(char *s) { while (*s == ' ') s++; return s; }
void bad(char *s) { while (*s) { *s = 'x'; s++; } }
`)
	if err != nil {
		t.Fatal(err)
	}
	byFn := map[string]string{}
	for _, c := range cands {
		byFn[c.Function] = c.Stage
	}
	if byFn["good"] != "candidate" || byFn["bad"] != "array-write" {
		t.Fatalf("stages %v", byFn)
	}
}

func TestCoveringInputs(t *testing.T) {
	s, err := Summarize(`
char *find(char *s) {
  while (*s && *s != '@')
    s++;
  return *s == '@' ? s : 0;
}`, "", Options{Timeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	tests := s.CoveringInputs(3)
	if len(tests) == 0 {
		t.Fatal("no tests generated")
	}
	sawNull, sawPtr := false, false
	for _, tc := range tests {
		off, found := s.Run(tc.Input)
		if tc.Null {
			sawNull = true
			if found {
				t.Errorf("%q: expected NULL", tc.Input)
			}
		} else {
			sawPtr = true
			if !found || off != tc.Offset {
				t.Errorf("%q: offset %d/%v, want %d", tc.Input, off, found, tc.Offset)
			}
		}
	}
	if !sawNull || !sawPtr {
		t.Fatalf("tests must cover both the hit and the miss: %+v", tests)
	}
}

func TestCheckRefactoring(t *testing.T) {
	src := `
char *orig(char *s) {
  while (*s == '.')
    s++;
  return s;
}
char *good(char *s) {
  return s + strspn(s, ".");
}
char *bad(char *s) {
  return s + strcspn(s, ".");
}`
	ok, _, err := CheckRefactoring(src, "orig", "good", 3)
	if err != nil || !ok {
		t.Fatalf("good refactoring: ok=%v err=%v", ok, err)
	}
	ok, cex, err := CheckRefactoring(src, "orig", "bad", 3)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("bad refactoring accepted")
	}
	if cex == "" {
		t.Log("empty counterexample string (the empty input distinguishes only when non-dot-initial)")
	}
	if _, _, err := CheckRefactoring(src, "orig", "missing", 3); err == nil {
		t.Fatal("missing function must error")
	}
}

func TestSummarizeEmitValidateRoundTrip(t *testing.T) {
	// Close the full loop: summarise, emit C, re-parse the emitted C, and
	// prove it equivalent to the original — for a forward and a backward
	// loop.
	srcs := []string{
		`char *orig(char *s) {
  while (*s == '.' || *s == '/')
    s++;
  return s;
}`,
		`char *orig(char *s) {
  char *p = s + strlen(s) - 1;
  while (p >= s && *p == '/')
    p--;
  return p;
}`,
	}
	for _, src := range srcs {
		summary, err := Summarize(src, "orig", Options{Timeout: time.Minute})
		if err != nil {
			t.Fatalf("summarise: %v", err)
		}
		patched := src + "\n" + summary.C
		ok, cex, err := CheckRefactoring(patched, "orig", "orig_summary", 3)
		if err != nil {
			t.Fatalf("validate %q: %v\n%s", summary.Encoded, err, summary.C)
		}
		if !ok {
			t.Fatalf("emitted C not equivalent (cex %q):\n%s", cex, summary.C)
		}
	}
}

func TestSummarizeParseError(t *testing.T) {
	if _, err := Summarize("char *f(char *s) {", "", Options{}); err == nil {
		t.Fatal("parse error must surface")
	}
}

func TestVocabularyRestriction(t *testing.T) {
	src := `char *f(char *s) { while (*s == 'q') s++; return s; }`
	if _, err := Summarize(src, "", Options{Vocabulary: "EF", Timeout: 2 * time.Second}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("EF-only vocabulary should fail: %v", err)
	}
	if _, err := Summarize(src, "", Options{Vocabulary: "QZ"}); err == nil {
		t.Fatal("bad vocabulary letters must error")
	}
}
