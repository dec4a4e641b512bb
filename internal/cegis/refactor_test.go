package cegis

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"stringloops/internal/cc"
	"stringloops/internal/cir"
	"stringloops/internal/engine"
	"stringloops/internal/symex"
	"stringloops/internal/vocab"
)

// The §4.5 validator: original loop vs refactored library-call form.

// verifyPair runs the validator on functions a and b of src, and fails the
// test unless any counterexample it returns makes the two disagree.
func verifyPair(t *testing.T, src, a, b string) (bool, []byte) {
	t.Helper()
	fa := lowerLoopNamed(t, src, a)
	fb := lowerLoopNamed(t, src, b)
	ok, cex, err := VerifyFunctionEquivalence(fa, fb, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cex != nil {
		run := func(f *cir.Func) vocab.Result {
			res, _ := symex.RunConcrete(f, cex, 0)
			return res
		}
		if ra, rb := run(fa), run(fb); ra == rb {
			t.Fatalf("counterexample %q does not distinguish %s and %s: both give %+v", cex, a, b, ra)
		}
	}
	return ok, cex
}

func lowerLoopNamed(t *testing.T, src, name string) *cir.Func {
	t.Helper()
	file, err := cc.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	fn := file.Lookup(name)
	if fn == nil {
		t.Fatalf("function %s not found", name)
	}
	g, err := cir.LowerFunc(fn, file)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestRefactoringCorrectStrspn(t *testing.T) {
	ok, cex := verifyPair(t, `
char *orig(char *s) {
  while (*s == ' ' || *s == '\t')
    s++;
  return s;
}
char *refactored(char *s) {
  return s + strspn(s, " \t");
}`, "orig", "refactored")
	if !ok {
		t.Fatalf("correct refactoring rejected, cex %q", cex)
	}
}

func TestRefactoringCorrectStrcspn(t *testing.T) {
	ok, cex := verifyPair(t, `
char *orig(char *s) {
  while (*s && *s != ':' && *s != ';')
    s++;
  return s;
}
char *refactored(char *s) {
  return s + strcspn(s, ":;");
}`, "orig", "refactored")
	if !ok {
		t.Fatalf("correct refactoring rejected, cex %q", cex)
	}
}

func TestRefactoringCorrectStrchr(t *testing.T) {
	ok, cex := verifyPair(t, `
char *orig(char *s) {
  while (*s && *s != '@')
    s++;
  return *s == '@' ? s : 0;
}
char *refactored(char *s) {
  return strchr(s, '@');
}`, "orig", "refactored")
	if !ok {
		t.Fatalf("correct refactoring rejected, cex %q", cex)
	}
}

func TestRefactoringWrongSetDetected(t *testing.T) {
	// The classic refactoring bug: forgetting one member of the set.
	ok, cex := verifyPair(t, `
char *orig(char *s) {
  while (*s == ' ' || *s == '\t')
    s++;
  return s;
}
char *refactored(char *s) {
  return s + strspn(s, " ");
}`, "orig", "refactored")
	if ok {
		t.Fatal("wrong refactoring accepted")
	}
	// verifyPair has checked that it distinguishes the two.
	if cex == nil {
		t.Fatal("no counterexample")
	}
}

func TestRefactoringCancelledBudget(t *testing.T) {
	// The pair agrees on NULL, so only the symbolic check can answer, and
	// a cancelled budget must stop it with an error instead of a verdict.
	src := `
char *orig(char *s) {
  while (*s == ' ' || *s == '\t')
    s++;
  return s;
}
char *refactored(char *s) {
  return s + strspn(s, " ");
}`
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ok, cex, err := VerifyFunctionEquivalence(lowerLoopNamed(t, src, "orig"), lowerLoopNamed(t, src, "refactored"), 3, engine.NewBudget(ctx, engine.Limits{}))
	if !errors.Is(err, engine.ErrBudget) {
		t.Fatalf("err = %v (ok=%v, cex=%q), want one classifying as engine.ErrBudget", err, ok, cex)
	}
}

func TestRefactoringNullBehaviourDetected(t *testing.T) {
	// The original guards NULL, the refactoring does not: caught by the
	// concrete NULL test point.
	ok, _ := verifyPair(t, `
char *orig(char *s) {
  char *p;
  for (p = s; p && *p == ' '; p++)
    ;
  return p;
}
char *refactored(char *s) {
  return s + strspn(s, " ");
}`, "orig", "refactored")
	if ok {
		t.Fatal("NULL-behaviour change accepted")
	}
}

// TestSmallModelExtendsToLongerStrings is the empirical side of §3: a
// summary verified on strings of length <= 3 must agree with the loop on
// much longer strings. Random memoryless loops are generated, summarised,
// and then cross-checked on exhaustive length-6 inputs plus random long
// ones.
func TestSmallModelExtendsToLongerStrings(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	alphabet := []byte{'a', 'b', ' '}
	for iter := 0; iter < 20; iter++ {
		// Random loop: span or cspan over a random 1-2 character set,
		// optionally NULL-guarded.
		set := []byte{alphabet[rng.Intn(len(alphabet))]}
		if rng.Intn(2) == 0 {
			c := alphabet[rng.Intn(len(alphabet))]
			if c != set[0] {
				set = append(set, c)
			}
		}
		var cond string
		if rng.Intn(2) == 0 {
			for i, c := range set {
				if i > 0 {
					cond += " || "
				}
				cond += fmt.Sprintf("*p == %d", c)
			}
		} else {
			cond = "*p"
			for _, c := range set {
				cond += fmt.Sprintf(" && *p != %d", c)
			}
		}
		src := fmt.Sprintf(`
char *loop_fn(char *s) {
  char *p = s;
  while (%s)
    p++;
  return p;
}`, cond)
		f := lowerLoop(t, src)
		out, err := Synthesize(f, Options{Timeout: 30 * time.Second})
		if err != nil || !out.Found {
			t.Fatalf("iter %d (%s): synthesis failed: %v %+v", iter, cond, err, out)
		}
		// Exhaustive check on length-6 strings over the loop's alphabet plus
		// a byte outside it.
		check := func(buf []byte) {
			want, _ := symex.RunConcrete(f, buf, 0)
			if got := vocab.Run(out.Program, buf); got != want {
				t.Fatalf("iter %d: %q on %q: summary %+v, loop %+v",
					iter, out.Program.Encode(), buf, got, want)
			}
		}
		full := append([]byte{}, alphabet...)
		full = append(full, 'z')
		var rec func(prefix []byte)
		rec = func(prefix []byte) {
			if len(prefix) == 6 {
				check(append(append([]byte{}, prefix...), 0))
				return
			}
			for _, c := range full {
				rec(append(prefix, c))
			}
		}
		rec(nil)
		// And a handful of long random strings.
		for k := 0; k < 10; k++ {
			n := 20 + rng.Intn(40)
			buf := make([]byte, n+1)
			for i := 0; i < n; i++ {
				buf[i] = full[rng.Intn(len(full))]
			}
			check(buf)
		}
	}
}

func TestRefactoringStrlenForm(t *testing.T) {
	ok, cex := verifyPair(t, `
char *orig(char *s) {
  while (*s)
    s++;
  return s;
}
char *refactored(char *s) {
  return s + strlen(s);
}`, "orig", "refactored")
	if !ok {
		t.Fatalf("strlen refactoring rejected, cex %q", cex)
	}
}
