package memoryless

import (
	"testing"

	"stringloops/internal/cir"
	"stringloops/internal/symex"
	"stringloops/internal/vocab"
)

// The §3.2 theorems, checked exhaustively on small alphabets for
// representative memoryless loops. For a memoryless loop P, the iteration
// counter ∆P and the semantic function JPK determine each other (Definition
// 4 and the remark after it), so ∆P is recoverable from the returned
// cursor, and each theorem becomes a concrete predicate over strings.

// DeltaUnknown is returned by Delta when the run's outcome does not
// determine an iteration count (errors, NULL returns from post-processed
// loops).
const DeltaUnknown = -1 << 30

// Delta computes ∆P(ω) for a forward loop: the number of completed
// iterations when running on the string buffer "ω" (Definition 4), derived
// from the returned cursor offset (for Definition 1 loops the two determine
// each other). The result is DeltaUnknown when the loop faults (unsafe
// executions read past ω) or returns NULL.
func Delta(loop *cir.Func, omega []byte) int {
	buf := append(append([]byte{}, omega...), 0)
	res, _ := symex.RunConcrete(loop, buf, concreteSteps)
	if res.Kind != vocab.Ptr {
		return DeltaUnknown
	}
	return res.Off
}

// CheckTruncate checks Theorem 3.2 (Memoryless Truncate) on a concrete pair
// (ω, ω′):
//
//  1. if ∆P("ωω′") < |ω| then ∆P("ωω′") = ∆P("ω");
//  2. if ∆P("ωω′") ≥ |ω| then ∆P("ω") ≥ |ω|.
//
// Unknown deltas (unsafe executions) satisfy the theorem vacuously: the
// theorem's premise constrains only completed iteration counts.
func CheckTruncate(loop *cir.Func, omega, omegaPrime []byte) bool {
	dFull := Delta(loop, append(append([]byte{}, omega...), omegaPrime...))
	if dFull == DeltaUnknown {
		return true
	}
	dPrefix := Delta(loop, omega)
	if dFull < len(omega) {
		return dPrefix == dFull
	}
	return dPrefix == DeltaUnknown || dPrefix >= len(omega)
}

// CheckSqueeze checks Theorem 3.3 (Memoryless Squeeze) on a buffer "aωb":
//
//  1. if ∆P("aωb") = 1 + |ω| then ∆P("ab") = 1;
//  2. if ∆P("aωb") > 1 + |ω| then ∆P("ab") > 1.
func CheckSqueeze(loop *cir.Func, a byte, omega []byte, b byte) bool {
	full := append([]byte{a}, omega...)
	full = append(full, b)
	dFull := Delta(loop, full)
	if dFull == DeltaUnknown {
		return true
	}
	dAB := Delta(loop, []byte{a, b})
	switch {
	case dFull == 1+len(omega):
		return dAB == 1
	case dFull > 1+len(omega):
		return dAB == DeltaUnknown || dAB > 1
	default:
		return true
	}
}

func forwardLoops(t *testing.T) map[string]*cir.Func {
	t.Helper()
	return map[string]*cir.Func{
		"span": lower(t, `
char *skip(char *s) {
  while (*s == 'a' || *s == 'b')
    s++;
  return s;
}`),
		"cspan": lower(t, `
char *find(char *s) {
  while (*s && *s != 'a')
    s++;
  return s;
}`),
		"raw": lower(t, `
char *raw(char *s) {
  while (*s != 'a')
    s++;
  return s;
}`),
	}
}

// enumOmega enumerates character sequences (no NULs) up to maxLen.
func enumOmega(alphabet []byte, maxLen int) [][]byte {
	out := [][]byte{{}}
	frontier := [][]byte{{}}
	for l := 1; l <= maxLen; l++ {
		var next [][]byte
		for _, p := range frontier {
			for _, c := range alphabet {
				w := append(append([]byte{}, p...), c)
				next = append(next, w)
				out = append(out, w)
			}
		}
		frontier = next
	}
	return out
}

func TestTheoremTruncateExhaustive(t *testing.T) {
	alphabet := []byte{'a', 'b', 'c'}
	omegas := enumOmega(alphabet, 3)
	for name, loop := range forwardLoops(t) {
		for _, w := range omegas {
			for _, wp := range omegas {
				if !CheckTruncate(loop, w, wp) {
					t.Fatalf("%s: Truncate fails on ω=%q ω'=%q", name, w, wp)
				}
			}
		}
	}
}

func TestTheoremSqueezeExhaustive(t *testing.T) {
	alphabet := []byte{'a', 'b', 'c'}
	omegas := enumOmega(alphabet, 3)
	for name, loop := range forwardLoops(t) {
		for _, a := range alphabet {
			for _, b := range alphabet {
				for _, w := range omegas {
					if !CheckSqueeze(loop, a, w, b) {
						t.Fatalf("%s: Squeeze fails on a=%q ω=%q b=%q", name, a, w, b)
					}
				}
			}
		}
	}
}

func TestSmallModelLiftOnVerifiedLoops(t *testing.T) {
	// For Verify-accepted loops, the inferred specification must keep
	// agreeing well past the bounded length-3 horizon (the Theorem 3.4
	// lift): exhaustive to length 7 over a 3-character alphabet.
	for name, loop := range forwardLoops(t) {
		r := Verify(loop, 3)
		if !r.Memoryless {
			t.Fatalf("%s: %s", name, r.Reason)
		}
		if bad := CheckSmallModel(loop, r.Spec, []byte{'a', 'b', 'z'}, 7); bad != nil {
			t.Fatalf("%s: spec diverges from loop on %q", name, bad)
		}
	}
}

func TestSmallModelCatchesNonMemoryless(t *testing.T) {
	// A bounded-count loop agrees with its best spec up to length 3 but
	// diverges beyond — the exact failure mode the §3.3 syntactic conditions
	// guard against. CheckSmallModel at length 7 exposes it.
	loop := lower(t, `
char *five(char *s) {
  int i = 0;
  while (s[i] == 'a' && i < 5)
    i++;
  return s + i;
}`)
	spec, reason := InferSpec(loop)
	if spec == nil {
		t.Fatalf("inference failed: %s", reason)
	}
	spec.Dir = Forward
	if bad := CheckSmallModel(loop, spec, []byte{'a', 'b'}, 7); bad == nil {
		t.Fatal("the bounded-count loop should diverge from any memoryless spec on long inputs")
	}
}

func TestDeltaBasics(t *testing.T) {
	loop := lower(t, `
char *skip(char *s) {
  while (*s == 'x')
    s++;
  return s;
}`)
	cases := map[string]int{"": 0, "x": 1, "xx": 2, "xxy": 2, "y": 0}
	for in, want := range cases {
		if got := Delta(loop, []byte(in)); got != want {
			t.Errorf("Delta(%q) = %d, want %d", in, got, want)
		}
	}
	raw := lower(t, `
char *raw(char *s) {
  while (*s != 'q')
    s++;
  return s;
}`)
	if got := Delta(raw, []byte("ab")); got != DeltaUnknown {
		t.Errorf("unsafe run Delta = %d, want unknown", got)
	}
}
