package memoryless

import (
	"stringloops/internal/cir"
	"stringloops/internal/symex"
	"stringloops/internal/vocab"
)

// This file turns the small-model machinery of §3.2 into executable
// properties. For a memoryless loop P, the iteration counter ∆P and the
// semantic function JPK determine each other (Definition 4 and the remark
// after it), so ∆P is recoverable from the returned cursor. The theorems —
// Memoryless Truncate (3.2) and Memoryless Squeeze (3.3) — then become
// concrete predicates over strings that tests check exhaustively on small
// alphabets; memoryless.Verify's bounded equivalence is sound exactly
// because these hold.

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

// CheckSmallModel empirically exercises Theorem 3.4's conclusion: the loop
// and its inferred specification agree on every string over the given
// alphabet up to maxLen — strictly longer than the bounded verification's
// length-3 horizon, so a Verify-accepted loop passing this check is evidence
// the lift to arbitrary lengths holds. It returns the first disagreeing
// buffer, or nil.
func CheckSmallModel(loop *cir.Func, spec *Spec, alphabet []byte, maxLen int) []byte {
	var cur []byte
	var rec func() []byte
	rec = func() []byte {
		buf := append(append([]byte{}, cur...), 0)
		if got, _ := symex.RunConcrete(loop, buf, concreteSteps); got != spec.Apply(buf) {
			return buf
		}
		if len(cur) == maxLen {
			return nil
		}
		for _, c := range alphabet {
			cur = append(cur, c)
			if bad := rec(); bad != nil {
				return bad
			}
			cur = cur[:len(cur)-1]
		}
		return nil
	}
	return rec()
}

// Apply evaluates the specification concretely on a NUL-terminated buffer —
// the reference semantics of Definition 3's schema (with the Miss
// extensions).
func (spec *Spec) Apply(buf []byte) vocab.Result {
	n := 0
	for buf[n] != 0 {
		n++
	}
	if spec.Dir == Forward {
		if spec.Miss == MissUnsafe {
			for i := 0; i < len(buf); i++ {
				if buf[i] != 0 && spec.X[buf[i]] {
					return vocab.PtrResult(i)
				}
			}
			return vocab.InvalidResult()
		}
		for i := 0; i < n; i++ {
			if spec.X[buf[i]] {
				return vocab.PtrResult(i)
			}
		}
		return spec.missResult(n)
	}
	for i := n - 1; i >= 0; i-- {
		if spec.X[buf[i]] {
			return vocab.PtrResult(i)
		}
	}
	return spec.missResult(n)
}
