package memoryless

import (
	"stringloops/internal/cir"
	"stringloops/internal/symex"
	"stringloops/internal/vocab"
)

// This file turns the small-model argument of §3.2 into an executable
// check: a specification's reference semantics (Apply) and a concrete
// comparison of it with the loop on every string over an alphabet up to a
// length. The theorems behind the argument — Memoryless Truncate (3.2) and
// Memoryless Squeeze (3.3) — are checked exhaustively on small alphabets in
// the tests; memoryless.Verify's bounded equivalence is sound exactly
// because they hold.

// CheckSmallModel empirically exercises Theorem 3.4's conclusion: the loop
// and its inferred specification agree on every string over the given
// alphabet up to maxLen — strictly longer than the bounded verification's
// length-3 horizon, so a Verify-accepted loop passing this check is evidence
// the lift to arbitrary lengths holds. It returns the first disagreeing
// buffer, or nil.
func CheckSmallModel(loop *cir.Func, spec *Spec, alphabet []byte, maxLen int) []byte {
	run := symex.NewRunner(loop)
	var cur []byte
	var rec func() []byte
	rec = func() []byte {
		buf := append(append([]byte{}, cur...), 0)
		if got, _ := run.Run(buf, concreteSteps); got != spec.Apply(buf) {
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
