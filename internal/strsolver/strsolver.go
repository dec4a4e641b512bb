// Package strsolver is a bounded string theory over the bit-vector layer: the
// analog of the Z3str/CVC4 string solvers the paper relies on (§4.3). It
// models a C string as a fixed-size buffer of symbolic bytes whose final byte
// is NUL, and compiles the predicates of the string vocabulary — strchr,
// strrchr, strspn, strcspn, strpbrk, rawmemchr, strlen — into bit-vector
// constraints. Because buffers are bounded, every predicate is expressible as
// a finite formula; the small-model theorem of §3 is what makes bounded
// reasoning sufficient for the paper's loops.
package strsolver

import (
	"fmt"

	"stringloops/internal/bv"
	"stringloops/internal/cstr"
)

// SymString is a bounded symbolic C string: MaxLen symbolic content bytes
// followed by a forced NUL terminator. Content bytes may themselves be NUL,
// so a SymString of capacity N ranges over all strings of length 0..N.
//
// A SymString memoizes the condition that a set member matches a byte, by
// the pair of terms, so the set predicates (SpnIs, CspnIs, PbrkIs,
// PbrkNone) build each member's match once however often they are asked.
// Hash-consing makes a memo answer the very node a rebuild would return, so
// the memo changes no formula and interns nothing a rebuild would not. The
// memo makes a SymString unsafe for concurrent use, although its interner
// is safe: a string must be asked from one goroutine at a time. It outlives
// the interner's soft-cap clears: after one, it can hand back a valid node
// that the interner's table no longer holds, where a rebuild would intern a
// fresh copy.
type SymString struct {
	// Bytes has length MaxLen+1; Bytes[MaxLen] is the constant 0.
	Bytes []*bv.Term
	in    *bv.Interner
	// match maps a (member, byte) pair of term numbers to its memberMatches.
	match map[uint64]*bv.Bool
}

// New returns a fresh symbolic string of capacity maxLen whose content bytes
// are the solver variables name[0..maxLen).
func New(in *bv.Interner, name string, maxLen int) *SymString {
	s := &SymString{Bytes: make([]*bv.Term, maxLen+1), in: in}
	for i := 0; i < maxLen; i++ {
		s.Bytes[i] = in.Var(fmt.Sprintf("%s[%d]", name, i), 8)
	}
	s.Bytes[maxLen] = in.Byte(0)
	return s
}

// Wrap adopts an existing byte-term buffer (laid out as New describes: content
// bytes followed by a NUL terminator term) as a SymString built on in. Callers
// that assemble buffers term-by-term — the CEGIS skeleton encoder, the
// symbolic gadget interpreter — use this instead of a struct literal so the
// string remembers which interner its constraints must be built with.
func Wrap(in *bv.Interner, bytes []*bv.Term) *SymString {
	return &SymString{Bytes: bytes, in: in}
}

// Interner returns the interner this string builds its constraints with.
func (s *SymString) Interner() *bv.Interner { return s.in }

// FromConcrete wraps a concrete NUL-terminated buffer as a SymString of
// constant terms. The buffer's final byte must be NUL; a missing terminator
// is reported as a descriptive error (not a panic), so buffers assembled
// from fuzzed or external data cannot kill the process.
func FromConcrete(in *bv.Interner, buf []byte) (*SymString, error) {
	if len(buf) == 0 {
		return nil, fmt.Errorf("strsolver: concrete buffer is empty (want at least a NUL terminator)")
	}
	if buf[len(buf)-1] != 0 {
		return nil, fmt.Errorf("strsolver: concrete buffer %q (len %d) is not NUL-terminated", buf, len(buf))
	}
	s := &SymString{Bytes: make([]*bv.Term, len(buf)), in: in}
	for i, b := range buf {
		s.Bytes[i] = in.Byte(b)
	}
	return s, nil
}

// MaxLen returns the capacity of the string (number of content bytes).
func (s *SymString) MaxLen() int { return len(s.Bytes) - 1 }

// At returns the byte term at offset i. Offsets beyond the buffer are an
// out-of-bounds read; callers guard them.
func (s *SymString) At(i int) *bv.Term { return s.Bytes[i] }

// Concretize returns the concrete buffer described by the assignment.
func (s *SymString) Concretize(a *bv.Assignment) []byte {
	ev := bv.NewEvaluator(a)
	out := make([]byte, len(s.Bytes))
	for i, t := range s.Bytes {
		out[i] = byte(ev.Term(t))
	}
	return out
}

// LenIs returns the constraint strlen(s) == n.
func (s *SymString) LenIs(n int) *bv.Bool {
	in := s.in
	if n < 0 || n > s.MaxLen() {
		return bv.False
	}
	cond := in.Eq(s.Bytes[n], in.Byte(0))
	for i := 0; i < n; i++ {
		cond = in.BAnd2(cond, in.Ne(s.Bytes[i], in.Byte(0)))
	}
	return cond
}

// Set is the second argument of the strspn-family functions: a sequence of
// member bytes, possibly symbolic (during synthesis the members are the
// unknowns). A member equal to a meta-character matches its class rather than
// itself, mirroring cstr.MatchSet.
type Set struct {
	Members []*bv.Term
}

// contains returns the condition that c is matched by the set. NUL never
// matches, matching C semantics for character sets.
func (s *SymString) contains(set Set, c *bv.Term) *bv.Bool {
	in := s.in
	cond := bv.False
	for _, m := range set.Members {
		cond = in.BOr2(cond, s.memberMatches(m, c))
	}
	return in.BAnd2(cond, in.Ne(c, in.Byte(0)))
}

// memberMatches returns the condition that set member a matches character c,
// including meta-character semantics. It is built once per pair of terms and
// then read from the memo.
func (s *SymString) memberMatches(a, c *bv.Term) *bv.Bool {
	key := uint64(a.Num())<<32 | uint64(c.Num())
	if m, ok := s.match[key]; ok {
		return m
	}
	in := s.in
	isDigitC := in.BAnd2(in.Ule(in.Byte('0'), c), in.Ule(c, in.Byte('9')))
	isSpaceC := in.BOrAll(in.Eq(c, in.Byte(' ')), in.Eq(c, in.Byte('\t')), in.Eq(c, in.Byte('\n')))
	m := in.BOrAll(
		in.BAnd2(in.Eq(a, in.Byte(cstr.MetaDigit)), isDigitC),
		in.BAnd2(in.Eq(a, in.Byte(cstr.MetaSpace)), isSpaceC),
		in.BAndAll(in.Ne(a, in.Byte(cstr.MetaDigit)), in.Ne(a, in.Byte(cstr.MetaSpace)), in.Eq(c, a)),
	)
	if s.match == nil {
		s.match = make(map[uint64]*bv.Bool)
	}
	s.match[key] = m
	return m
}

// ---- Function predicates ----
//
// Each XxxIs(s, from, j, ...) returns the constraint that the corresponding C
// function, applied to the string suffix starting at concrete offset from,
// yields the concrete result j. Enumerating j over its finite range yields a
// complete case split, which is how the symbolic gadget interpreter encodes a
// gadget step (the "guarded concrete offsets" representation of DESIGN.md §5).

// SpnIs returns the constraint strspn(s+from, set) == n (n relative to from).
func (s *SymString) SpnIs(from, n int, set Set) *bv.Bool {
	in := s.in
	if from+n > s.MaxLen() {
		return bv.False
	}
	cond := bv.True
	for i := from; i < from+n; i++ {
		cond = in.BAnd2(cond, s.contains(set, s.Bytes[i]))
	}
	// The span stops at from+n: either the terminator or a non-member.
	stop := in.BOr2(in.Eq(s.Bytes[from+n], in.Byte(0)), in.BNot1(s.contains(set, s.Bytes[from+n])))
	return in.BAnd2(cond, stop)
}

// CspnIs returns the constraint strcspn(s+from, set) == n.
func (s *SymString) CspnIs(from, n int, set Set) *bv.Bool {
	in := s.in
	if from+n > s.MaxLen() {
		return bv.False
	}
	cond := bv.True
	for i := from; i < from+n; i++ {
		cond = in.BAnd2(cond, in.BAnd2(in.BNot1(s.contains(set, s.Bytes[i])), in.Ne(s.Bytes[i], in.Byte(0))))
	}
	stop := in.BOr2(in.Eq(s.Bytes[from+n], in.Byte(0)), s.contains(set, s.Bytes[from+n]))
	return in.BAnd2(cond, stop)
}

// ChrIs returns the constraint strchr(s+from, c) == s+j, i.e. the first
// occurrence of c at or after from is at absolute offset j. c may be NUL, in
// which case this is the position of the terminator (C semantics).
func (s *SymString) ChrIs(from, j int, c *bv.Term) *bv.Bool {
	in := s.in
	if j < from || j > s.MaxLen() {
		return bv.False
	}
	cond := in.Eq(s.Bytes[j], c)
	for i := from; i < j; i++ {
		cond = in.BAndAll(cond, in.Ne(s.Bytes[i], c), in.Ne(s.Bytes[i], in.Byte(0)))
	}
	return cond
}

// ChrNone returns the constraint strchr(s+from, c) == NULL: c does not occur
// before (or at) the terminator. Only possible for c != NUL.
func (s *SymString) ChrNone(from int, c *bv.Term) *bv.Bool {
	in := s.in
	cond := in.Ne(c, in.Byte(0))
	// There is a terminator at some k with no occurrence of c before it.
	cases := bv.False
	for k := from; k <= s.MaxLen(); k++ {
		kase := in.Eq(s.Bytes[k], in.Byte(0))
		for i := from; i < k; i++ {
			kase = in.BAndAll(kase, in.Ne(s.Bytes[i], in.Byte(0)), in.Ne(s.Bytes[i], c))
		}
		cases = in.BOr2(cases, kase)
	}
	return in.BAnd2(cond, cases)
}

// alive returns the condition that offset i lies within the live string
// starting at from (no terminator strictly before i).
func (s *SymString) alive(from, i int) *bv.Bool {
	in := s.in
	cond := bv.True
	for k := from; k < i; k++ {
		cond = in.BAnd2(cond, in.Ne(s.Bytes[k], in.Byte(0)))
	}
	return cond
}

// RchrIs returns the constraint strrchr(s+from, c) == s+j: the last
// occurrence of c within the live string is at absolute offset j.
func (s *SymString) RchrIs(from, j int, c *bv.Term) *bv.Bool {
	in := s.in
	if j < from || j > s.MaxLen() {
		return bv.False
	}
	// j is live and holds c.
	cond := in.BAnd2(s.alive(from, j), in.Eq(s.Bytes[j], c))
	if jv, ok := c.IsConst(); !ok || jv != 0 {
		// For non-NUL c, j must be before the terminator.
		cond = in.BAnd2(cond, in.BOr2(in.Ne(s.Bytes[j], in.Byte(0)), in.Eq(c, in.Byte(0))))
	}
	// No later live occurrence of c.
	for i := j + 1; i <= s.MaxLen(); i++ {
		later := in.BAnd2(s.alive(from, i), in.Eq(s.Bytes[i], c))
		cond = in.BAnd2(cond, in.BNot1(later))
	}
	return cond
}

// RchrNone returns the constraint strrchr(s+from, c) == NULL.
func (s *SymString) RchrNone(from int, c *bv.Term) *bv.Bool {
	return s.ChrNone(from, c) // same condition: no occurrence at all
}

// PbrkIs returns the constraint strpbrk(s+from, set) == s+j.
func (s *SymString) PbrkIs(from, j int, set Set) *bv.Bool {
	in := s.in
	if j < from || j > s.MaxLen() {
		return bv.False
	}
	cond := s.contains(set, s.Bytes[j])
	for i := from; i < j; i++ {
		cond = in.BAndAll(cond, in.BNot1(s.contains(set, s.Bytes[i])), in.Ne(s.Bytes[i], in.Byte(0)))
	}
	return cond
}

// PbrkNone returns the constraint strpbrk(s+from, set) == NULL.
func (s *SymString) PbrkNone(from int, set Set) *bv.Bool {
	in := s.in
	cases := bv.False
	for k := from; k <= s.MaxLen(); k++ {
		kase := in.Eq(s.Bytes[k], in.Byte(0))
		for i := from; i < k; i++ {
			kase = in.BAndAll(kase, in.Ne(s.Bytes[i], in.Byte(0)), in.BNot1(s.contains(set, s.Bytes[i])))
		}
		cases = in.BOr2(cases, kase)
	}
	return cases
}

// RawchrIs returns the constraint rawmemchr(s+from, c) == s+j: the first
// occurrence of c scanning without regard for the terminator. Within the
// bounded buffer a missing occurrence means the C code would read past the
// end (undefined behaviour); RawchrNone captures that case.
func (s *SymString) RawchrIs(from, j int, c *bv.Term) *bv.Bool {
	in := s.in
	if j < from || j > s.MaxLen() {
		return bv.False
	}
	cond := in.Eq(s.Bytes[j], c)
	for i := from; i < j; i++ {
		cond = in.BAnd2(cond, in.Ne(s.Bytes[i], c))
	}
	return cond
}

// RawchrNone returns the constraint that c occurs nowhere in the buffer at or
// after from — the undefined-behaviour case of rawmemchr.
func (s *SymString) RawchrNone(from int, c *bv.Term) *bv.Bool {
	in := s.in
	cond := bv.True
	for i := from; i <= s.MaxLen(); i++ {
		cond = in.BAnd2(cond, in.Ne(s.Bytes[i], c))
	}
	return cond
}
