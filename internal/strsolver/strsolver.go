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
// A SymString memoizes every predicate asked of it, so CEGIS, which asks the
// same predicates of the same few strings for every skeleton, builds each
// one once per string. The key is the predicate's kind, its offsets and its
// argument: a character's term number, or the number setNum gives a set's
// member list (any length). Bytes never change and the interner hash-conses,
// so a memo answer is the very node a rebuild would return, and a rebuild
// would intern nothing new: the memo changes no formula, no node number and
// no count. The reversed views of the string (Reversed) are kept on it too,
// each with its own memo. The memo makes a SymString unsafe for concurrent
// use, although its interner is safe: a string must be asked from one
// goroutine at a time. It outlives the interner's soft-cap clears: after
// one, it can hand back a valid node that the interner's table no longer
// holds, where a rebuild would intern a fresh copy.
type SymString struct {
	// Bytes has length MaxLen+1; Bytes[MaxLen] is the constant 0.
	Bytes []*bv.Term
	in    *bv.Interner
	memo  map[predKey]*bv.Bool
	// sets numbers member lists: sets[n<<32|m] is the number of the list
	// numbered n extended by the member whose term number is m. The empty
	// list is 0.
	sets map[uint64]uint32
	// rev[n] is the string reversed at strlen n, or nil before it is asked.
	rev []*SymString
}

// predKind names a memoized predicate.
type predKind uint32

const (
	predLen predKind = iota
	predAlive
	predMember
	predContains
	predChr
	predChrNone
	predRchr
	predRawchr
	predRawchrNone
	predSpn
	predCspn
	predPbrk
	predPbrkNone
)

// predKey is one predicate asked of a string: its kind, up to two offsets,
// and its argument (a term or set number). Besides the exported predicates,
// the memo holds the pieces they share: alive, and a set member's or a
// whole set's match against the byte at one offset.
type predKey struct {
	kind     predKind
	from, to uint32
	arg      uint32
}

// key returns the memo key of a predicate.
func key(kind predKind, from, to int, arg uint32) predKey {
	return predKey{kind: kind, from: uint32(from), to: uint32(to), arg: arg}
}

// remember records b as the answer to k and returns it.
func (s *SymString) remember(k predKey, b *bv.Bool) *bv.Bool {
	if s.memo == nil {
		s.memo = make(map[predKey]*bv.Bool)
	}
	s.memo[k] = b
	return b
}

// setNum returns the number of set's member list on s. Lists of the same
// member terms in the same order get the same number, and lists that differ
// get different ones.
func (s *SymString) setNum(set Set) uint32 {
	n := uint32(0)
	for _, m := range set.Members {
		k := uint64(n)<<32 | uint64(m.Num())
		next, ok := s.sets[k]
		if !ok {
			if s.sets == nil {
				s.sets = make(map[uint64]uint32)
			}
			next = uint32(len(s.sets)) + 1
			s.sets[k] = next
		}
		n = next
	}
	return n
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
	if n < 0 || n > s.MaxLen() {
		return bv.False
	}
	k := key(predLen, 0, n, 0)
	if b, ok := s.memo[k]; ok {
		return b
	}
	in := s.in
	cond := in.Eq(s.Bytes[n], in.Byte(0))
	for i := 0; i < n; i++ {
		cond = in.BAnd2(cond, in.Ne(s.Bytes[i], in.Byte(0)))
	}
	return s.remember(k, cond)
}

// Reversed returns s reversed at strlen n: its first n bytes in reverse
// order, then a NUL terminator. It is built once per n and kept on s, so the
// view's own memo serves every run that reverses s.
func (s *SymString) Reversed(n int) *SymString {
	if s.rev == nil {
		s.rev = make([]*SymString, s.MaxLen()+1)
	}
	if v := s.rev[n]; v != nil {
		return v
	}
	bytes := make([]*bv.Term, n+1)
	for i := 0; i < n; i++ {
		bytes[i] = s.Bytes[n-1-i]
	}
	bytes[n] = s.in.Byte(0)
	s.rev[n] = Wrap(s.in, bytes)
	return s.rev[n]
}

// Set is the second argument of the strspn-family functions: a sequence of
// member bytes, possibly symbolic (during synthesis the members are the
// unknowns). A member equal to a meta-character matches its class rather than
// itself, mirroring cstr.MatchSet.
type Set struct {
	Members []*bv.Term
}

// contains returns the condition that the byte at offset i is matched by the
// set, whose number is num. NUL never matches, matching C semantics for
// character sets.
func (s *SymString) contains(set Set, num uint32, i int) *bv.Bool {
	k := key(predContains, i, 0, num)
	if b, ok := s.memo[k]; ok {
		return b
	}
	in := s.in
	cond := bv.False
	for _, m := range set.Members {
		cond = in.BOr2(cond, s.memberMatches(m, i))
	}
	return s.remember(k, in.BAnd2(cond, in.Ne(s.Bytes[i], in.Byte(0))))
}

// memberMatches returns the condition that set member a matches the byte at
// offset i, including meta-character semantics.
func (s *SymString) memberMatches(a *bv.Term, i int) *bv.Bool {
	k := key(predMember, i, 0, a.Num())
	if b, ok := s.memo[k]; ok {
		return b
	}
	in := s.in
	c := s.Bytes[i]
	isDigitC := in.BAnd2(in.Ule(in.Byte('0'), c), in.Ule(c, in.Byte('9')))
	isSpaceC := in.BOrAll(in.Eq(c, in.Byte(' ')), in.Eq(c, in.Byte('\t')), in.Eq(c, in.Byte('\n')))
	m := in.BOrAll(
		in.BAnd2(in.Eq(a, in.Byte(cstr.MetaDigit)), isDigitC),
		in.BAnd2(in.Eq(a, in.Byte(cstr.MetaSpace)), isSpaceC),
		in.BAndAll(in.Ne(a, in.Byte(cstr.MetaDigit)), in.Ne(a, in.Byte(cstr.MetaSpace)), in.Eq(c, a)),
	)
	return s.remember(k, m)
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
	if from+n > s.MaxLen() {
		return bv.False
	}
	num := s.setNum(set)
	k := key(predSpn, from, n, num)
	if b, ok := s.memo[k]; ok {
		return b
	}
	in := s.in
	cond := bv.True
	for i := from; i < from+n; i++ {
		cond = in.BAnd2(cond, s.contains(set, num, i))
	}
	// The span stops at from+n: either the terminator or a non-member.
	stop := in.BOr2(in.Eq(s.Bytes[from+n], in.Byte(0)), in.BNot1(s.contains(set, num, from+n)))
	return s.remember(k, in.BAnd2(cond, stop))
}

// CspnIs returns the constraint strcspn(s+from, set) == n.
func (s *SymString) CspnIs(from, n int, set Set) *bv.Bool {
	if from+n > s.MaxLen() {
		return bv.False
	}
	num := s.setNum(set)
	k := key(predCspn, from, n, num)
	if b, ok := s.memo[k]; ok {
		return b
	}
	in := s.in
	cond := bv.True
	for i := from; i < from+n; i++ {
		cond = in.BAnd2(cond, in.BAnd2(in.BNot1(s.contains(set, num, i)), in.Ne(s.Bytes[i], in.Byte(0))))
	}
	stop := in.BOr2(in.Eq(s.Bytes[from+n], in.Byte(0)), s.contains(set, num, from+n))
	return s.remember(k, in.BAnd2(cond, stop))
}

// ChrIs returns the constraint strchr(s+from, c) == s+j, i.e. the first
// occurrence of c at or after from is at absolute offset j. c may be NUL, in
// which case this is the position of the terminator (C semantics).
func (s *SymString) ChrIs(from, j int, c *bv.Term) *bv.Bool {
	if j < from || j > s.MaxLen() {
		return bv.False
	}
	k := key(predChr, from, j, c.Num())
	if b, ok := s.memo[k]; ok {
		return b
	}
	in := s.in
	cond := in.Eq(s.Bytes[j], c)
	for i := from; i < j; i++ {
		cond = in.BAndAll(cond, in.Ne(s.Bytes[i], c), in.Ne(s.Bytes[i], in.Byte(0)))
	}
	return s.remember(k, cond)
}

// ChrNone returns the constraint strchr(s+from, c) == NULL: c does not occur
// before (or at) the terminator. Only possible for c != NUL.
func (s *SymString) ChrNone(from int, c *bv.Term) *bv.Bool {
	k := key(predChrNone, from, 0, c.Num())
	if b, ok := s.memo[k]; ok {
		return b
	}
	in := s.in
	cond := in.Ne(c, in.Byte(0))
	// There is a terminator at some end with no occurrence of c before it.
	cases := bv.False
	for end := from; end <= s.MaxLen(); end++ {
		kase := in.Eq(s.Bytes[end], in.Byte(0))
		for i := from; i < end; i++ {
			kase = in.BAndAll(kase, in.Ne(s.Bytes[i], in.Byte(0)), in.Ne(s.Bytes[i], c))
		}
		cases = in.BOr2(cases, kase)
	}
	return s.remember(k, in.BAnd2(cond, cases))
}

// alive returns the condition that offset i lies within the live string
// starting at from (no terminator strictly before i).
func (s *SymString) alive(from, i int) *bv.Bool {
	k := key(predAlive, from, i, 0)
	if b, ok := s.memo[k]; ok {
		return b
	}
	in := s.in
	cond := bv.True
	for m := from; m < i; m++ {
		cond = in.BAnd2(cond, in.Ne(s.Bytes[m], in.Byte(0)))
	}
	return s.remember(k, cond)
}

// RchrIs returns the constraint strrchr(s+from, c) == s+j: the last
// occurrence of c within the live string is at absolute offset j.
func (s *SymString) RchrIs(from, j int, c *bv.Term) *bv.Bool {
	if j < from || j > s.MaxLen() {
		return bv.False
	}
	k := key(predRchr, from, j, c.Num())
	if b, ok := s.memo[k]; ok {
		return b
	}
	in := s.in
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
	return s.remember(k, cond)
}

// RchrNone returns the constraint strrchr(s+from, c) == NULL.
func (s *SymString) RchrNone(from int, c *bv.Term) *bv.Bool {
	return s.ChrNone(from, c) // same condition: no occurrence at all
}

// PbrkIs returns the constraint strpbrk(s+from, set) == s+j.
func (s *SymString) PbrkIs(from, j int, set Set) *bv.Bool {
	if j < from || j > s.MaxLen() {
		return bv.False
	}
	num := s.setNum(set)
	k := key(predPbrk, from, j, num)
	if b, ok := s.memo[k]; ok {
		return b
	}
	in := s.in
	cond := s.contains(set, num, j)
	for i := from; i < j; i++ {
		cond = in.BAndAll(cond, in.BNot1(s.contains(set, num, i)), in.Ne(s.Bytes[i], in.Byte(0)))
	}
	return s.remember(k, cond)
}

// PbrkNone returns the constraint strpbrk(s+from, set) == NULL.
func (s *SymString) PbrkNone(from int, set Set) *bv.Bool {
	num := s.setNum(set)
	k := key(predPbrkNone, from, 0, num)
	if b, ok := s.memo[k]; ok {
		return b
	}
	in := s.in
	cases := bv.False
	for end := from; end <= s.MaxLen(); end++ {
		kase := in.Eq(s.Bytes[end], in.Byte(0))
		for i := from; i < end; i++ {
			kase = in.BAndAll(kase, in.Ne(s.Bytes[i], in.Byte(0)), in.BNot1(s.contains(set, num, i)))
		}
		cases = in.BOr2(cases, kase)
	}
	return s.remember(k, cases)
}

// RawchrIs returns the constraint rawmemchr(s+from, c) == s+j: the first
// occurrence of c scanning without regard for the terminator. Within the
// bounded buffer a missing occurrence means the C code would read past the
// end (undefined behaviour); RawchrNone captures that case.
func (s *SymString) RawchrIs(from, j int, c *bv.Term) *bv.Bool {
	if j < from || j > s.MaxLen() {
		return bv.False
	}
	k := key(predRawchr, from, j, c.Num())
	if b, ok := s.memo[k]; ok {
		return b
	}
	in := s.in
	cond := in.Eq(s.Bytes[j], c)
	for i := from; i < j; i++ {
		cond = in.BAnd2(cond, in.Ne(s.Bytes[i], c))
	}
	return s.remember(k, cond)
}

// RawchrNone returns the constraint that c occurs nowhere in the buffer at or
// after from — the undefined-behaviour case of rawmemchr.
func (s *SymString) RawchrNone(from int, c *bv.Term) *bv.Bool {
	k := key(predRawchrNone, from, 0, c.Num())
	if b, ok := s.memo[k]; ok {
		return b
	}
	in := s.in
	cond := bv.True
	for i := from; i <= s.MaxLen(); i++ {
		cond = in.BAnd2(cond, in.Ne(s.Bytes[i], c))
	}
	return s.remember(k, cond)
}
