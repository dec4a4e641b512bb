package symex

import (
	"fmt"

	"stringloops/internal/bv"
	"stringloops/internal/cir"
)

// This file gives the engine symbolic semantics for the C standard string
// functions themselves — strspn, strcspn, strchr — so that *refactored* code
// (loops already replaced by library calls, §4.5) can be executed
// symbolically and checked equivalent to the original loop. The set argument
// must be a string literal (concrete bytes), which is what refactored code
// passes.

// constSetArg extracts the concrete bytes of a string-literal set argument.
func (e *Engine) constSetArg(v Value) ([]byte, error) {
	if !v.IsPtr || v.IsNull() || v.Obj >= len(e.Objects) {
		return nil, fmt.Errorf("%w: set argument is not a string object", ErrUnsupported)
	}
	off, ok := v.Off.IsConst()
	if !ok {
		return nil, fmt.Errorf("%w: set argument has a symbolic offset", ErrUnsupported)
	}
	buf := e.Objects[v.Obj]
	var out []byte
	for i := int(int32(off)); i < len(buf); i++ {
		c, ok := buf[i].IsConst()
		if !ok {
			return nil, fmt.Errorf("%w: set argument is not concrete", ErrUnsupported)
		}
		if c == 0 {
			return out, nil
		}
		out = append(out, byte(c))
	}
	return nil, fmt.Errorf("%w: set argument is unterminated", ErrUnsupported)
}

// stringObject returns the buffer of the string object p points into, for
// the string function what: an unsupported error when p is an integer or
// points into a cell, ErrNullDeref when it is NULL.
func (e *Engine) stringObject(s *state, p Value, what string) ([]*bv.Term, error) {
	if !p.IsPtr {
		return nil, fmt.Errorf("%w: %s of integer", ErrUnsupported, what)
	}
	if p.IsNull() {
		return nil, ErrNullDeref
	}
	if s.cell(p.Obj) != nil || p.Obj >= len(e.Objects) {
		return nil, fmt.Errorf("%w: %s of non-string object", ErrUnsupported, what)
	}
	return e.Objects[p.Obj], nil
}

// readAt reads table[off], where off is an offset into a buffer of n bytes,
// the symbolic-offset read every buffer access shares. A constant offset
// indexes table directly, ErrOOB outside [0, n). A symbolic one adds off < n
// to the path (ErrOOB when that is infeasible) and selects with an ite chain
// over table whose last entry is the default. With oobPath the out-of-bounds
// complement becomes its own ErrOOB path.
func (e *Engine) readAt(s *state, table []*bv.Term, n int, off *bv.Term, oobPath bool) (*bv.Term, error) {
	bvin := e.In
	if v, ok := off.IsConst(); ok {
		if k := int(int32(v)); k < 0 || k >= n {
			return nil, ErrOOB
		}
		return table[int32(v)], nil
	}
	inBounds := bvin.Ult(off, bvin.Int32(int64(n)))
	newCond := bvin.BAnd2(s.cond, inBounds)
	if newCond == bv.False || (e.CheckFeasibility && !e.feasible(s, newCond)) {
		return nil, ErrOOB
	}
	// The out-of-bounds complement is its own (errored) path, not a slice of
	// the input space to narrow away: merged states reach here with ite
	// cursors whose feasible range straddles the buffer end, and dropping
	// the overflowing models would leave concrete inputs no path claims.
	if oobPath {
		if oob := bvin.BAnd2(s.cond, bvin.BNot1(inBounds)); oob != bv.False {
			if o := (&state{cond: oob}); !e.CheckFeasibility || e.feasible(o, oob) {
				e.emit(o, Value{}, ErrOOB)
			}
		}
	}
	s.cond = newCond
	val := table[len(table)-1]
	for k := len(table) - 2; k >= 0; k-- {
		val = bvin.Ite(bvin.Eq(off, bvin.Int32(int64(k))), table[k], val)
	}
	return val, nil
}

// strlenCall builds the symbolic strlen of a string object from a (possibly
// symbolic) offset: a nested ite over the bounded buffer. Buffers end in a
// forced NUL, so the scan always terminates inside the buffer.
func (e *Engine) strlenCall(s *state, p Value) (Value, error) {
	bvin := e.In
	buf, err := e.stringObject(s, p, "strlen")
	if err != nil {
		return Value{}, err
	}
	// lenFrom[k] = length of the string starting at k.
	lenFrom := make([]*bv.Term, len(buf))
	if v, ok := buf[len(buf)-1].IsConst(); !ok || v != 0 {
		return Value{}, fmt.Errorf("%w: strlen of unterminated buffer", ErrUnsupported)
	}
	lenFrom[len(buf)-1] = bvin.Int32(0)
	for k := len(buf) - 2; k >= 0; k-- {
		lenFrom[k] = bvin.Ite(bvin.Eq(buf[k], bvin.Byte(0)), bvin.Int32(0), bvin.Add(lenFrom[k+1], bvin.Int32(1)))
	}
	val, err := e.readAt(s, lenFrom, len(buf), p.Off, false)
	return IntValue(val), err
}

// spanTerm builds the strspn/strcspn result (as a 32-bit term) of the string
// object from a possibly-symbolic offset. match decides per-byte membership;
// the span stops at NUL regardless, unless raw: the rawmemchr scan, which
// ignores the terminator and, leaving the bounded buffer, yields an offset
// equal to the buffer size.
func (e *Engine) spanTerm(s *state, p Value, match func(*bv.Term) *bv.Bool, raw bool) (*bv.Term, error) {
	bvin := e.In
	buf, err := e.stringObject(s, p, "span")
	if err != nil {
		return nil, err
	}
	// spanFrom[k]: span length starting at k; the last entry is 0.
	last := len(buf)
	if !raw {
		if v, ok := buf[len(buf)-1].IsConst(); !ok || v != 0 {
			return nil, fmt.Errorf("%w: span of unterminated buffer", ErrUnsupported)
		}
		last--
	}
	spanFrom := make([]*bv.Term, last+1)
	spanFrom[last] = bvin.Int32(0)
	for k := last - 1; k >= 0; k-- {
		var ok *bv.Bool
		if raw {
			ok = match(buf[k])
		} else {
			ok = bvin.BAnd2(bvin.Ne(buf[k], bvin.Byte(0)), match(buf[k]))
		}
		spanFrom[k] = bvin.Ite(ok, bvin.Add(spanFrom[k+1], bvin.Int32(1)), bvin.Int32(0))
	}
	return e.readAt(s, spanFrom, len(buf), p.Off, false)
}

// setMatcher builds the membership predicate of a concrete character set.
func setMatcher(bvin *bv.Interner, set []byte, complement bool) func(*bv.Term) *bv.Bool {
	return func(c *bv.Term) *bv.Bool {
		member := bv.False
		for _, m := range set {
			member = bvin.BOr2(member, bvin.Eq(c, bvin.Byte(m)))
		}
		if complement {
			return bvin.BNot1(member)
		}
		return member
	}
}

// spanCall runs strspn or strcspn, whose set argument args[1] must be
// concrete.
func (e *Engine) spanCall(s *state, fn cir.Intrinsic, args []int32) (Value, error) {
	if len(args) != 2 {
		return Value{}, fmt.Errorf("%w: %s arity", ErrUnsupported, fn)
	}
	set, err := e.constSetArg(e.read(s, args[1]))
	if err != nil {
		return Value{}, err
	}
	span, err := e.spanTerm(s, e.read(s, args[0]), setMatcher(e.In, set, fn == cir.FnStrcspn), false)
	return IntValue(span), err
}

// searchCall runs the searching string functions (strchr, strrchr, strpbrk,
// rawmemchr), which fork the state: found, with a pointer result, and miss.
// It schedules the feasible successors, which resume after the call.
func (e *Engine) searchCall(s *state, in *cir.DInstr, fn cir.Intrinsic) error {
	bvin := e.In
	args := e.prog.CallArgs[in.A : in.A+in.B]
	if len(args) != 2 {
		return fmt.Errorf("%w: %s arity", ErrUnsupported, fn)
	}
	p := e.read(s, args[0])

	// forkFound schedules the found (pointer result under cond) and miss
	// (missVal or error under !cond) successors.
	forkFound := func(found *bv.Bool, obj int, offTerm *bv.Term, missVal Value, missErr error) {
		miss := e.forkStep(s)
		if miss == nil {
			return
		}
		s.cond = bvin.BAnd2(s.cond, found)
		if s.cond != bv.False && !(e.CheckFeasibility && !e.feasible(s, s.cond)) {
			s.regs[in.Res] = PtrValue(obj, offTerm)
			e.sched.push(s)
		}
		miss.cond = bvin.BAnd2(miss.cond, bvin.BNot1(found))
		if miss.cond != bv.False && !(e.CheckFeasibility && !e.feasible(miss, miss.cond)) {
			if missErr != nil {
				e.emit(miss, Value{}, missErr)
			} else {
				miss.regs[in.Res] = missVal
				e.sched.push(miss)
			}
		}
	}

	if fn == cir.FnStrpbrk {
		set, err := e.constSetArg(e.read(s, args[1]))
		if err != nil {
			return err
		}
		span, err := e.spanTerm(s, p, setMatcher(bvin, set, true), false)
		if err != nil {
			return err
		}
		stopOff := bvin.Add(p.Off, span)
		stopByte, err := e.selectByte(s, e.Objects[p.Obj], stopOff)
		if err != nil {
			return err
		}
		forkFound(setMatcher(bvin, set, false)(stopByte), p.Obj, stopOff, NullValue(), nil)
		return nil
	}

	cArg := e.read(s, args[1])
	if cArg.IsPtr {
		return fmt.Errorf("%w: %s character is a pointer", ErrUnsupported, fn)
	}
	c := bvin.And(cArg.Term, bvin.Int32(0xff))
	if fn == cir.FnStrrchr {
		last, found, err := e.lastOccurrence(s, p, c)
		if err != nil {
			return err
		}
		forkFound(found, p.Obj, last, NullValue(), nil)
		return nil
	}
	// Position of the first c: p + span over bytes != c. For strchr the
	// span also stops at NUL (miss -> NULL); for rawmemchr it ignores the
	// terminator, and a miss within the bounded buffer is UB.
	matchC := func(b *bv.Term) *bv.Bool { return bvin.BNot1(bvin.Eq(bvin.Zext(b, 32), c)) }
	span, err := e.spanTerm(s, p, matchC, fn == cir.FnRawmemchr)
	if err != nil {
		return err
	}
	stopOff := bvin.Add(p.Off, span)
	if fn == cir.FnStrchr {
		stopByte, err := e.selectByte(s, e.Objects[p.Obj], stopOff)
		if err != nil {
			return err
		}
		forkFound(bvin.Eq(bvin.Zext(stopByte, 32), c), p.Obj, stopOff, NullValue(), nil)
		return nil
	}
	// rawmemchr: found iff the stop position is inside the buffer.
	found := bvin.Ult(stopOff, bvin.Int32(int64(len(e.Objects[p.Obj]))))
	forkFound(found, p.Obj, stopOff, Value{}, ErrOOB)
	return nil
}

// lastOccurrence builds the offset term of the last occurrence of character
// c in the live string at p, plus the found condition.
func (e *Engine) lastOccurrence(s *state, p Value, c *bv.Term) (*bv.Term, *bv.Bool, error) {
	bvin := e.In
	buf, err := e.stringObject(s, p, "strrchr")
	if err != nil {
		return nil, nil, err
	}
	off, ok := p.Off.IsConst()
	if !ok {
		return nil, nil, fmt.Errorf("%w: strrchr from a symbolic offset", ErrUnsupported)
	}
	from := int(int32(off))
	if from < 0 || from >= len(buf) {
		return nil, nil, ErrOOB
	}
	// Walk forward through the live string, updating the last match; also
	// handle c == NUL (which matches the terminator, per ISO C).
	last := bvin.Int32(-1)
	alive := bv.True
	for k := from; k < len(buf); k++ {
		isNul := bvin.Eq(buf[k], bvin.Byte(0))
		matches := bvin.BAnd2(alive, bvin.Eq(bvin.Zext(buf[k], 32), c))
		last = bvin.Ite(matches, bvin.Int32(int64(k)), last)
		alive = bvin.BAnd2(alive, bvin.BNot1(isNul))
	}
	found := bvin.Ne(last, bvin.Int32(-1))
	return last, found, nil
}
