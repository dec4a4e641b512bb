package symex

import (
	"fmt"

	"stringloops/internal/bv"
	"stringloops/internal/cir"
	"stringloops/internal/engine"
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

// spanTerm builds the strspn/strcspn result (as a 32-bit term) of the string
// object from a possibly-symbolic offset. match decides per-byte membership;
// the span stops at NUL regardless.
func (e *Engine) spanTerm(s *state, p Value, match func(*bv.Term) *bv.Bool) (*bv.Term, error) {
	bvin := e.In
	if !p.IsPtr {
		return nil, fmt.Errorf("%w: span of integer", ErrUnsupported)
	}
	if p.IsNull() {
		return nil, ErrNullDeref
	}
	if s.cell(p.Obj) != nil || p.Obj >= len(e.Objects) {
		return nil, fmt.Errorf("%w: span of non-string object", ErrUnsupported)
	}
	buf := e.Objects[p.Obj]
	if v, ok := buf[len(buf)-1].IsConst(); !ok || v != 0 {
		return nil, fmt.Errorf("%w: span of unterminated buffer", ErrUnsupported)
	}
	// spanFrom[k]: span length starting at k.
	spanFrom := make([]*bv.Term, len(buf))
	spanFrom[len(buf)-1] = bvin.Int32(0)
	for k := len(buf) - 2; k >= 0; k-- {
		ok := bvin.BAnd2(bvin.Ne(buf[k], bvin.Byte(0)), match(buf[k]))
		spanFrom[k] = bvin.Ite(ok, bvin.Add(spanFrom[k+1], bvin.Int32(1)), bvin.Int32(0))
	}
	if v, ok := p.Off.IsConst(); ok {
		k := int(int32(v))
		if k < 0 || k >= len(buf) {
			return nil, ErrOOB
		}
		return spanFrom[k], nil
	}
	inBounds := bvin.Ult(p.Off, bvin.Int32(int64(len(buf))))
	newCond := bvin.BAnd2(s.cond, inBounds)
	if newCond == bv.False || (e.CheckFeasibility && !e.feasible(s, newCond)) {
		return nil, ErrOOB
	}
	s.cond = newCond
	val := spanFrom[len(buf)-1]
	for k := len(buf) - 2; k >= 0; k-- {
		val = bvin.Ite(bvin.Eq(p.Off, bvin.Int32(int64(k))), spanFrom[k], val)
	}
	return val, nil
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

// stringCall handles the string.h intrinsics that may appear in refactored
// or idiom-rewritten code. Searching functions (strchr, strrchr, strpbrk,
// rawmemchr) fork the state (found vs miss) and schedule the successors
// themselves through the run's scheduler.
func (e *Engine) stringCall(s *state, f *cir.Func, in *cir.Instr) (handled bool, err error) {
	bvin := e.In
	argVal := func(i int) Value { return e.operand(s, f, in.Args[i]) }

	// forkFound schedules the found (pointer result under cond) and miss
	// (missVal or error under !cond) successors.
	forkFound := func(found *bv.Bool, obj int, offTerm *bv.Term, missVal Value, missErr error) {
		e.Budget.Add(engine.Forks, 1)
		miss := s.fork()
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

	switch in.Sub {
	case "strspn", "strcspn":
		if len(in.Args) != 2 {
			return true, fmt.Errorf("%w: %s arity", ErrUnsupported, in.Sub)
		}
		set, err := e.constSetArg(argVal(1))
		if err != nil {
			return true, err
		}
		span, err := e.spanTerm(s, argVal(0), setMatcher(bvin, set, in.Sub == "strcspn"))
		if err != nil {
			return true, err
		}
		s.regs[in.Res] = IntValue(span)
		return true, nil

	case "strchr", "rawmemchr":
		if len(in.Args) != 2 {
			return true, fmt.Errorf("%w: %s arity", ErrUnsupported, in.Sub)
		}
		p := argVal(0)
		cArg := argVal(1)
		if cArg.IsPtr {
			return true, fmt.Errorf("%w: %s character is a pointer", ErrUnsupported, in.Sub)
		}
		c := bvin.And(cArg.Term, bvin.Int32(0xff))
		// Position of the first c: p + span over bytes != c. For strchr the
		// span also stops at NUL (miss -> NULL); for rawmemchr it ignores
		// the terminator, and a miss within the bounded buffer is UB.
		matchC := func(b *bv.Term) *bv.Bool { return bvin.BNot1(bvin.Eq(bvin.Zext(b, 32), c)) }
		var span *bv.Term
		var err error
		if in.Sub == "strchr" {
			span, err = e.spanTerm(s, p, matchC)
		} else {
			span, err = e.rawSpanTerm(s, p, matchC)
		}
		if err != nil {
			return true, err
		}
		stopOff := bvin.Add(p.Off, span)
		var found *bv.Bool
		if in.Sub == "strchr" {
			stopByte, err := e.selectByte(s, e.Objects[p.Obj], stopOff)
			if err != nil {
				return true, err
			}
			found = bvin.Eq(bvin.Zext(stopByte, 32), c)
			forkFound(found, p.Obj, stopOff, NullValue(), nil)
			return true, nil
		}
		// rawmemchr: found iff the stop position is inside the buffer.
		found = bvin.Ult(stopOff, bvin.Int32(int64(len(e.Objects[p.Obj]))))
		forkFound(found, p.Obj, stopOff, Value{}, ErrOOB)
		return true, nil

	case "strpbrk":
		if len(in.Args) != 2 {
			return true, fmt.Errorf("%w: strpbrk arity", ErrUnsupported)
		}
		p := argVal(0)
		set, err := e.constSetArg(argVal(1))
		if err != nil {
			return true, err
		}
		span, err := e.spanTerm(s, p, setMatcher(bvin, set, true))
		if err != nil {
			return true, err
		}
		stopOff := bvin.Add(p.Off, span)
		stopByte, err := e.selectByte(s, e.Objects[p.Obj], stopOff)
		if err != nil {
			return true, err
		}
		found := setMatcher(bvin, set, false)(stopByte)
		forkFound(found, p.Obj, stopOff, NullValue(), nil)
		return true, nil

	case "strrchr":
		if len(in.Args) != 2 {
			return true, fmt.Errorf("%w: strrchr arity", ErrUnsupported)
		}
		p := argVal(0)
		cArg := argVal(1)
		if cArg.IsPtr {
			return true, fmt.Errorf("%w: strrchr character is a pointer", ErrUnsupported)
		}
		c := bvin.And(cArg.Term, bvin.Int32(0xff))
		last, found, err := e.lastOccurrence(s, p, c)
		if err != nil {
			return true, err
		}
		forkFound(found, p.Obj, last, NullValue(), nil)
		return true, nil
	}
	return false, nil
}

// rawSpanTerm is spanTerm without the NUL stop — the rawmemchr scan. A scan
// that leaves the bounded buffer yields an offset equal to the buffer size.
func (e *Engine) rawSpanTerm(s *state, p Value, match func(*bv.Term) *bv.Bool) (*bv.Term, error) {
	bvin := e.In
	if !p.IsPtr {
		return nil, fmt.Errorf("%w: span of integer", ErrUnsupported)
	}
	if p.IsNull() {
		return nil, ErrNullDeref
	}
	if s.cell(p.Obj) != nil || p.Obj >= len(e.Objects) {
		return nil, fmt.Errorf("%w: span of non-string object", ErrUnsupported)
	}
	buf := e.Objects[p.Obj]
	spanFrom := make([]*bv.Term, len(buf)+1)
	spanFrom[len(buf)] = bvin.Int32(0)
	for k := len(buf) - 1; k >= 0; k-- {
		spanFrom[k] = bvin.Ite(match(buf[k]), bvin.Add(spanFrom[k+1], bvin.Int32(1)), bvin.Int32(0))
	}
	if v, ok := p.Off.IsConst(); ok {
		k := int(int32(v))
		if k < 0 || k >= len(buf) {
			return nil, ErrOOB
		}
		return spanFrom[k], nil
	}
	inBounds := bvin.Ult(p.Off, bvin.Int32(int64(len(buf))))
	newCond := bvin.BAnd2(s.cond, inBounds)
	if newCond == bv.False || (e.CheckFeasibility && !e.feasible(s, newCond)) {
		return nil, ErrOOB
	}
	s.cond = newCond
	val := spanFrom[len(buf)]
	for k := len(buf) - 1; k >= 0; k-- {
		val = bvin.Ite(bvin.Eq(p.Off, bvin.Int32(int64(k))), spanFrom[k], val)
	}
	return val, nil
}

// lastOccurrence builds the offset term of the last occurrence of character
// c in the live string at p, plus the found condition.
func (e *Engine) lastOccurrence(s *state, p Value, c *bv.Term) (*bv.Term, *bv.Bool, error) {
	bvin := e.In
	if !p.IsPtr {
		return nil, nil, fmt.Errorf("%w: strrchr of integer", ErrUnsupported)
	}
	if p.IsNull() {
		return nil, nil, ErrNullDeref
	}
	if s.cell(p.Obj) != nil || p.Obj >= len(e.Objects) {
		return nil, nil, fmt.Errorf("%w: strrchr of non-string object", ErrUnsupported)
	}
	off, ok := p.Off.IsConst()
	if !ok {
		return nil, nil, fmt.Errorf("%w: strrchr from a symbolic offset", ErrUnsupported)
	}
	buf := e.Objects[p.Obj]
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
