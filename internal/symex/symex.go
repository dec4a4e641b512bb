// Package symex is a forking symbolic executor over the cir IR — the role
// KLEE plays in the paper's artifact. It executes a function on symbolic
// string buffers (arrays of bit-vector byte terms), forking at branches whose
// condition is not constant under the path constraints, optionally checking
// feasibility with the SAT-backed bit-vector solver, and returning the set of
// terminal paths with their conditions and return values.
//
// It runs the program cir.Decode builds, the one cir.Machine runs
// concretely: opcode, comparison and intrinsic enums, operands resolved to
// register, string-literal and constant slots, one phi copy list per
// control-flow edge, and malformed IR decoded to traps. The executor
// supports exactly the shapes the paper's loops need: one or more read-only
// string objects, integer locals, pointer arithmetic, the ctype.h character
// intrinsics, and undefined-behaviour detection (out-of-bounds reads, null
// dereferences) as error paths.
package symex

import (
	"errors"
	"fmt"
	"slices"

	"stringloops/internal/bv"
	"stringloops/internal/cir"
	"stringloops/internal/engine"
	"stringloops/internal/faultpoint"
	"stringloops/internal/obs"
	"stringloops/internal/qcache"
	"stringloops/internal/sat"
)

// Value is a symbolic IR value: either a 32-bit integer term or a pointer
// (concrete object id + 32-bit offset term). The null pointer has Obj == -1.
type Value struct {
	IsPtr bool
	Term  *bv.Term // integer value when !IsPtr
	Obj   int
	Off   *bv.Term // offset when IsPtr and Obj >= 0
}

// IntValue wraps a 32-bit term.
func IntValue(t *bv.Term) Value { return Value{Term: t} }

// ConstValue wraps a constant integer built with the given interner.
func ConstValue(in *bv.Interner, v int64) Value { return Value{Term: in.Int32(v)} }

// PtrValue builds a pointer value.
func PtrValue(obj int, off *bv.Term) Value { return Value{IsPtr: true, Obj: obj, Off: off} }

// NullValue is the null pointer.
func NullValue() Value { return Value{IsPtr: true, Obj: -1} }

// IsNull reports whether v is the null pointer.
func (v Value) IsNull() bool { return v.IsPtr && v.Obj == -1 }

// Path is one terminal execution path.
type Path struct {
	Cond *bv.Bool
	Ret  Value
	Err  error // nil for a normal return
}

// Errors attached to failing paths.
var (
	// ErrOOB is an out-of-bounds read (C undefined behaviour).
	ErrOOB = errors.New("symex: out-of-bounds access")
	// ErrNullDeref is a null-pointer dereference.
	ErrNullDeref = errors.New("symex: null dereference")
	// ErrStepLimit means one path exceeded the step budget.
	ErrStepLimit = errors.New("symex: step limit exceeded")
	// ErrUnsupported marks operations outside the modelled subset.
	ErrUnsupported = errors.New("symex: unsupported operation")
	// ErrTimeout means the whole run exhausted its budget. It wraps
	// engine.ErrBudget, so callers at any layer can classify it as
	// retryable exhaustion with errors.Is(err, engine.ErrBudget).
	ErrTimeout = fmt.Errorf("symex: budget exhausted (%w)", engine.ErrBudget)
	// ErrPathLimit means the run exceeded its path budget — a resource
	// cap, so it too wraps engine.ErrBudget.
	ErrPathLimit = fmt.Errorf("symex: path limit exceeded (%w)", engine.ErrBudget)
)

// Engine executes functions against a fixed set of symbolic data objects.
type Engine struct {
	// Config carries the pipeline settings: Merge picks the scheduler and
	// Faults arms the symex injection sites. Disk reaches the engine only
	// through Cache (see Config.NewEngine).
	Config
	// Objects are the read-only data objects (symbolic string buffers); a
	// pointer value with Obj == i indexes Objects[i]. Each buffer's final
	// term should be the NUL constant for C strings.
	Objects [][]*bv.Term
	// MaxSteps bounds instructions per path (default 1<<16).
	MaxSteps int
	// MaxPaths bounds the number of terminal paths (default 1<<20).
	MaxPaths int
	// CheckFeasibility enables a solver call at every fork, pruning
	// infeasible sides — KLEE's behaviour, and the cost centre of the
	// vanilla configuration in §4.3.
	CheckFeasibility bool
	// In is the interner all terms of this run are built with. Run defaults
	// it to a fresh interner; callers that feed the engine terms they built
	// themselves (Objects, argument values) must pass the interner those
	// terms came from.
	In *bv.Interner
	// Budget carries run-wide cancellation and resource accounting: the fork
	// loop polls it between states, and it is threaded into every
	// feasibility query. It is also the one place the run's work counts
	// (runs, paths, steps, forks, feasibility queries, merges) are kept.
	// Nil means unlimited and uncounted.
	Budget *engine.Budget
	// Cache routes feasibility queries through the slicing/caching/
	// incremental solver chain; nil is the direct solver, a fresh solver
	// per query. It must be scoped to the same interner as In — forks
	// sharing a path prefix then re-use its encoding and cached verdicts.
	Cache *qcache.Cache

	// Run-local plumbing, rebound at every Run entry: sched is the active
	// work-list policy (stackSched, or mergeSched under Merge), emit appends
	// a terminal path to the run's result set. Fields rather than parameters
	// so branch and the intrinsics need not thread them; an Engine runs one
	// Run at a time.
	sched scheduler
	emit  func(*state, Value, error)
	// injectedErr latches a SymexForkFail firing inside a fork step (which
	// has no error return); the work loop surfaces it on its next iteration.
	injectedErr error
	// prog is the run's decoded program, strBase the object id of its first
	// string literal, and phis the scratch of an edge's parallel copies.
	prog    *cir.Program
	strBase int
	phis    []Value
}

// state is one in-flight execution path.
type state struct {
	regs  []Value
	cells []cell
	cond  *bv.Bool
	// decided is the simplified condition the state's last feasibility query
	// found Sat, or nil; forks copy it and a merged state starts without
	// one. A check whose condition simplifies to it is answered without a
	// query (see feasible).
	decided *bv.Bool
	// pc is the state's next instruction in the decoded program. A non-nil
	// pending is the edge it has yet to cross: its target's phi copies, then
	// the jump that sets pc.
	pc      int32
	pending *cir.Edge
	steps   int
}

// cell is the memory object of one alloca: the object id its latest
// execution minted and the value stored there. A state keeps one cell per
// alloca it has executed and pruning has not dropped. Executing the alloca
// again reuses the slot: in C the earlier object's lifetime ended when
// control left its block, so no well-defined access can reach it.
type cell struct {
	id  int
	reg int // the alloca's result register
	val Value
}

// cell returns the cell holding object id, or nil when id is not a live
// cell of s.
func (s *state) cell(id int) *cell {
	for i := range s.cells {
		if s.cells[i].id == id {
			return &s.cells[i]
		}
	}
	return nil
}

// alloc gives the alloca at register reg the fresh object id, with a zero
// value.
func (s *state) alloc(reg, id int) {
	for i := range s.cells {
		if s.cells[i].reg == reg {
			s.cells[i] = cell{id: id, reg: reg}
			return
		}
	}
	s.cells = append(s.cells, cell{id: id, reg: reg})
}

func (s *state) fork() *state {
	ns := &state{
		regs:    make([]Value, len(s.regs)),
		cells:   slices.Clone(s.cells),
		cond:    s.cond,
		decided: s.decided,
		pc:      s.pc,
		pending: s.pending,
		steps:   s.steps,
	}
	copy(ns.regs, s.regs)
	return ns
}

// emitHook, when non-nil, sees every state a run emits as a terminal path.
// Tests set it to inspect the states' memory.
var emitHook func(*state)

// Run symbolically executes f on args under the initial condition init
// (pass bv.True for none) and returns all terminal paths. It runs the
// program cir.Decode builds for f, decoded afresh for every run. Malformed
// IR ends in an error wrapping ErrUnsupported that carries cir's text,
// never in a panic: on the run when f cannot start (a parameter register
// out of range, no blocks), otherwise on each path that reaches the flaw.
func (e *Engine) Run(f *cir.Func, args []Value, init *bv.Bool) (rpaths []Path, _ error) {
	if e.Faults.Fire(faultpoint.SymexPanic) {
		panic(faultpoint.InjectedPanic{
			Site: faultpoint.SymexPanic,
			Seq:  e.Faults.Fired(faultpoint.SymexPanic),
		})
	}
	e.Budget.Add(engine.SymexRuns, 1)
	span := e.Budget.Tracer().Start("phase/symex", obs.Attr{Key: "func", Val: f.Name})
	defer func() {
		span.SetInt("paths", int64(len(rpaths)))
		span.End()
	}()
	e.injectedErr = nil
	if e.MaxSteps <= 0 {
		e.MaxSteps = 1 << 16
	}
	if e.MaxPaths <= 0 {
		e.MaxPaths = 1 << 20
	}
	if e.In == nil {
		e.In = bv.NewInterner()
	}
	bvin := e.In
	if len(args) != len(f.Params) {
		return nil, fmt.Errorf("symex: %s expects %d args, got %d", f.Name, len(f.Params), len(args))
	}
	prog := cir.Decode(f)
	if prog.Start >= 0 {
		return nil, malformed(prog.TrapErr(prog.Start))
	}
	e.prog = prog
	st := &state{
		regs:    make([]Value, f.NumRegs),
		cond:    init,
		pending: &prog.Edges[prog.Entry],
	}
	for i, p := range f.Params {
		st.regs[p.Reg] = args[i]
	}
	// String literals become extra concrete objects.
	e.strBase = len(e.Objects)
	for _, slit := range f.StrLits {
		buf := make([]*bv.Term, len(slit)+1)
		for i := 0; i < len(slit); i++ {
			buf[i] = bvin.Byte(slit[i])
		}
		buf[len(slit)] = bvin.Byte(0)
		e.Objects = append(e.Objects, buf)
	}
	defer func() { e.Objects = e.Objects[:e.strBase] }()

	var paths []Path
	nextCell := 1 << 20 // cell ids; disjoint from data-object ids

	e.emit = func(s *state, ret Value, err error) {
		if emitHook != nil {
			emitHook(s)
		}
		paths = append(paths, Path{Cond: s.cond, Ret: ret, Err: err})
		e.Budget.Add(engine.Paths, 1)
	}
	emit := e.emit
	if e.Merge {
		e.sched = newMergeSched(e, prog)
	} else {
		e.sched = &stackSched{}
	}
	e.sched.push(st)

	code := prog.Code
	for {
		if e.injectedErr != nil {
			return paths, e.injectedErr
		}
		if e.Budget.Exceeded() {
			return paths, ErrTimeout
		}
		if len(paths) > e.MaxPaths {
			return paths, ErrPathLimit
		}
		s, ok := e.sched.pop()
		if !ok {
			break
		}
		// Steps accumulate on the state and the segment's delta is charged
		// after the instruction loop — one batched budget charge per
		// scheduled segment keeps the per-instruction path free of shared
		// writes.
		stepsBase := s.steps

		// Cross the edge the state was scheduled on (the merging scheduler
		// has already crossed it for states that went through a bucket).
		if s.pending != nil && !e.cross(s) {
			continue
		}

	instrLoop:
		for {
			pc := s.pc
			in := &code[pc]
			s.pc++
			if in.Op == cir.DFall {
				emit(s, Value{}, malformed(prog.TrapErr(in.A)))
				break
			}
			s.steps++
			if s.steps > e.MaxSteps {
				emit(s, Value{}, ErrStepLimit)
				break
			}
			var v Value
			var err error
			switch in.Op {
			case cir.DAlloca:
				id := nextCell
				nextCell++
				s.alloc(int(in.Res), id)
				v = PtrValue(id, bvin.Int32(0))
			case cir.DLoad1s, cir.DLoad1u, cir.DLoad4:
				v, err = e.load(s, in)
			case cir.DStore1, cir.DStore4:
				if err := e.store(s, in); err != nil {
					emit(s, Value{}, err)
					break instrLoop
				}
				continue
			case cir.DCmp:
				v, err = e.cmpop(s, pc, in)
			case cir.DGep:
				p := e.read(s, in.A)
				idx := e.read(s, in.B)
				if !p.IsPtr || idx.IsPtr {
					err = fmt.Errorf("%w: bad gep operands", ErrUnsupported)
				} else if p.IsNull() {
					err = ErrNullDeref
				} else {
					v = PtrValue(p.Obj, bvin.Add(p.Off, bvin.MulC(idx.Term, int64(in.C))))
				}
			case cir.DCall:
				switch fn := cir.Intrinsic(in.Aux); fn {
				case cir.FnStrchr, cir.FnRawmemchr, cir.FnStrpbrk, cir.FnStrrchr:
					// The call forks; its successors (if feasible) are on
					// the worklist and resume after the call.
					if err := e.searchCall(s, in, fn); err != nil {
						emit(s, Value{}, err)
					}
					break instrLoop
				default:
					v, err = e.call(s, pc, in, fn)
				}
			case cir.DBr:
				s.pending = &prog.Edges[in.B]
				e.sched.push(s)
				break instrLoop
			case cir.DCondBr:
				c := e.read(s, in.A)
				var condTrue *bv.Bool
				if c.IsPtr {
					condTrue = bvin.BoolConst(!c.IsNull())
				} else {
					condTrue = bvin.Ne(c.Term, bvin.Int32(0))
				}
				e.branch(s, condTrue, &prog.Edges[in.B], &prog.Edges[in.C])
				break instrLoop
			case cir.DRet:
				emit(s, e.read(s, in.A), nil)
				break instrLoop
			case cir.DRetVoid:
				emit(s, Value{}, nil)
				break instrLoop
			case cir.DTrap:
				emit(s, Value{}, malformed(prog.TrapErr(in.A)))
				break instrLoop
			case cir.DNop:
				emit(s, Value{}, fmt.Errorf("%w: opcode %d", ErrUnsupported, in.Aux))
				break instrLoop
			default: // DAdd through DBinBad
				v, err = e.binop(s, pc, in)
			}
			if err != nil {
				emit(s, Value{}, err)
				break
			}
			s.regs[in.Res] = v
		}
		e.Budget.Add(engine.Steps, int64(s.steps-stepsBase))
	}
	// A fork failure on the final worklist item drains the list before the
	// loop head re-checks the latch; surface it here too, or a partial path
	// set would masquerade as a complete one.
	if e.injectedErr != nil {
		return paths, e.injectedErr
	}
	return paths, nil
}

// malformed marks cir's error for IR that neither interpreter can run as
// unsupported.
func malformed(err error) error { return fmt.Errorf("%w: %w", ErrUnsupported, err) }

// read returns the value in slot: a register, then a string literal's
// object (appended after the engine's own objects), then a constant, which
// is interned at every read.
func (e *Engine) read(s *state, slot int32) Value {
	if int(slot) < len(s.regs) {
		return s.regs[slot]
	}
	obj := e.strBase + int(slot) - len(s.regs)
	if obj < len(e.Objects) {
		return PtrValue(obj, e.In.Int32(0))
	}
	if c := e.prog.Consts[obj-len(e.Objects)]; !c.IsPtr {
		return ConstValue(e.In, c.Int)
	}
	return NullValue()
}

// cross moves s across its pending edge: the target's phi copies, read in
// parallel, then the jump to the target's first instruction. On a malformed
// edge it ends s with cir's error instead and reports false. The merging
// scheduler crosses at park time, while the state still names its edge
// (after a merge the edge is ambiguous); the work loop crosses every other
// edge when it pops the state.
func (e *Engine) cross(s *state) bool {
	ed := s.pending
	s.pending = nil
	if ed.Trap >= 0 {
		e.emit(s, Value{}, malformed(e.prog.TrapErr(ed.Trap)))
		return false
	}
	copies := e.prog.Copies[ed.From:ed.To]
	vals := e.phis[:0]
	for _, c := range copies {
		vals = append(vals, e.read(s, c.Src))
	}
	for i, c := range copies {
		s.regs[c.Dst] = vals[i]
	}
	e.phis = vals
	s.pc = ed.PC
	return true
}

// branch forks s on cond, scheduling the feasible sides: across edge then
// where cond holds, across els where it does not.
func (e *Engine) branch(s *state, cond *bv.Bool, then, els *cir.Edge) {
	bvin := e.In
	take := func(st *state, c *bv.Bool, ed *cir.Edge) {
		st.cond = bvin.BAnd2(st.cond, c)
		if st.cond == bv.False {
			return
		}
		if e.CheckFeasibility && !e.feasible(st, st.cond) {
			return
		}
		st.pending = ed
		e.sched.push(st)
	}
	switch cond {
	case bv.True:
		take(s, bv.True, then)
		return
	case bv.False:
		take(s, bv.True, els)
		return
	}
	other := e.forkStep(s)
	if other == nil {
		return
	}
	take(s, cond, then)
	take(other, bvin.BNot1(cond), els)
}

// forkStep is the one fork step of branch and the searching string calls:
// it counts the fork, consults the SymexForkFail site and returns a copy of
// s. A failed fork poisons the whole run, not just this state: partial path
// sets must never masquerade as complete ones. So on a firing forkStep
// latches the error, which the work loop surfaces on its next iteration,
// and returns nil.
func (e *Engine) forkStep(s *state) *state {
	e.Budget.Add(engine.Forks, 1)
	if e.Faults.Fire(faultpoint.SymexForkFail) {
		e.injectedErr = fmt.Errorf("%w: injected fork failure (%w)", ErrTimeout, faultpoint.ErrInjected)
		return nil
	}
	return s.fork()
}

// feasible asks the solver whether cond, which extends s's path condition,
// is satisfiable; on budget exhaustion it conservatively answers true. A
// cond that simplifies to the condition s last found feasible is answered
// true without a query: it is equivalent to a condition already shown
// satisfiable.
func (e *Engine) feasible(s *state, cond *bv.Bool) bool {
	// Value-numbering fast path: merged path conditions routinely simplify
	// to a constant (a join disjunction folding to True, or a branch
	// refinement contradicting an ite guard), and a memoized simplifier hit
	// is O(1) — so a constant verdict here skips the solver query entirely
	// and is not counted as one. Neither is a repeat of the condition the
	// state last found feasible, which a branch the path already implies
	// simplifies back to.
	sc := e.In.SimplifyBool(cond)
	switch sc {
	case bv.True:
		return true
	case bv.False:
		return false
	case s.decided:
		return true
	}
	e.Budget.Add(engine.SolverQueries, 1)
	// The cache simplifies sc again; the second pass is not idempotent on
	// merged shapes (DESIGN §8). A nil cache solves sc as is.
	st := e.Cache.Decide(e.Budget, sc)
	if st == sat.Unsat {
		return false
	}
	// An Unknown answer keeps the state, conservatively, but proves nothing:
	// only a Sat answer may let later implied branches skip their query.
	if st == sat.Sat {
		s.decided = sc
	}
	return true
}

// load reads a cell directly and a string object's byte through
// selectByte.
func (e *Engine) load(s *state, in *cir.DInstr) (Value, error) {
	bvin := e.In
	p := e.read(s, in.A)
	if !p.IsPtr {
		return Value{}, fmt.Errorf("%w: load through integer", ErrUnsupported)
	}
	if p.IsNull() {
		return Value{}, ErrNullDeref
	}
	if c := s.cell(p.Obj); c != nil {
		return c.val, nil
	}
	if p.Obj >= len(e.Objects) {
		return Value{}, ErrOOB
	}
	if in.Op == cir.DLoad4 {
		return Value{}, fmt.Errorf("%w: %q load from string object", ErrUnsupported, in.Op)
	}
	b, err := e.selectByte(s, e.Objects[p.Obj], p.Off)
	if err != nil {
		return Value{}, err
	}
	if in.Op == cir.DLoad1s {
		return IntValue(bvin.Sext(b, 32)), nil
	}
	return IntValue(bvin.Zext(b, 32)), nil
}

// selectByte reads buf[off] with readAt. Out-of-bounds reads on feasible
// offsets surface as ErrOOB paths.
func (e *Engine) selectByte(s *state, buf []*bv.Term, off *bv.Term) (*bv.Term, error) {
	return e.readAt(s, buf, len(buf), off, true)
}

func (e *Engine) store(s *state, in *cir.DInstr) error {
	p := e.read(s, in.B)
	v := e.read(s, in.A)
	if !p.IsPtr {
		return fmt.Errorf("%w: store through integer", ErrUnsupported)
	}
	if p.IsNull() {
		return ErrNullDeref
	}
	if c := s.cell(p.Obj); c != nil {
		c.val = v
		return nil
	}
	return fmt.Errorf("%w: store into string object (summarised loops are read-only)", ErrUnsupported)
}

func (e *Engine) binop(s *state, pc int32, in *cir.DInstr) (Value, error) {
	bvin := e.In
	a := e.read(s, in.A)
	b := e.read(s, in.B)
	switch in.Op {
	case cir.DBinBad:
		return Value{}, malformed(e.prog.Fault(pc, a.IsPtr, b.IsPtr))
	case cir.DPsub:
		if !a.IsPtr || !b.IsPtr || a.Obj != b.Obj || a.IsNull() {
			return Value{}, fmt.Errorf("%w: pointer difference across objects", ErrUnsupported)
		}
		return IntValue(bvin.Sub(a.Off, b.Off)), nil
	}
	if a.IsPtr || b.IsPtr {
		return Value{}, fmt.Errorf("%w: pointer operand in %s", ErrUnsupported, in.Op)
	}
	x, y := a.Term, b.Term
	switch in.Op {
	case cir.DAdd:
		return IntValue(bvin.Add(x, y)), nil
	case cir.DSub:
		return IntValue(bvin.Sub(x, y)), nil
	case cir.DAnd:
		return IntValue(bvin.And(x, y)), nil
	case cir.DOr:
		return IntValue(bvin.Or(x, y)), nil
	case cir.DXor:
		return IntValue(bvin.Xor(x, y)), nil
	case cir.DMul:
		if c, ok := y.IsConst(); ok {
			return IntValue(bvin.MulC(x, int64(int32(c)))), nil
		}
		if c, ok := x.IsConst(); ok {
			return IntValue(bvin.MulC(y, int64(int32(c)))), nil
		}
		return Value{}, fmt.Errorf("%w: symbolic multiplication", ErrUnsupported)
	case cir.DDiv, cir.DRem:
		c, ok := y.IsConst()
		if !ok || c == 0 || (c&(c-1)) != 0 {
			return Value{}, fmt.Errorf("%w: division by non-power-of-two", ErrUnsupported)
		}
		k := 0
		for c>>uint(k+1) != 0 {
			k++
		}
		if in.Op == cir.DDiv {
			// Valid only for non-negative dividends; the loops that divide
			// (pointer differences scaled by element size) satisfy this.
			return IntValue(bvin.LshrC(x, k)), nil
		}
		return IntValue(bvin.And(x, bvin.Int32(int64(c-1)))), nil
	}
	// DShl, DShr, DSar
	c, ok := y.IsConst()
	if !ok {
		return Value{}, fmt.Errorf("%w: symbolic shift amount", ErrUnsupported)
	}
	k := int(c & 31)
	switch in.Op {
	case cir.DShl:
		return IntValue(bvin.ShlC(x, k)), nil
	case cir.DShr:
		return IntValue(bvin.LshrC(x, k)), nil
	}
	return IntValue(bvin.AshrC(x, k)), nil
}

func boolToInt(bvin *bv.Interner, b *bv.Bool) *bv.Term {
	return bvin.Ite(b, bvin.Int32(1), bvin.Int32(0))
}

func (e *Engine) cmpop(s *state, pc int32, in *cir.DInstr) (Value, error) {
	bvin := e.In
	a := e.read(s, in.A)
	b := e.read(s, in.B)
	k := cir.CmpKind(in.Aux)
	if k == cir.CmpBad {
		return Value{}, malformed(e.prog.Fault(pc, a.IsPtr, b.IsPtr))
	}
	if !a.IsPtr && !b.IsPtr {
		return IntValue(boolToInt(bvin, e.intCmp(k, a.Term, b.Term))), nil
	}
	if !a.IsPtr || !b.IsPtr {
		return Value{}, fmt.Errorf("%w: mixed comparison", ErrUnsupported)
	}
	if k == cir.CmpEq || k == cir.CmpNe {
		var eq *bv.Bool
		switch {
		case a.IsNull() && b.IsNull():
			eq = bv.True
		case a.IsNull() != b.IsNull():
			eq = bv.False
		case a.Obj != b.Obj:
			eq = bv.False
		default:
			eq = bvin.Eq(a.Off, b.Off)
		}
		if k == cir.CmpNe {
			eq = bvin.BNot1(eq)
		}
		return IntValue(boolToInt(bvin, eq)), nil
	}
	if a.IsNull() || b.IsNull() || a.Obj != b.Obj {
		return Value{}, fmt.Errorf("%w: relational pointer comparison across objects", ErrUnsupported)
	}
	// Pointer order within one object is the order of the (possibly
	// negative) byte offsets, so compare them signed: the unsigned kinds
	// follow the signed ones in the same order.
	if k >= cir.CmpUlt {
		k -= cir.CmpUlt - cir.CmpSlt
	}
	return IntValue(boolToInt(bvin, e.intCmp(k, a.Off, b.Off))), nil
}

// intCmp builds comparison k of two integer terms; k is not CmpBad.
func (e *Engine) intCmp(k cir.CmpKind, x, y *bv.Term) *bv.Bool {
	bvin := e.In
	switch k {
	case cir.CmpEq:
		return bvin.Eq(x, y)
	case cir.CmpNe:
		return bvin.Ne(x, y)
	case cir.CmpSlt:
		return bvin.Slt(x, y)
	case cir.CmpSle:
		return bvin.Sle(x, y)
	case cir.CmpSgt:
		return bvin.Slt(y, x)
	case cir.CmpSge:
		return bvin.Sle(y, x)
	case cir.CmpUlt:
		return bvin.Ult(x, y)
	case cir.CmpUle:
		return bvin.Ule(x, y)
	case cir.CmpUgt:
		return bvin.Ult(y, x)
	}
	return bvin.Ule(y, x) // CmpUge
}

// call runs the intrinsics that return a value: strspn and strcspn
// (intrinsics.go), strlen and the ctype.h character functions. A call that
// cir.Machine cannot run either (a character function on the wrong
// arguments, an unknown callee) fails with the machine's text.
func (e *Engine) call(s *state, pc int32, in *cir.DInstr, fn cir.Intrinsic) (Value, error) {
	bvin := e.In
	args := e.prog.CallArgs[in.A : in.A+in.B]
	if fn == cir.FnStrspn || fn == cir.FnStrcspn {
		return e.spanCall(s, fn, args)
	}
	if len(args) != 1 {
		if fn >= cir.FnIsdigit {
			return Value{}, malformed(e.prog.Fault(pc))
		}
		return Value{}, fmt.Errorf("%w: call %s", ErrUnsupported, fn)
	}
	a := e.read(s, args[0])
	switch {
	case fn == cir.FnStrlen:
		return e.strlenCall(s, a)
	case fn == cir.FnUnknown:
		return Value{}, malformed(e.prog.Fault(pc, a.IsPtr))
	case a.IsPtr:
		return Value{}, fmt.Errorf("%w: pointer argument to %s", ErrUnsupported, fn)
	}
	c := a.Term
	between := func(lo, hi byte) *bv.Bool {
		return bvin.BAnd2(bvin.Sle(bvin.Int32(int64(lo)), c), bvin.Sle(c, bvin.Int32(int64(hi))))
	}
	oneOf := func(chars ...byte) *bv.Bool {
		out := bv.False
		for _, ch := range chars {
			out = bvin.BOr2(out, bvin.Eq(c, bvin.Int32(int64(ch))))
		}
		return out
	}
	switch fn {
	case cir.FnIsdigit:
		return IntValue(boolToInt(bvin, between('0', '9'))), nil
	case cir.FnIsspace:
		return IntValue(boolToInt(bvin, oneOf(' ', '\t', '\n', '\r', '\v', '\f'))), nil
	case cir.FnIsblank:
		return IntValue(boolToInt(bvin, oneOf(' ', '\t'))), nil
	case cir.FnIsupper:
		return IntValue(boolToInt(bvin, between('A', 'Z'))), nil
	case cir.FnIslower:
		return IntValue(boolToInt(bvin, between('a', 'z'))), nil
	case cir.FnIsalpha:
		return IntValue(boolToInt(bvin, bvin.BOr2(between('A', 'Z'), between('a', 'z')))), nil
	case cir.FnIsalnum:
		return IntValue(boolToInt(bvin, bvin.BOrAll(between('0', '9'), between('A', 'Z'), between('a', 'z')))), nil
	case cir.FnToupper:
		return IntValue(bvin.Ite(between('a', 'z'), bvin.Sub(c, bvin.Int32(32)), c)), nil
	case cir.FnTolower:
		return IntValue(bvin.Ite(between('A', 'Z'), bvin.Add(c, bvin.Int32(32)), c)), nil
	case cir.FnPutchar:
		return a, nil
	}
	return Value{}, fmt.Errorf("%w: call to %q", ErrUnsupported, fn)
}
