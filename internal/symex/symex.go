// Package symex is a forking symbolic executor over the cir IR — the role
// KLEE plays in the paper's artifact. It executes a function on symbolic
// string buffers (arrays of bit-vector byte terms), forking at branches whose
// condition is not constant under the path constraints, optionally checking
// feasibility with the SAT-backed bit-vector solver, and returning the set of
// terminal paths with their conditions and return values.
//
// The executor supports exactly the shapes the paper's loops need: one or
// more read-only string objects, integer locals, pointer arithmetic, the
// ctype.h character intrinsics, and undefined-behaviour detection
// (out-of-bounds reads, null dereferences) as error paths.
package symex

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

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

// Stats counts work done by a run. It is a view refreshed from the engine's
// atomic counters at the end of every Run, so reading it between runs is
// race-free even when the runs happened on different goroutines.
type Stats struct {
	Paths         int
	Forks         int
	SolverQueries int
	SolverTime    time.Duration
	Steps         int
	// Merges counts state pairs folded at join points; MergeItes counts the
	// ite terms those folds built. Both stay zero unless Engine.Merge is set.
	Merges    int
	MergeItes int
	// Cache is a snapshot of the engine's query cache after the run (zero
	// when the engine solves without a cache).
	Cache qcache.Stats
}

// Engine executes functions against a fixed set of symbolic data objects.
type Engine struct {
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
	// Merge enables state merging: states arriving at join points
	// (cir.JoinPoints — branch reconvergence, loop headers, loop exits) are
	// parked and folded pairwise when compatible, so a loop over n symbolic
	// bytes schedules O(n) states instead of 2^n path suffixes (merge.go).
	// Merged loops whose cursors diverge symbolically rely on
	// CheckFeasibility (or MaxSteps) to terminate.
	Merge bool
	// SolverBudget bounds each feasibility query (SAT conflicts; 0 = off).
	SolverBudget int64
	// In is the interner all terms of this run are built with. Run defaults
	// it to a fresh interner; callers that feed the engine terms they built
	// themselves (Objects, argument values) must pass the interner those
	// terms came from.
	In *bv.Interner
	// Budget carries run-wide cancellation and resource accounting: the fork
	// loop polls it between states, forks are charged to it, and it is
	// threaded into every feasibility query. Nil means unlimited.
	Budget *engine.Budget
	// Cache, when non-nil, routes feasibility queries through the
	// slicing/caching/incremental solver chain instead of a fresh solver per
	// query. It must be scoped to the same interner as In — forks sharing a
	// path prefix then re-use its encoding and cached verdicts.
	Cache *qcache.Cache
	// Faults, when non-nil, arms the symex injection sites: SymexPanic
	// panics at Run entry with a faultpoint.InjectedPanic (the supervisor's
	// poison pill), and SymexForkFail aborts the run at a fork with
	// ErrTimeout, as if the fork had failed in a resource-starved engine.
	Faults *faultpoint.Registry

	// Stats is the exported view of the run counters; Run refreshes it from
	// the atomic counters below on exit. Do not increment it directly.
	Stats Stats

	// Run counters. Atomics, because drivers historically shared one Engine
	// value across -j workers; the exported Stats view above used to be
	// incremented in place, which raced. Hot-path counts (steps) are
	// accumulated state-locally and flushed here in batches, so the
	// instruction loop carries no atomics.
	nPaths     atomic.Int64
	nForks     atomic.Int64
	nQueries   atomic.Int64
	nSteps     atomic.Int64
	nSolveNs   atomic.Int64
	nMerges    atomic.Int64
	nMergeItes atomic.Int64

	// Metric mirrors, lazily bound from the budget's registry at Run entry.
	// Nil (no-op) while observability is off.
	boundMetrics *obs.Metrics
	mPaths       *obs.Counter
	mSteps       *obs.Counter
	mQueries     *obs.Counter
	mRuns        *obs.Counter

	// Run-local plumbing, rebound at every Run entry: sched is the active
	// work-list policy (stackSched, or mergeSched under Merge), emit appends
	// a terminal path to the run's result set. Fields rather than parameters
	// so branch and the intrinsics need not thread them; an Engine runs one
	// Run at a time (injectedErr below already assumes this).
	sched scheduler
	emit  func(*state, Value, error)
	// injectedErr latches a SymexForkFail firing inside branch (which has
	// no error return); the work loop surfaces it on its next iteration.
	injectedErr error
}

// state is one in-flight execution path.
type state struct {
	regs  []Value
	cells map[int]Value
	cond  *bv.Bool
	block *cir.Block
	prev  *cir.Block
	idx   int // next instruction index in block
	steps int
}

func (s *state) fork() *state {
	ns := &state{
		regs:  make([]Value, len(s.regs)),
		cells: make(map[int]Value, len(s.cells)),
		cond:  s.cond,
		block: s.block,
		prev:  s.prev,
		idx:   s.idx,
		steps: s.steps,
	}
	copy(ns.regs, s.regs)
	for k, v := range s.cells {
		ns.cells[k] = v
	}
	return ns
}

// Run symbolically executes f on args under the initial condition init
// (pass bv.True for none). It returns all terminal paths. Malformed IR
// (operands of unknown kind) surfaces as an ErrUnsupported error naming the
// function, block and instruction, never as a panic.
func (e *Engine) Run(f *cir.Func, args []Value, init *bv.Bool) (rpaths []Path, rerr error) {
	if e.Faults.Fire(faultpoint.SymexPanic) {
		panic(faultpoint.InjectedPanic{
			Site: faultpoint.SymexPanic,
			Seq:  e.Faults.Fired(faultpoint.SymexPanic),
		})
	}
	e.bindMetrics()
	e.mRuns.Inc()
	span := e.Budget.Tracer().Start("phase/symex", obs.Attr{Key: "func", Val: f.Name})
	defer func() {
		e.refreshStats()
		span.SetInt("paths", int64(e.Stats.Paths))
		span.End()
	}()
	e.injectedErr = nil
	var curState *state
	defer func() {
		if r := recover(); r != nil {
			bo, ok := r.(badOperand)
			if !ok {
				panic(r)
			}
			loc := "<entry>"
			if curState != nil && curState.block != nil {
				loc = curState.block.Label()
				if curState.idx > 0 && curState.idx <= len(curState.block.Instrs) {
					loc += ": " + curState.block.Instrs[curState.idx-1].String()
				}
			}
			rpaths = nil
			rerr = fmt.Errorf("%w: %s: block %s: bad operand kind %d", ErrUnsupported, f.Name, loc, bo.o.Kind)
		}
	}()
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
	st := &state{
		regs:  make([]Value, f.NumRegs),
		cells: map[int]Value{},
		cond:  init,
		block: f.Entry(),
	}
	for i, p := range f.Params {
		st.regs[p.Reg] = args[i]
	}
	// String literals become extra concrete objects.
	strBase := len(e.Objects)
	for _, slit := range f.StrLits {
		buf := make([]*bv.Term, len(slit)+1)
		for i := 0; i < len(slit); i++ {
			buf[i] = bvin.Byte(slit[i])
		}
		buf[len(slit)] = bvin.Byte(0)
		e.Objects = append(e.Objects, buf)
	}
	defer func() { e.Objects = e.Objects[:strBase] }()

	var paths []Path
	nextCell := 1 << 20 // cell ids; disjoint from data-object ids

	e.emit = func(s *state, ret Value, err error) {
		paths = append(paths, Path{Cond: s.cond, Ret: ret, Err: err})
		e.nPaths.Add(1)
		e.mPaths.Inc()
	}
	emit := e.emit
	if e.Merge {
		e.sched = newMergeSched(e, f)
	} else {
		e.sched = &stackSched{}
	}
	e.sched.push(st)

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
		curState = s
		// Steps accumulate on the state and the segment's delta is flushed
		// after the instruction loop — one batched atomic add per scheduled
		// segment keeps the per-instruction path free of shared writes.
		stepsBase := s.steps

		// Evaluate phis simultaneously on block entry (already done at park
		// time for states that went through a merge bucket — resolvePhis
		// advances idx past the phi prefix, so this does not re-run).
		if s.idx == 0 {
			if err := e.resolvePhis(s, f); err != nil {
				emit(s, Value{}, err)
				continue
			}
		}

	instrLoop:
		for s.idx < len(s.block.Instrs) {
			in := s.block.Instrs[s.idx]
			s.idx++
			if in.Op == cir.OpPhi {
				continue
			}
			s.steps++
			if s.steps > e.MaxSteps {
				emit(s, Value{}, ErrStepLimit)
				break instrLoop
			}
			switch in.Op {
			case cir.OpAlloca:
				id := nextCell
				nextCell++
				s.cells[id] = Value{}
				s.regs[in.Res] = PtrValue(id, bvin.Int32(0))
			case cir.OpLoad:
				v, err := e.load(s, f, in)
				if err != nil {
					emit(s, Value{}, err)
					break instrLoop
				}
				s.regs[in.Res] = v
			case cir.OpStore:
				if err := e.store(s, f, in); err != nil {
					emit(s, Value{}, err)
					break instrLoop
				}
			case cir.OpBin:
				v, err := e.binop(s, f, in)
				if err != nil {
					emit(s, Value{}, err)
					break instrLoop
				}
				s.regs[in.Res] = v
			case cir.OpCmp:
				v, err := e.cmpop(s, f, in)
				if err != nil {
					emit(s, Value{}, err)
					break instrLoop
				}
				s.regs[in.Res] = v
			case cir.OpGep:
				p := e.operand(s, f, in.Args[0])
				idx := e.operand(s, f, in.Args[1])
				if !p.IsPtr || idx.IsPtr {
					emit(s, Value{}, fmt.Errorf("%w: bad gep operands", ErrUnsupported))
					break instrLoop
				}
				if p.IsNull() {
					emit(s, Value{}, ErrNullDeref)
					break instrLoop
				}
				s.regs[in.Res] = PtrValue(p.Obj, bvin.Add(p.Off, bvin.MulC(idx.Term, int64(in.Scale))))
			case cir.OpCall:
				switch in.Sub {
				case "strspn", "strcspn", "strchr", "rawmemchr", "strpbrk", "strrchr":
					handled, err := e.stringCall(s, f, in)
					if err != nil {
						emit(s, Value{}, err)
						break instrLoop
					}
					if handled {
						if in.Sub == "strspn" || in.Sub == "strcspn" {
							continue // inline result; keep executing
						}
						// The call forked; its successors (if feasible) are
						// on the worklist and resume after the call.
						break instrLoop
					}
				}
				v, err := e.call(s, f, in)
				if err != nil {
					emit(s, Value{}, err)
					break instrLoop
				}
				s.regs[in.Res] = v
			case cir.OpBr:
				s.prev, s.block, s.idx = s.block, in.Blocks[0], 0
				e.sched.push(s)
				break instrLoop
			case cir.OpCondBr:
				c := e.operand(s, f, in.Args[0])
				var condTrue *bv.Bool
				if c.IsPtr {
					condTrue = bvin.BoolConst(!c.IsNull())
				} else {
					condTrue = bvin.Ne(c.Term, bvin.Int32(0))
				}
				e.branch(s, condTrue, in.Blocks[0], in.Blocks[1])
				break instrLoop
			case cir.OpRet:
				var ret Value
				if len(in.Args) > 0 {
					ret = e.operand(s, f, in.Args[0])
				}
				emit(s, ret, nil)
				break instrLoop
			default:
				emit(s, Value{}, fmt.Errorf("%w: opcode %d", ErrUnsupported, in.Op))
				break instrLoop
			}
			if s.idx >= len(s.block.Instrs) {
				emit(s, Value{}, fmt.Errorf("%w: block falls through", ErrUnsupported))
				break instrLoop
			}
		}
		if d := int64(s.steps - stepsBase); d > 0 {
			e.nSteps.Add(d)
			e.mSteps.Add(d)
		}
	}
	// A fork failure on the final worklist item drains the list before the
	// loop head re-checks the latch; surface it here too, or a partial path
	// set would masquerade as a complete one.
	if e.injectedErr != nil {
		return paths, e.injectedErr
	}
	return paths, nil
}

// branch forks s on cond, scheduling feasible sides.
func (e *Engine) branch(s *state, cond *bv.Bool, thenB, elseB *cir.Block) {
	bvin := e.In
	take := func(st *state, c *bv.Bool, b *cir.Block) {
		st.cond = bvin.BAnd2(st.cond, c)
		if st.cond == bv.False {
			return
		}
		if e.CheckFeasibility && !e.feasible(st.cond) {
			return
		}
		st.prev, st.block, st.idx = st.block, b, 0
		e.sched.push(st)
	}
	switch cond {
	case bv.True:
		take(s, bv.True, thenB)
		return
	case bv.False:
		take(s, bv.True, elseB)
		return
	}
	e.nForks.Add(1)
	e.Budget.Add(engine.Forks, 1)
	if e.Faults.Fire(faultpoint.SymexForkFail) {
		// A failed fork poisons the whole run, not just this state: partial
		// path sets must never masquerade as complete ones. The work loop
		// surfaces the latched error on its next iteration.
		e.injectedErr = fmt.Errorf("%w: injected fork failure (%w)", ErrTimeout, faultpoint.ErrInjected)
		return
	}
	other := s.fork()
	take(s, cond, thenB)
	take(other, bvin.BNot1(cond), elseB)
}

// resolvePhis evaluates the block's leading phi instructions simultaneously
// against s.prev and advances s.idx past them. The merging scheduler calls
// it at park time — before conditions merge and the incoming edge becomes
// ambiguous; the work loop calls it for every other block entry.
func (e *Engine) resolvePhis(s *state, f *cir.Func) error {
	var phiRegs []int
	var phiVals []Value
	n := 0
	for _, in := range s.block.Instrs {
		if in.Op != cir.OpPhi {
			break
		}
		n++
		found := false
		for i, pb := range in.Blocks {
			if pb == s.prev {
				phiVals = append(phiVals, e.operand(s, f, in.Args[i]))
				phiRegs = append(phiRegs, in.Res)
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("%w: phi without incoming edge", ErrUnsupported)
		}
	}
	for i, r := range phiRegs {
		s.regs[r] = phiVals[i]
	}
	s.idx = n
	return nil
}

// feasible asks the solver whether cond is satisfiable; on budget exhaustion
// it conservatively answers true.
func (e *Engine) feasible(cond *bv.Bool) bool {
	// Value-numbering fast path: merged path conditions routinely simplify
	// to a constant (a join disjunction folding to True, or a branch
	// refinement contradicting an ite guard), and a memoized simplifier hit
	// is O(1) — so a constant verdict here skips the solver query entirely
	// and is not counted as one.
	switch sc := e.In.SimplifyBool(cond); sc {
	case bv.True:
		return true
	case bv.False:
		return false
	default:
		cond = sc
	}
	e.nQueries.Add(1)
	e.mQueries.Inc()
	start := time.Now()
	var st sat.Status
	if e.Cache != nil {
		st = e.Cache.Decide(e.Budget, e.SolverBudget, cond)
	} else {
		st, _ = bv.CheckSat(e.Budget, e.SolverBudget, cond)
	}
	e.nSolveNs.Add(int64(time.Since(start)))
	return st != sat.Unsat
}

// bindMetrics resolves the engine's metric mirrors from the budget's
// registry, re-resolving only when the registry changes.
func (e *Engine) bindMetrics() {
	m := e.Budget.Metrics()
	if m == e.boundMetrics {
		return
	}
	e.boundMetrics = m
	e.mPaths = m.Counter(obs.MSymexPaths)
	e.mSteps = m.Counter(obs.MSymexSteps)
	e.mQueries = m.Counter(obs.MSymexQueries)
	e.mRuns = m.Counter(obs.MSymexRuns)
}

// refreshStats rebuilds the exported Stats view from the atomic counters
// (and the cache snapshot); Run calls it on exit.
func (e *Engine) refreshStats() {
	e.Stats.Paths = int(e.nPaths.Load())
	e.Stats.Forks = int(e.nForks.Load())
	e.Stats.SolverQueries = int(e.nQueries.Load())
	e.Stats.Steps = int(e.nSteps.Load())
	e.Stats.SolverTime = time.Duration(e.nSolveNs.Load())
	e.Stats.Merges = int(e.nMerges.Load())
	e.Stats.MergeItes = int(e.nMergeItes.Load())
	if e.Cache != nil {
		e.Stats.Cache = e.Cache.Stats()
	}
}

func (e *Engine) operand(s *state, f *cir.Func, o cir.Operand) Value {
	bvin := e.In
	switch o.Kind {
	case cir.KReg:
		return s.regs[o.Reg]
	case cir.KConst:
		return ConstValue(bvin, o.Imm)
	case cir.KNull:
		return NullValue()
	case cir.KStr:
		// String literal objects were appended after the engine's own; the
		// literal index maps to that region.
		return PtrValue(len(e.Objects)-len(f.StrLits)+o.Str, bvin.Int32(0))
	}
	panic(badOperand{o})
}

// badOperand is the panic value raised by operand on malformed IR. Run
// recovers it at the executor boundary into an ErrUnsupported error naming
// the function, block and instruction, so malformed input surfaces as an
// error path instead of crashing the process.
type badOperand struct{ o cir.Operand }

// load handles cell loads directly and data loads via a bounded select.
func (e *Engine) load(s *state, f *cir.Func, in *cir.Instr) (Value, error) {
	bvin := e.In
	p := e.operand(s, f, in.Args[0])
	if !p.IsPtr {
		return Value{}, fmt.Errorf("%w: load through integer", ErrUnsupported)
	}
	if p.IsNull() {
		return Value{}, ErrNullDeref
	}
	if v, ok := s.cells[p.Obj]; ok {
		return v, nil
	}
	if p.Obj >= len(e.Objects) {
		return Value{}, ErrOOB
	}
	buf := e.Objects[p.Obj]
	switch in.Sub {
	case "1s", "1u":
		b, err := e.selectByte(s, buf, p.Off)
		if err != nil {
			return Value{}, err
		}
		if in.Sub == "1s" {
			return IntValue(bvin.Sext(b, 32)), nil
		}
		return IntValue(bvin.Zext(b, 32)), nil
	default:
		return Value{}, fmt.Errorf("%w: %q load from string object", ErrUnsupported, in.Sub)
	}
}

// selectByte reads buf[off]. A constant offset reads directly; a symbolic
// offset builds an ite chain and adds the in-bounds constraint to the path
// (out-of-bounds reads on all-feasible offsets surface as ErrOOB).
func (e *Engine) selectByte(s *state, buf []*bv.Term, off *bv.Term) (*bv.Term, error) {
	bvin := e.In
	if v, ok := off.IsConst(); ok {
		if int(int32(v)) < 0 || int(int32(v)) >= len(buf) {
			return nil, ErrOOB
		}
		return buf[int32(v)], nil
	}
	inBounds := bvin.Ult(off, bvin.Int32(int64(len(buf))))
	newCond := bvin.BAnd2(s.cond, inBounds)
	if newCond == bv.False || (e.CheckFeasibility && !e.feasible(newCond)) {
		return nil, ErrOOB
	}
	// The out-of-bounds complement is its own (errored) path, not a slice of
	// the input space to narrow away: merged states reach here with ite
	// cursors whose feasible range straddles the buffer end, and dropping
	// the overflowing models would leave concrete inputs no path claims.
	if oob := bvin.BAnd2(s.cond, bvin.BNot1(inBounds)); oob != bv.False &&
		(!e.CheckFeasibility || e.feasible(oob)) {
		e.nForks.Add(1)
		e.emit(&state{cond: oob}, Value{}, ErrOOB)
	}
	s.cond = newCond
	val := buf[len(buf)-1]
	for i := len(buf) - 2; i >= 0; i-- {
		val = bvin.Ite(bvin.Eq(off, bvin.Int32(int64(i))), buf[i], val)
	}
	return val, nil
}

func (e *Engine) store(s *state, f *cir.Func, in *cir.Instr) error {
	p := e.operand(s, f, in.Args[1])
	v := e.operand(s, f, in.Args[0])
	if !p.IsPtr {
		return fmt.Errorf("%w: store through integer", ErrUnsupported)
	}
	if p.IsNull() {
		return ErrNullDeref
	}
	if _, ok := s.cells[p.Obj]; ok {
		s.cells[p.Obj] = v
		return nil
	}
	return fmt.Errorf("%w: store into string object (summarised loops are read-only)", ErrUnsupported)
}

func (e *Engine) binop(s *state, f *cir.Func, in *cir.Instr) (Value, error) {
	bvin := e.In
	a := e.operand(s, f, in.Args[0])
	b := e.operand(s, f, in.Args[1])
	if in.Sub == "psub" {
		if !a.IsPtr || !b.IsPtr || a.Obj != b.Obj || a.IsNull() {
			return Value{}, fmt.Errorf("%w: pointer difference across objects", ErrUnsupported)
		}
		return IntValue(bvin.Sub(a.Off, b.Off)), nil
	}
	if a.IsPtr || b.IsPtr {
		return Value{}, fmt.Errorf("%w: pointer operand in %s", ErrUnsupported, in.Sub)
	}
	x, y := a.Term, b.Term
	switch in.Sub {
	case "add":
		return IntValue(bvin.Add(x, y)), nil
	case "sub":
		return IntValue(bvin.Sub(x, y)), nil
	case "and":
		return IntValue(bvin.And(x, y)), nil
	case "or":
		return IntValue(bvin.Or(x, y)), nil
	case "xor":
		return IntValue(bvin.Xor(x, y)), nil
	case "mul":
		if c, ok := y.IsConst(); ok {
			return IntValue(bvin.MulC(x, int64(int32(c)))), nil
		}
		if c, ok := x.IsConst(); ok {
			return IntValue(bvin.MulC(y, int64(int32(c)))), nil
		}
		return Value{}, fmt.Errorf("%w: symbolic multiplication", ErrUnsupported)
	case "div", "rem":
		c, ok := y.IsConst()
		if !ok || c == 0 || (c&(c-1)) != 0 {
			return Value{}, fmt.Errorf("%w: division by non-power-of-two", ErrUnsupported)
		}
		k := 0
		for c>>uint(k+1) != 0 {
			k++
		}
		if in.Sub == "div" {
			// Valid only for non-negative dividends; the loops that divide
			// (pointer differences scaled by element size) satisfy this.
			return IntValue(bvin.LshrC(x, k)), nil
		}
		return IntValue(bvin.And(x, bvin.Int32(int64(c-1)))), nil
	case "shl", "shr", "sar":
		c, ok := y.IsConst()
		if !ok {
			return Value{}, fmt.Errorf("%w: symbolic shift amount", ErrUnsupported)
		}
		k := int(c & 31)
		switch in.Sub {
		case "shl":
			return IntValue(bvin.ShlC(x, k)), nil
		case "shr":
			return IntValue(bvin.LshrC(x, k)), nil
		default:
			return IntValue(bvin.AshrC(x, k)), nil
		}
	}
	return Value{}, fmt.Errorf("%w: binop %q", ErrUnsupported, in.Sub)
}

func boolToInt(bvin *bv.Interner, b *bv.Bool) *bv.Term {
	return bvin.Ite(b, bvin.Int32(1), bvin.Int32(0))
}

func (e *Engine) cmpop(s *state, f *cir.Func, in *cir.Instr) (Value, error) {
	bvin := e.In
	a := e.operand(s, f, in.Args[0])
	b := e.operand(s, f, in.Args[1])
	if a.IsPtr || b.IsPtr {
		if !a.IsPtr || !b.IsPtr {
			return Value{}, fmt.Errorf("%w: mixed comparison", ErrUnsupported)
		}
		switch in.Sub {
		case "eq", "ne":
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
			if in.Sub == "ne" {
				eq = bvin.BNot1(eq)
			}
			return IntValue(boolToInt(bvin, eq)), nil
		}
		if a.IsNull() || b.IsNull() || a.Obj != b.Obj {
			return Value{}, fmt.Errorf("%w: relational pointer comparison across objects", ErrUnsupported)
		}
		// Pointer order within one object is the order of the (possibly
		// negative) byte offsets, so compare them signed.
		signed := map[string]string{"ult": "slt", "ule": "sle", "ugt": "sgt", "uge": "sge"}
		sub := in.Sub
		if m, ok := signed[sub]; ok {
			sub = m
		}
		return e.intCmp(sub, a.Off, b.Off)
	}
	return e.intCmp(in.Sub, a.Term, b.Term)
}

func (e *Engine) intCmp(sub string, x, y *bv.Term) (Value, error) {
	bvin := e.In
	var c *bv.Bool
	switch sub {
	case "eq":
		c = bvin.Eq(x, y)
	case "ne":
		c = bvin.Ne(x, y)
	case "slt":
		c = bvin.Slt(x, y)
	case "sle":
		c = bvin.Sle(x, y)
	case "sgt":
		c = bvin.Slt(y, x)
	case "sge":
		c = bvin.Sle(y, x)
	case "ult":
		c = bvin.Ult(x, y)
	case "ule":
		c = bvin.Ule(x, y)
	case "ugt":
		c = bvin.Ult(y, x)
	case "uge":
		c = bvin.Ule(y, x)
	default:
		return Value{}, fmt.Errorf("%w: comparison %q", ErrUnsupported, sub)
	}
	return IntValue(boolToInt(bvin, c)), nil
}

// call implements the ctype.h intrinsics and strlen symbolically.
func (e *Engine) call(s *state, f *cir.Func, in *cir.Instr) (Value, error) {
	bvin := e.In
	if len(in.Args) != 1 {
		return Value{}, fmt.Errorf("%w: call %s", ErrUnsupported, in.Sub)
	}
	a := e.operand(s, f, in.Args[0])
	if in.Sub == "strlen" {
		return e.strlenCall(s, a)
	}
	if a.IsPtr {
		return Value{}, fmt.Errorf("%w: pointer argument to %s", ErrUnsupported, in.Sub)
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
	switch in.Sub {
	case "isdigit":
		return IntValue(boolToInt(bvin, between('0', '9'))), nil
	case "isspace":
		return IntValue(boolToInt(bvin, oneOf(' ', '\t', '\n', '\r', '\v', '\f'))), nil
	case "isblank":
		return IntValue(boolToInt(bvin, oneOf(' ', '\t'))), nil
	case "isupper":
		return IntValue(boolToInt(bvin, between('A', 'Z'))), nil
	case "islower":
		return IntValue(boolToInt(bvin, between('a', 'z'))), nil
	case "isalpha":
		return IntValue(boolToInt(bvin, bvin.BOr2(between('A', 'Z'), between('a', 'z')))), nil
	case "isalnum":
		return IntValue(boolToInt(bvin, bvin.BOrAll(between('0', '9'), between('A', 'Z'), between('a', 'z')))), nil
	case "toupper":
		return IntValue(bvin.Ite(between('a', 'z'), bvin.Sub(c, bvin.Int32(32)), c)), nil
	case "tolower":
		return IntValue(bvin.Ite(between('A', 'Z'), bvin.Add(c, bvin.Int32(32)), c)), nil
	case "putchar":
		return a, nil
	}
	return Value{}, fmt.Errorf("%w: call to %q", ErrUnsupported, in.Sub)
}

// strlenCall builds the symbolic strlen of a string object from a (possibly
// symbolic) offset: a nested ite over the bounded buffer. Buffers end in a
// forced NUL, so the scan always terminates inside the buffer.
func (e *Engine) strlenCall(s *state, p Value) (Value, error) {
	bvin := e.In
	if !p.IsPtr {
		return Value{}, fmt.Errorf("%w: strlen of integer", ErrUnsupported)
	}
	if p.IsNull() {
		return Value{}, ErrNullDeref
	}
	if _, ok := s.cells[p.Obj]; ok || p.Obj >= len(e.Objects) {
		return Value{}, fmt.Errorf("%w: strlen of non-string object", ErrUnsupported)
	}
	buf := e.Objects[p.Obj]
	// lenFrom[k] = length of the string starting at k.
	lenFrom := make([]*bv.Term, len(buf))
	if v, ok := buf[len(buf)-1].IsConst(); !ok || v != 0 {
		return Value{}, fmt.Errorf("%w: strlen of unterminated buffer", ErrUnsupported)
	}
	lenFrom[len(buf)-1] = bvin.Int32(0)
	for k := len(buf) - 2; k >= 0; k-- {
		lenFrom[k] = bvin.Ite(bvin.Eq(buf[k], bvin.Byte(0)), bvin.Int32(0), bvin.Add(lenFrom[k+1], bvin.Int32(1)))
	}
	if v, ok := p.Off.IsConst(); ok {
		k := int(int32(v))
		if k < 0 || k >= len(buf) {
			return Value{}, ErrOOB
		}
		return IntValue(lenFrom[k]), nil
	}
	inBounds := bvin.Ult(p.Off, bvin.Int32(int64(len(buf))))
	newCond := bvin.BAnd2(s.cond, inBounds)
	if newCond == bv.False || (e.CheckFeasibility && !e.feasible(newCond)) {
		return Value{}, ErrOOB
	}
	s.cond = newCond
	val := lenFrom[len(buf)-1]
	for k := len(buf) - 2; k >= 0; k-- {
		val = bvin.Ite(bvin.Eq(p.Off, bvin.Int32(int64(k))), lenFrom[k], val)
	}
	return IntValue(val), nil
}

// SymbolicString builds a symbolic NUL-terminated buffer of capacity maxLen
// (maxLen content bytes ranging over all values, final byte forced NUL),
// returning the byte terms built with in.
func SymbolicString(in *bv.Interner, name string, maxLen int) []*bv.Term {
	buf := make([]*bv.Term, maxLen+1)
	for i := 0; i < maxLen; i++ {
		buf[i] = in.Var(fmt.Sprintf("%s[%d]", name, i), 8)
	}
	buf[maxLen] = in.Byte(0)
	return buf
}

// ConcreteString wraps a concrete NUL-terminated buffer as constant terms
// built with in.
func ConcreteString(in *bv.Interner, buf []byte) []*bv.Term {
	out := make([]*bv.Term, len(buf))
	for i, b := range buf {
		out[i] = in.Byte(b)
	}
	return out
}
