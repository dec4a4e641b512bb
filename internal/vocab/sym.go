package vocab

import (
	"stringloops/internal/bv"
	"stringloops/internal/strsolver"
)

// This file is the symbolic counterpart of Algorithm 1. A program runs over
// a bounded symbolic string; the interpreter state is a *guarded set of
// concrete configurations* — pairs of (result kind, concrete offset) with a
// path-condition guard — rather than a single symbolic offset. Because
// buffers are bounded, each gadget maps a configuration to finitely many
// successor offsets, each guarded by a string-solver predicate (strsolver).
// This is the representation DESIGN.md §5 calls guarded offsets; the
// ablation benchmark compares it against naive ite-chains.
//
// The same interpreter serves both directions of CEGIS:
//   - bounded verification: concrete program arguments, symbolic string;
//   - argument solving: symbolic arguments (bv variables), concrete string.

// SymInstr is an instruction whose argument characters may be symbolic.
type SymInstr struct {
	Op  Op
	Arg []*bv.Term // one 8-bit term per argument character
}

// SymProgram is a program with possibly-symbolic arguments.
type SymProgram []SymInstr

// Symbolize lifts a concrete program into a SymProgram of constant terms.
func Symbolize(bvin *bv.Interner, p Program) SymProgram {
	out := make(SymProgram, len(p))
	for i, in := range p {
		si := SymInstr{Op: in.Op}
		for _, c := range in.Arg {
			si.Arg = append(si.Arg, bvin.Byte(c))
		}
		out[i] = si
	}
	return out
}

// SymOutcome is one guarded terminal result of a symbolic run.
type SymOutcome struct {
	Guard *bv.Bool
	Res   Result
}

// config is one guarded live interpreter configuration.
type config struct {
	kind ResultKind
	off  int
	skip bool
	revN int // -1 = forward space; otherwise reversed with strlen == revN
}

// guarded is an insertion-ordered set of keys (live configurations, or
// terminal results), each with the disjunction of the guards it was reached
// under. Keys live in a slice with a linear lookup: a gadget step reaches a
// handful of configurations, so a scan beats hashing and the set allocates
// nothing once its slices have grown. The order matters for determinism, not
// correctness: guards are accumulated with BOr2 in first-reached order, so
// the *shape* of every guard formula (and hence the set of interned bv
// nodes) is a function of the program and the string alone — which
// bit-identical replay of seeded fault-injection schedules relies on.
type guarded[K comparable] struct {
	keys   []K
	guards []*bv.Bool
}

func (gs *guarded[K]) add(bvin *bv.Interner, k K, g *bv.Bool) {
	if g == bv.False {
		return
	}
	for i, old := range gs.keys {
		if old == k {
			gs.guards[i] = bvin.BOr2(gs.guards[i], g)
			return
		}
	}
	gs.keys = append(gs.keys, k)
	gs.guards = append(gs.guards, g)
}

// RunSymbolic interprets prog over the symbolic string s, returning guarded
// terminal outcomes whose guards are pairwise disjoint and cover all strings
// in the bounded domain. The result offsets are in the original buffer.
// The outcome order and the structure of every guard are deterministic
// functions of (prog, s): configurations are processed and merged in
// first-reached order.
func RunSymbolic(prog SymProgram, s *strsolver.SymString) []SymOutcome {
	// The runs before and after the current instruction swap buffers at
	// every step.
	run, next := NewSymRun(s), new(SymRun)
	for _, in := range prog {
		run.StepInto(next, in)
		run, next = next, run
	}
	return run.AppendOutcomes(nil)
}

// SymRun is the state of a symbolic run after a prefix of a program: the live
// configurations and the terminal results reached so far. Programs sharing a
// prefix can share its run: StepInto never mutates its receiver, so one state
// can be stepped into any number of suffixes (CEGIS keeps one per prefix
// depth and counterexample, DESIGN.md §5). Stepping instruction by
// instruction builds exactly the guards RunSymbolic builds, in the same
// order. A leading reverse runs over the string's reversed views, which the
// string keeps (strsolver.SymString.Reversed).
type SymRun struct {
	s        *strsolver.SymString
	pc       int // instructions stepped so far
	live     guarded[config]
	terminal guarded[Result]
}

// NewSymRun returns the run of the empty prefix on s: one live configuration,
// the result register at offset 0, under guard true.
func NewSymRun(s *strsolver.SymString) *SymRun {
	r := &SymRun{s: s}
	r.live.add(s.Interner(), config{kind: Ptr, off: 0, revN: -1}, bv.True)
	return r
}

// StepInto executes in on r's state and writes the successor state into dst,
// overwriting dst and reusing its slices. r is left unchanged; dst must be a
// different run.
func (r *SymRun) StepInto(dst *SymRun, in SymInstr) {
	if dst == r {
		panic("vocab: SymRun.StepInto into its own receiver")
	}
	s := r.s
	bvin := s.Interner()
	maxLen := s.MaxLen()
	dst.s, dst.pc = s, r.pc+1
	dst.live.keys, dst.live.guards = dst.live.keys[:0], dst.live.guards[:0]
	dst.terminal.keys = append(dst.terminal.keys[:0], r.terminal.keys...)
	dst.terminal.guards = append(dst.terminal.guards[:0], r.terminal.guards...)

	space := func(c config) *strsolver.SymString {
		if c.revN < 0 {
			return s
		}
		return s.Reversed(c.revN)
	}
	capOf := func(c config) int {
		if c.revN < 0 {
			return maxLen
		}
		return c.revN
	}
	addLive := func(c config, g *bv.Bool) { dst.live.add(bvin, c, g) }
	invalid := func(g *bv.Bool) { dst.terminal.add(bvin, InvalidResult(), g) }

	for i, c := range r.live.keys {
		g := r.live.guards[i]
		if c.skip {
			c.skip = false
			addLive(c, g)
			continue
		}
		str := space(c)
		strCap := capOf(c)
		strOK := c.kind == Ptr && c.off >= 0 && c.off <= strCap
		switch in.Op {
		case OpReverse:
			if r.pc != 0 {
				invalid(g)
				continue
			}
			// At pc 0 there is exactly one live configuration.
			for n := 0; n <= maxLen; n++ {
				addLive(config{kind: Ptr, off: 0, revN: n}, bvin.BAnd2(g, s.LenIs(n)))
			}
		case OpRawmemchr:
			if !strOK {
				invalid(g)
				continue
			}
			for j := c.off; j <= strCap; j++ {
				nc := c
				nc.off = j
				addLive(nc, bvin.BAnd2(g, str.RawchrIs(c.off, j, in.Arg[0])))
			}
			invalid(bvin.BAnd2(g, str.RawchrNone(c.off, in.Arg[0])))
		case OpStrchr:
			if !strOK {
				invalid(g)
				continue
			}
			for j := c.off; j <= strCap; j++ {
				nc := c
				nc.off = j
				addLive(nc, bvin.BAnd2(g, str.ChrIs(c.off, j, in.Arg[0])))
			}
			nc := c
			nc.kind = Null
			addLive(nc, bvin.BAnd2(g, str.ChrNone(c.off, in.Arg[0])))
		case OpStrrchr:
			if !strOK {
				invalid(g)
				continue
			}
			for j := c.off; j <= strCap; j++ {
				nc := c
				nc.off = j
				addLive(nc, bvin.BAnd2(g, str.RchrIs(c.off, j, in.Arg[0])))
			}
			nc := c
			nc.kind = Null
			addLive(nc, bvin.BAnd2(g, str.RchrNone(c.off, in.Arg[0])))
		case OpStrpbrk:
			if !strOK {
				invalid(g)
				continue
			}
			set := strsolver.Set{Members: in.Arg}
			for j := c.off; j <= strCap; j++ {
				nc := c
				nc.off = j
				addLive(nc, bvin.BAnd2(g, str.PbrkIs(c.off, j, set)))
			}
			nc := c
			nc.kind = Null
			addLive(nc, bvin.BAnd2(g, str.PbrkNone(c.off, set)))
		case OpStrspn:
			if !strOK {
				invalid(g)
				continue
			}
			set := strsolver.Set{Members: in.Arg}
			for n := 0; c.off+n <= strCap; n++ {
				nc := c
				nc.off = c.off + n
				addLive(nc, bvin.BAnd2(g, str.SpnIs(c.off, n, set)))
			}
		case OpStrcspn:
			if !strOK {
				invalid(g)
				continue
			}
			set := strsolver.Set{Members: in.Arg}
			for n := 0; c.off+n <= strCap; n++ {
				nc := c
				nc.off = c.off + n
				addLive(nc, bvin.BAnd2(g, str.CspnIs(c.off, n, set)))
			}
		case OpIsNullptr:
			c.skip = c.kind != Null
			addLive(c, g)
		case OpIsStart:
			c.skip = !(c.kind == Ptr && c.off == 0)
			addLive(c, g)
		case OpIncrement:
			if c.kind != Ptr {
				invalid(g)
				continue
			}
			c.off++
			addLive(c, g)
		case OpSetToEnd:
			if c.revN >= 0 {
				// The reverse guard pins the reversed length to revN.
				c.kind, c.off = Ptr, c.revN
				addLive(c, g)
				continue
			}
			for n := 0; n <= strCap; n++ {
				nc := c
				nc.kind = Ptr
				nc.off = n
				addLive(nc, bvin.BAnd2(g, str.LenIs(n)))
			}
		case OpSetToStart:
			c.kind = Ptr
			c.off = 0
			addLive(c, g)
		case OpReturn:
			dst.terminal.add(bvin, finishConfig(c), g)
		default:
			invalid(g)
		}
	}
}

// AppendOutcomes appends r's guarded terminal outcomes to dst and returns the
// extended slice. The program is taken to end here: configurations still live
// have run out of instructions and join the invalid outcome. r is left
// unchanged.
func (r *SymRun) AppendOutcomes(dst []SymOutcome) []SymOutcome {
	base := len(dst)
	for i, res := range r.terminal.keys {
		dst = append(dst, SymOutcome{Guard: r.terminal.guards[i], Res: res})
	}
	inv := -1
	for i := base; i < len(dst); i++ {
		if dst[i].Res == InvalidResult() {
			inv = i
			break
		}
	}
	// Live guards are never false: guarded.add drops those.
	for _, g := range r.live.guards {
		if inv < 0 {
			inv = len(dst)
			dst = append(dst, SymOutcome{Guard: g, Res: InvalidResult()})
			continue
		}
		dst[inv].Guard = r.s.Interner().BOr2(dst[inv].Guard, g)
	}
	return dst
}

// finishConfig maps a configuration's result back into the original buffer.
func finishConfig(c config) Result {
	switch c.kind {
	case Null:
		return NullResult()
	case Invalid:
		return InvalidResult()
	}
	if c.revN >= 0 {
		return PtrResult(c.revN - 1 - c.off)
	}
	return PtrResult(c.off)
}

// RunNullInput evaluates the program's behaviour on the NULL input pointer.
// It never depends on argument characters, so a skeleton with placeholder
// arguments gives the exact answer — this is how CEGIS checks the NULL test
// point before argument solving. Run reads no argument on the NULL input, so
// the placeholder program has none, and short programs are built on the stack.
func (p SymProgram) RunNullInput() Result {
	var buf [16]Instr
	ops := buf[:0]
	for _, in := range p {
		ops = append(ops, Instr{Op: in.Op})
	}
	return Run(ops, nil)
}
