package symex

import (
	"testing"

	"stringloops/internal/bv"
	"stringloops/internal/cir"
	"stringloops/internal/engine"
)

// These tests pin the liveness-pruning edge cases around park points: phi
// uses charged to the incoming edge (the value is read while the state is
// still on that edge, before pruning), dead per-iteration temporaries across
// nested joins, and the regression that zeroed dead registers merge without
// reaching mintIte.

// prevLoop reads prev through the loop-header phi one iteration after
// writing it: the use is on the back edge, so a park-point liveness that
// forgot phi-edge uses would zero prev at the header and corrupt acc.
const prevLoop = `
int sumPrev(char* p) {
  int acc = 0;
  int prev = 0;
  for (; *p; p++) {
    acc = acc + prev;
    prev = *p;
  }
  return acc;
}`

func TestMergePhiEdgeUseMatchesConcrete(t *testing.T) {
	const n = 5
	f := lower(t, prevLoop)
	paths, e := runMerged(t, f, n, false)
	if e.Budget.Count(engine.Merges) == 0 {
		t.Fatal("merged run reported zero merges")
	}
	if len(paths) > n+2 {
		t.Fatalf("merged run scheduled %d paths, want O(n)", len(paths))
	}
	for _, buf := range enumBuffers(n, []byte{'a', 'b'}) {
		a := assignFor(buf)
		mem := cir.NewMemory()
		obj := mem.AllocData(append([]byte{}, buf...))
		concrete, cerr := cir.Exec(f, []cir.CVal{cir.PtrVal(obj, 0)}, mem, 0)
		if cerr != nil {
			t.Fatalf("%q: concrete interpreter errored: %v", buf, cerr)
		}
		active := 0
		for _, p := range paths {
			if !p.Cond.Eval(a) {
				continue
			}
			active++
			if p.Err != nil {
				t.Fatalf("%q: merged path errored: %v", buf, p.Err)
			}
			if got := int64(int32(p.Ret.Term.Eval(a))); got != concrete.Ret.Int {
				t.Fatalf("%q: merged sum %d != concrete %d (phi-edge use dropped?)", buf, got, concrete.Ret.Int)
			}
		}
		if active != 1 {
			t.Fatalf("%q: %d active merged paths, want exactly 1", buf, active)
		}
	}
}

// nestedDeadLoop computes per-iteration temporaries (c, tmp) that die before
// the loop-back join, across a nested branch join. Pruning must zero them at
// park so iterations with different temporary values still fold; the
// accumulator n is the only value that may survive as a merge ite.
const nestedDeadLoop = `
int classify(char* p) {
  int n = 0;
  for (; *p; p++) {
    int c = *p;
    int tmp = c + 1;
    if (c == 'a') {
      if (tmp == 'b') { n = n + 2; } else { n = n + 7; }
    } else {
      n = n + 3;
    }
  }
  return n;
}`

func TestMergeNestedJoinDeadTempsMatchesConcrete(t *testing.T) {
	const n = 4
	f := lower(t, nestedDeadLoop)
	paths, e := runMerged(t, f, n, false)
	if e.Budget.Count(engine.Merges) == 0 {
		t.Fatal("merged run reported zero merges")
	}
	// Without pruning the dead temporaries, states reaching the loop header
	// after different iterations disagree and the bucket never folds —
	// the run degenerates toward the 3^n enumerated paths.
	if len(paths) > 2*n+4 {
		t.Fatalf("merged run scheduled %d paths; dead temps blocked folding", len(paths))
	}
	for _, buf := range enumBuffers(n, []byte{'a', 'x'}) {
		a := assignFor(buf)
		mem := cir.NewMemory()
		obj := mem.AllocData(append([]byte{}, buf...))
		concrete, cerr := cir.Exec(f, []cir.CVal{cir.PtrVal(obj, 0)}, mem, 0)
		if cerr != nil {
			t.Fatalf("%q: concrete interpreter errored: %v", buf, cerr)
		}
		active := 0
		for _, p := range paths {
			if !p.Cond.Eval(a) {
				continue
			}
			active++
			if p.Err != nil {
				t.Fatalf("%q: merged path errored: %v", buf, p.Err)
			}
			if got := int64(int32(p.Ret.Term.Eval(a))); got != concrete.Ret.Int {
				t.Fatalf("%q: merged result %d != concrete %d", buf, got, concrete.Ret.Int)
			}
		}
		if active != 1 {
			t.Fatalf("%q: %d active merged paths, want exactly 1", buf, active)
		}
	}
}

func TestPruneDeadZeroesRegsAndDropsCells(t *testing.T) {
	s := &state{
		regs: []Value{
			IntValue(tin.Byte(1)),
			IntValue(tin.Byte(2)),
			PtrValue(7, tin.Int32(0)),
			IntValue(tin.Byte(4)), // beyond the live mask: dead by default
		},
		cells: []cell{
			{id: 11, reg: 4, val: IntValue(tin.Byte(6))},    // unreachable: must drop
			{id: 9, reg: 5, val: IntValue(tin.Byte(5))},     // reachable transitively via cell 7
			{id: 7, reg: 6, val: PtrValue(9, tin.Int32(0))}, // reachable via regs[2]
		},
	}
	pruneDead(s, []bool{true, false, true})
	if isZeroValue(s.regs[0]) || !isZeroValue(s.regs[1]) {
		t.Fatalf("live mask misapplied: regs = %+v", s.regs)
	}
	if isZeroValue(s.regs[2]) {
		t.Fatal("live pointer register was zeroed")
	}
	if !isZeroValue(s.regs[3]) {
		t.Fatal("register beyond the live mask survived")
	}
	if s.cell(7) == nil {
		t.Fatal("cell reachable from a live register was dropped")
	}
	if s.cell(9) == nil {
		t.Fatal("transitively reachable cell was dropped")
	}
	if s.cell(11) != nil || len(s.cells) != 2 {
		t.Fatalf("unreachable cell survived: %+v", s.cells)
	}
}

// TestZeroedDeadRegsNeverMintItes is the regression pin for the
// prune-then-merge contract: a register pruneDead zeroed takes the other
// side's value in mergeValue without building an ite, while the same
// register left unpruned would mint one. Dead-register ites are not just
// waste — they would make merged terms (and replay traces) depend on values
// liveness says cannot matter.
func TestZeroedDeadRegsNeverMintItes(t *testing.T) {
	e := &Engine{In: tin, Budget: engine.NewBudget(nil, engine.Limits{})}
	shared := IntValue(tin.Var("v", 8))
	ca, cb := tin.BoolVar("ca"), tin.BoolVar("cb")
	mk := func(cond *bv.Bool, dead Value) *state {
		return &state{
			regs: []Value{shared, dead},
			cond: cond,
		}
	}

	// Pruned shape: the dead slot is zeroed on both sides.
	before := e.Budget.Count(engine.MergeItes)
	ns, ok := e.mergeTwo(mk(ca, Value{}), mk(cb, Value{}))
	if !ok {
		t.Fatal("states with zeroed dead regs did not merge")
	}
	if !isZeroValue(ns.regs[1]) {
		t.Fatalf("zeroed dead reg resurfaced as %+v", ns.regs[1])
	}
	if got := e.Budget.Count(engine.MergeItes); got != before {
		t.Fatalf("merging zeroed dead regs minted %d ites", got-before)
	}

	// One side zeroed, one live-looking: the slot adopts the other side's
	// value — still no ite, still no dependence on the dead value.
	ns, ok = e.mergeTwo(mk(ca, Value{}), mk(cb, IntValue(tin.Byte(9))))
	if !ok || isZeroValue(ns.regs[1]) {
		t.Fatalf("half-zeroed merge = %+v, %v", ns, ok)
	}
	if ns.regs[1].Term.Kind == bv.KIte {
		t.Fatal("half-zeroed slot minted an ite")
	}
	if got := e.Budget.Count(engine.MergeItes); got != before {
		t.Fatalf("half-zeroed merge charged %d ites", got-before)
	}

	// Contrast: the same slot unpruned on both sides DOES mint an ite —
	// this is exactly the cost pruneDead exists to avoid.
	ns, ok = e.mergeTwo(mk(ca, IntValue(tin.Byte(1))), mk(cb, IntValue(tin.Byte(2))))
	if !ok {
		t.Fatal("unpruned states did not merge")
	}
	if ns.regs[1].Term.Kind != bv.KIte {
		t.Fatalf("unpruned differing regs merged to %+v, want an ite", ns.regs[1])
	}
	if got := e.Budget.Count(engine.MergeItes); got != before+1 {
		t.Fatalf("unpruned merge charged %d ites, want 1", got-before)
	}
}

// TestParkLiveSetsPhiEdgeUse checks the dataflow directly, as lowered and
// after Mem2Reg: in prevLoop the phi-carried accumulator registers are live
// into the loop header, and the header's park set is a strict subset of all
// registers (the per-iteration character temporary is dead there).
func TestParkLiveSetsPhiEdgeUse(t *testing.T) {
	f := lower(t, prevLoop)
	for _, promote := range []bool{false, true} {
		if promote {
			cir.Mem2Reg(f)
		}
		joins := cir.Decode(f).Joins()
		live := joins.Live
		someLive, someDead, some := false, false, false
		for b, kind := range joins.Kind {
			if kind == 0 {
				continue
			}
			some = true
			if b >= len(live) || len(live[b]) != f.NumRegs {
				t.Fatalf("SSA %v: join %v: live set missing or wrong length", promote, b)
			}
			for _, l := range live[b] {
				if l {
					someLive = true
				} else {
					someDead = true
				}
			}
		}
		if !some {
			t.Fatalf("SSA %v: loop lowered with no join points", promote)
		}
		if !someLive {
			t.Fatalf("SSA %v: no register live at any join; phi-edge uses and accumulators must be live", promote)
		}
		if !someDead {
			t.Fatalf("SSA %v: every register live at every join; per-iteration temporaries should be dead", promote)
		}
	}
}
