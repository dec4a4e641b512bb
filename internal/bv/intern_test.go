package bv

import (
	"errors"
	"sync"
	"testing"

	"stringloops/internal/engine"
	"stringloops/internal/faultpoint"
)

func TestInternerPointerEquality(t *testing.T) {
	in := NewInterner()
	x := in.Var("x", 8)
	a := in.Add(x, in.Byte(1))
	b := in.Add(in.Var("x", 8), in.Byte(1))
	if a != b {
		t.Fatal("structurally equal terms from one interner must be pointer-equal")
	}
}

func TestSeparateInternersShareNothing(t *testing.T) {
	in1, in2 := NewInterner(), NewInterner()
	a := in1.Add(in1.Var("x", 8), in1.Byte(1))
	b := in2.Add(in2.Var("x", 8), in2.Byte(1))
	if a == b {
		t.Fatal("distinct interners must not share nodes")
	}
	// Mixing is safe: rewrites only rely on pointer-equal => structurally
	// equal, so a cross-interner combination must still evaluate correctly.
	f := in1.Eq(a, b)
	if valid, _, _ := in1.IsValid(nil, 0, f); !valid {
		t.Fatal("x+1 == x+1 must hold across interners")
	}
}

func TestSoftCapClearKeepsNodesValid(t *testing.T) {
	in := NewInterner().SetSoftCap(4)
	old := in.Add(in.Var("x", 8), in.Byte(1))
	// Blow past the cap so the term table is cleared at least once.
	for i := 0; i < 64; i++ {
		in.Byte(byte(i))
	}
	// The handed-out node stays valid, and rebuilding the same shape yields a
	// fresh (non-shared) but structurally identical node.
	rebuilt := in.Add(in.Var("x", 8), in.Byte(1))
	if old.String() != rebuilt.String() {
		t.Fatalf("rebuilt %v, want %v", rebuilt, old)
	}
}

func TestInternerChargesNodeBudget(t *testing.T) {
	b := engine.NewBudget(nil, engine.Limits{Nodes: 8})
	in := NewInterner().SetBudget(b)
	for i := 0; i < 32; i++ {
		in.Byte(byte(i))
	}
	if !b.Exceeded() || !errors.Is(b.Err(), engine.ErrBudget) {
		t.Fatalf("node budget not charged: err=%v nodes=%d", b.Err(), b.Nodes())
	}
	if in.Nodes() < 8 {
		t.Fatalf("Nodes() = %d, want >= 8", in.Nodes())
	}
}

func TestInternerDedupDoesNotRecharge(t *testing.T) {
	b := engine.NewBudget(nil, engine.Limits{Nodes: 100})
	in := NewInterner().SetBudget(b)
	for i := 0; i < 50; i++ {
		in.Byte(7) // same node every time
	}
	if got := b.Nodes(); got != 1 {
		t.Fatalf("interning the same node 50 times charged %d nodes, want 1", got)
	}
}

// TestInternerHitsDoNotAllocate pins the lookup-before-allocate discipline:
// rebuilding a node that is already interned costs a table lookup and no
// heap allocation, for the byte-constant table and both hash-cons tables.
func TestInternerHitsDoNotAllocate(t *testing.T) {
	in := NewInterner()
	x, y := in.Var("x", 8), in.Var("y", 8)
	c := in.Eq(x, y)
	d := in.Ult(x, y)
	build := map[string]func(){
		"Byte":  func() { in.Byte('a') },
		"Int32": func() { in.Int32(7) },
		"Var":   func() { in.Var("x", 8) },
		"Eq":    func() { in.Eq(x, y) },
		"BNot1": func() { in.BNot1(c) },
		"BAnd2": func() { in.BAnd2(c, d) },
		"BOr2":  func() { in.BOr2(c, d) },
		"Ite":   func() { in.Ite(c, x, y) },
	}
	for name, f := range build {
		f() // intern the node once
		if allocs := testing.AllocsPerRun(100, f); allocs != 0 {
			t.Errorf("rebuilding an interned %s allocates %v times, want 0", name, allocs)
		}
	}
}

// TestByteTableSurvivesSoftCapClear checks the 8-bit constant table across a
// soft-cap clear: it is emptied with the term table, so the first rebuild of
// a constant is a new node as before, and from then on every call returns
// that one node again.
func TestByteTableSurvivesSoftCapClear(t *testing.T) {
	in := NewInterner().SetSoftCap(4)
	old := in.Byte(7)
	if in.Byte(7) != old || in.Const(8, 7) != old || in.Const(8, 0x107) != old {
		t.Fatal("8-bit constants with one value must be one node")
	}
	// Blow past the cap so the term table is cleared at least once.
	for i := 0; i < 64; i++ {
		in.Int32(int64(i))
	}
	a, b := in.Byte(7), in.Byte(7)
	if a != b {
		t.Fatal("after a soft-cap clear, Byte(7) twice must still be pointer-equal")
	}
	if *a != *old {
		t.Fatalf("rebuilt constant %v differs structurally from %v", a, old)
	}
}

// TestNewNodesAreCountedOnce checks that Nodes(), the budget's engine.Nodes
// counter and the BVNodeExhaust consultations all advance exactly once per
// new node, whichever table (byte constants, terms, booleans) it lands in,
// and not at all on a rebuild.
func TestNewNodesAreCountedOnce(t *testing.T) {
	b := engine.NewBudget(nil, engine.Limits{})
	// A rate this small never fires on a test's worth of calls, but arms the
	// site so that every consultation is counted.
	faults := faultpoint.New(faultpoint.Config{Rates: map[faultpoint.Site]float64{faultpoint.BVNodeExhaust: 1e-12}})
	in := NewInterner().SetBudget(b).SetFaults(faults)
	check := func(step string, want int64) {
		t.Helper()
		if got := in.Nodes(); got != want {
			t.Errorf("%s: Nodes() = %d, want %d", step, got, want)
		}
		if got := b.Count(engine.Nodes); got != want {
			t.Errorf("%s: engine.Nodes = %d, want %d", step, got, want)
		}
		if got := faults.Calls(faultpoint.BVNodeExhaust); got != uint64(want) {
			t.Errorf("%s: BVNodeExhaust consulted %d times, want %d", step, got, want)
		}
	}
	build := func() {
		x := in.Var("x", 8)
		k := in.Byte(' ')
		in.BOr2(in.Eq(x, k), in.Ult(x, in.Byte('0')))
		in.Add(in.Zext(x, 32), in.Int32(1))
	}
	build()
	// x, ' ', x==' ', '0', x<'0', the or, zext(x), 1:32, the add.
	check("first build", 9)
	build()
	check("rebuild", 9)
	in.Byte(' ')
	in.Byte('!')
	check("one new byte constant", 10)
}

// TestByteTableConcurrent reads and fills the byte-constant table from
// several goroutines at once, with a soft cap small enough that clears race
// with lookups (run it under -race). Every node handed out must carry its
// value, and once the goroutines are done one value is one node again.
func TestByteTableConcurrent(t *testing.T) {
	in := NewInterner().SetSoftCap(64)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				v := byte(i*7 + w)
				c := in.Byte(v)
				if c.Kind != KConst || c.Width != 8 || c.Val != uint64(v) {
					t.Errorf("Byte(%d) = %v", v, c)
					return
				}
				in.Int32(int64(i)) // grows the term table towards the cap
			}
		}()
	}
	wg.Wait()
	if in.Byte(42) != in.Byte(42) {
		t.Fatal("Byte(42) twice must be pointer-equal")
	}
}
