package bv

import (
	"context"
	"testing"

	"stringloops/internal/engine"
	"stringloops/internal/sat"
)

// exhaustedBudget returns a budget whose context is already cancelled, the
// cheapest way to reach the sat.Unknown path deterministically.
func exhaustedBudget() *engine.Budget {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return engine.NewBudget(ctx, engine.Limits{})
}

func TestCheckSatExhaustedBudget(t *testing.T) {
	in := NewInterner()
	x := in.Var("x", 8)
	f := in.Eq(x, in.Byte(7))

	st, model := CheckSat(exhaustedBudget(), f)
	if st != sat.Unknown {
		t.Fatalf("CheckSat under exhausted budget = %v, want unknown", st)
	}
	if model != nil {
		t.Fatalf("CheckSat returned a model alongside unknown: %v", model)
	}

	// Sanity: the same query without a budget is decidable.
	st, model = CheckSat(nil, f)
	if st != sat.Sat {
		t.Fatalf("unbudgeted CheckSat = %v, want sat", st)
	}
	if got := model.Terms["x"]; got != 7 {
		t.Fatalf("model x = %d, want 7", got)
	}
}

func TestCheckSatConflictBudgetUnknown(t *testing.T) {
	// A run-wide conflict limit of 1 on a query that needs real search must
	// surface Unknown through the bv layer, not a wrong verdict.
	in := NewInterner()
	b := engine.NewBudget(context.Background(), engine.Limits{Conflicts: 1})
	x, y, z := in.Var("x", 8), in.Var("y", 8), in.Var("z", 8)
	f1 := in.Eq(in.Add(in.Xor(x, y), z), in.Byte(0x5a))
	f2 := in.Eq(in.Xor(in.Add(x, z), y), in.Byte(0xa5))
	f3 := in.Ult(in.Add(x, y), z)
	st, _ := CheckSat(b, f1, f2, f3)
	// The verdict may legitimately be decided before the budget trips; only
	// require that a reported Unknown coincides with exhaustion.
	if st == sat.Unknown && !b.Exceeded() {
		t.Fatal("CheckSat returned Unknown while the budget was not exhausted")
	}
}
