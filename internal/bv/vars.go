package bv

// Conjuncts appends the top-level conjuncts of f to dst and returns it: BAnd
// trees are flattened, everything else is a single conjunct. The query cache
// (internal/qcache) normalizes constraint sets this way so that the same
// path condition keys identically whether it arrives as one BAnd tree or as
// separate formulas.
func Conjuncts(dst []*Bool, f *Bool) []*Bool {
	if f.Kind == BAnd {
		dst = Conjuncts(dst, f.A)
		return Conjuncts(dst, f.B)
	}
	return append(dst, f)
}

// VarScanner lists the variables of formulas. Its visited sets are indexed
// by node number and kept between calls, reset by a generation stamp, so a
// caller that scans many formulas neither clears nor regrows them. The zero
// value is ready to use; a VarScanner belongs to one goroutine and scans
// the formulas of one interner.
type VarScanner struct {
	seenB Marks[struct{}]
	seenT Marks[struct{}]
	out   []string
}

// Names appends the names of all variables occurring in f to dst and
// returns it, each tagged with its sort — "t:" for bit-vector term variables
// and "b:" for boolean variables — so a term variable and a boolean variable
// sharing a name never alias. Shared DAG nodes are visited once, but names
// may still repeat across distinct nodes; callers that need a set should
// dedupe. Used by constraint-independence slicing to decide which conjuncts
// interact.
func (c *VarScanner) Names(dst []string, f *Bool) []string {
	c.seenB.Reset()
	c.seenT.Reset()
	c.out = dst
	c.boolVars(f)
	out := c.out
	c.out = nil
	return out
}

func (c *VarScanner) boolVars(f *Bool) {
	if f == nil {
		return
	}
	if _, seen := c.seenB.Get(f.num); seen {
		return
	}
	c.seenB.Set(f.num, struct{}{})
	switch f.Kind {
	case BVar:
		c.out = append(c.out, "b:"+f.Name)
	case BNot, BAnd, BOr:
		c.boolVars(f.A)
		c.boolVars(f.B)
	case BEq, BUlt, BUle:
		c.termVars(f.X)
		c.termVars(f.Y)
	}
}

func (c *VarScanner) termVars(t *Term) {
	if t == nil {
		return
	}
	if _, seen := c.seenT.Get(t.num); seen {
		return
	}
	c.seenT.Set(t.num, struct{}{})
	if t.Kind == KVar {
		c.out = append(c.out, "t:"+t.Name)
		return
	}
	c.boolVars(t.Cond)
	c.termVars(t.A)
	c.termVars(t.B)
}
