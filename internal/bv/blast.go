package bv

import (
	"stringloops/internal/engine"
	"stringloops/internal/faultpoint"
	"stringloops/internal/sat"
)

// Solver decides conjunctions of Bool formulas by Tseitin bit-blasting to the
// CDCL SAT solver. A Solver is multi-shot: constraints may be Asserted and
// Checked repeatedly, and CheckAssumingLits answers queries under temporary
// assumptions without asserting them. The Tseitin encoding of every formula
// ever blasted is memoized (termBits/boolLits, indexed by node number, so a
// Solver encodes the formulas of one interner), so symex forks sharing a path
// prefix re-use the prefix's encoding and only blast their new branch
// condition — the incremental backbone of internal/qcache. Models must be
// read back (ModelAssignment) before the next Assert or Check, which
// invalidate them.
type Solver struct {
	sat      *sat.Solver
	termBits Pages[[]sat.Lit] // nil until the term is blasted
	boolLits Pages[blasted]
	varBits  map[string][]sat.Lit // per variable name, for model extraction
	boolVars map[string]sat.Lit
	trueLit  sat.Lit
	status   sat.Status
	// Budget, when non-nil, is threaded into the SAT search: conflicts are
	// charged to it and cancellation makes Check return Unknown promptly.
	Budget *engine.Budget
	// Faults, when non-nil, is handed to the SAT layer per query so the
	// sat.* injection sites fire under this solver's schedule.
	Faults *faultpoint.Registry
	// blastHits counts termBits/boolLits memo hits: sub-formulas whose
	// Tseitin encoding was reused instead of re-emitted. The structural CNF
	// cache is keyed on hash-consed node identity, so a hit is O(1) and the
	// count measures how much encoding work incremental callers save.
	blastHits int64
}

// blasted is a Bool's row in boolLits: its literal, once ok.
type blasted struct {
	lit sat.Lit
	ok  bool
}

// NewSolver returns an empty bit-vector solver.
func NewSolver() *Solver {
	s := &Solver{
		sat:      sat.New(),
		varBits:  map[string][]sat.Lit{},
		boolVars: map[string]sat.Lit{},
	}
	s.trueLit = sat.PosLit(s.sat.NewVar())
	s.sat.AddClause(s.trueLit)
	return s
}

func (s *Solver) falseLit() sat.Lit { return s.trueLit.Neg() }

func (s *Solver) fresh() sat.Lit { return sat.PosLit(s.sat.NewVar()) }

func (s *Solver) constLit(v bool) sat.Lit {
	if v {
		return s.trueLit
	}
	return s.falseLit()
}

// andLit returns a literal equivalent to a AND b.
func (s *Solver) andLit(a, b sat.Lit) sat.Lit {
	switch {
	case a == s.trueLit:
		return b
	case b == s.trueLit:
		return a
	case a == s.falseLit() || b == s.falseLit():
		return s.falseLit()
	case a == b:
		return a
	case a == b.Neg():
		return s.falseLit()
	}
	o := s.fresh()
	s.sat.AddClause(a.Neg(), b.Neg(), o)
	s.sat.AddClause(a, o.Neg())
	s.sat.AddClause(b, o.Neg())
	return o
}

func (s *Solver) orLit(a, b sat.Lit) sat.Lit {
	return s.andLit(a.Neg(), b.Neg()).Neg()
}

// xorLit returns a literal equivalent to a XOR b.
func (s *Solver) xorLit(a, b sat.Lit) sat.Lit {
	switch {
	case a == s.trueLit:
		return b.Neg()
	case a == s.falseLit():
		return b
	case b == s.trueLit:
		return a.Neg()
	case b == s.falseLit():
		return a
	case a == b:
		return s.falseLit()
	case a == b.Neg():
		return s.trueLit
	}
	o := s.fresh()
	s.sat.AddClause(a.Neg(), b.Neg(), o.Neg())
	s.sat.AddClause(a, b, o.Neg())
	s.sat.AddClause(a.Neg(), b, o)
	s.sat.AddClause(a, b.Neg(), o)
	return o
}

// muxLit returns c ? a : b.
func (s *Solver) muxLit(c, a, b sat.Lit) sat.Lit {
	return s.orLit(s.andLit(c, a), s.andLit(c.Neg(), b))
}

// bits returns the SAT literals representing each bit of t (LSB first).
func (s *Solver) bits(t *Term) []sat.Lit {
	if bs := *s.termBits.At(t.num); bs != nil {
		s.blastHits++
		return bs
	}
	var out []sat.Lit
	switch t.Kind {
	case KConst:
		out = make([]sat.Lit, t.Width)
		for i := 0; i < t.Width; i++ {
			out[i] = s.constLit(t.Val>>uint(i)&1 == 1)
		}
	case KVar:
		if bs, ok := s.varBits[t.Name]; ok {
			if len(bs) != t.Width {
				panic("bv: variable " + t.Name + " used at two widths")
			}
			out = bs
		} else {
			out = make([]sat.Lit, t.Width)
			for i := range out {
				out[i] = s.fresh()
			}
			s.varBits[t.Name] = out
		}
	case KNot:
		a := s.bits(t.A)
		out = make([]sat.Lit, t.Width)
		for i := range out {
			out[i] = a[i].Neg()
		}
	case KAnd, KOr, KXor:
		a, b := s.bits(t.A), s.bits(t.B)
		out = make([]sat.Lit, t.Width)
		for i := range out {
			switch t.Kind {
			case KAnd:
				out[i] = s.andLit(a[i], b[i])
			case KOr:
				out[i] = s.orLit(a[i], b[i])
			default:
				out[i] = s.xorLit(a[i], b[i])
			}
		}
	case KAdd, KSub:
		a, b := s.bits(t.A), s.bits(t.B)
		if t.Kind == KSub {
			// a - b = a + ~b + 1
			nb := make([]sat.Lit, len(b))
			for i := range b {
				nb[i] = b[i].Neg()
			}
			out = s.adder(a, nb, s.trueLit)
		} else {
			out = s.adder(a, b, s.falseLit())
		}
	case KIte:
		c := s.lit(t.Cond)
		a, b := s.bits(t.A), s.bits(t.B)
		out = make([]sat.Lit, t.Width)
		for i := range out {
			out[i] = s.muxLit(c, a[i], b[i])
		}
	case KZext:
		a := s.bits(t.A)
		out = make([]sat.Lit, t.Width)
		copy(out, a)
		for i := len(a); i < t.Width; i++ {
			out[i] = s.falseLit()
		}
	case KShlC:
		a := s.bits(t.A)
		k := int(t.Val)
		out = make([]sat.Lit, t.Width)
		for i := 0; i < t.Width; i++ {
			if i < k {
				out[i] = s.falseLit()
			} else {
				out[i] = a[i-k]
			}
		}
	case KLshrC, KAshrC:
		a := s.bits(t.A)
		k := int(t.Val)
		fill := s.falseLit()
		if t.Kind == KAshrC {
			fill = a[t.Width-1]
		}
		out = make([]sat.Lit, t.Width)
		for i := 0; i < t.Width; i++ {
			if i+k < t.Width {
				out[i] = a[i+k]
			} else {
				out[i] = fill
			}
		}
	default:
		panic("bv: cannot blast term kind")
	}
	*s.termBits.At(t.num) = out
	return out
}

// adder is a ripple-carry adder over literal vectors (LSB first).
func (s *Solver) adder(a, b []sat.Lit, carry sat.Lit) []sat.Lit {
	out := make([]sat.Lit, len(a))
	for i := range a {
		axb := s.xorLit(a[i], b[i])
		out[i] = s.xorLit(axb, carry)
		// carry' = (a&b) | (carry & (a^b))
		carry = s.orLit(s.andLit(a[i], b[i]), s.andLit(carry, axb))
	}
	return out
}

// ultLit encodes unsigned a < b via a borrow chain.
func (s *Solver) ultLit(a, b []sat.Lit) sat.Lit {
	borrow := s.falseLit()
	for i := range a {
		diff := s.xorLit(a[i], b[i])
		// If bits differ the borrow becomes b_i, otherwise it propagates.
		borrow = s.muxLit(diff, b[i], borrow)
	}
	return borrow
}

// eqLit encodes bit-vector equality.
func (s *Solver) eqLit(a, b []sat.Lit) sat.Lit {
	acc := s.trueLit
	for i := range a {
		acc = s.andLit(acc, s.xorLit(a[i], b[i]).Neg())
	}
	return acc
}

// lit returns the SAT literal representing the truth of b.
func (s *Solver) lit(b *Bool) sat.Lit {
	if e := s.boolLits.At(b.num); e.ok {
		s.blastHits++
		return e.lit
	}
	var out sat.Lit
	switch b.Kind {
	case BConst:
		out = s.constLit(b.Val)
	case BVar:
		if l, ok := s.boolVars[b.Name]; ok {
			out = l
		} else {
			out = s.fresh()
			s.boolVars[b.Name] = out
		}
	case BNot:
		out = s.lit(b.A).Neg()
	case BAnd:
		out = s.andLit(s.lit(b.A), s.lit(b.B))
	case BOr:
		out = s.orLit(s.lit(b.A), s.lit(b.B))
	case BEq:
		out = s.eqLit(s.bits(b.X), s.bits(b.Y))
	case BUlt:
		out = s.ultLit(s.bits(b.X), s.bits(b.Y))
	case BUle:
		out = s.ultLit(s.bits(b.Y), s.bits(b.X)).Neg()
	default:
		panic("bv: cannot blast bool kind")
	}
	*s.boolLits.At(b.num) = blasted{out, true}
	return out
}

// Assert adds the constraint b to the instance.
func (s *Solver) Assert(b *Bool) {
	s.sat.AddClause(s.lit(b))
}

// Check decides the asserted constraints.
func (s *Solver) Check() sat.Status {
	s.sat.Budget = s.Budget
	s.sat.Faults = s.Faults
	s.status = s.sat.Solve()
	return s.status
}

// Lit blasts b (memoized) and returns its SAT literal without asserting it.
// The literal can be passed to CheckAssumingLits to query b's truth under
// assumptions, which is how callers encode a formula once and re-use it
// across many queries.
func (s *Solver) Lit(b *Bool) sat.Lit { return s.lit(b) }

// CheckAssumingLits decides the asserted constraints together with the given
// literals taken as temporary assumptions: they are not asserted, so the
// next query on this solver is free to assume a different set.
func (s *Solver) CheckAssumingLits(lits ...sat.Lit) sat.Status {
	s.sat.Budget = s.Budget
	s.sat.Faults = s.Faults
	s.status = s.sat.SolveAssuming(lits...)
	return s.status
}

// ModelAssignment returns the full model of the last Sat result as an
// Assignment over every blasted variable. It must only be called after a
// Check/CheckAssumingLits that returned Sat, before the instance is grown again.
func (s *Solver) ModelAssignment() *Assignment {
	if s.status != sat.Sat {
		panic("bv: ModelAssignment called without a sat model")
	}
	return s.modelAssignment()
}

// NumSATVars returns the number of SAT variables allocated by blasting so
// far; callers use it to decide when a long-lived incremental solver has
// accreted enough encoding to be worth rebuilding.
func (s *Solver) NumSATVars() int { return s.sat.NumVars() }

// BlastHits returns the cumulative CNF-encoding memo hits of this solver.
// Callers flush deltas of this monotone count into engine.Budget.
func (s *Solver) BlastHits() int64 { return s.blastHits }

func (s *Solver) modelAssignment() *Assignment {
	a := &Assignment{Terms: map[string]uint64{}, Bools: map[string]bool{}}
	for name, bits := range s.varBits {
		var v uint64
		for i, l := range bits {
			bit := s.sat.Model(l.Var())
			if l.Sign() {
				bit = !bit
			}
			if bit {
				v |= 1 << uint(i)
			}
		}
		a.Terms[name] = v
	}
	for name, l := range s.boolVars {
		bit := s.sat.Model(l.Var())
		if l.Sign() {
			bit = !bit
		}
		a.Bools[name] = bit
	}
	return a
}

// ---- Convenience entry points ----

// CheckSat decides the conjunction of the given formulas and, when
// satisfiable, returns a model assignment. The optional budget b carries
// run-wide cancellation and conflict accounting into the SAT layer.
func CheckSat(b *engine.Budget, formulas ...*Bool) (sat.Status, *Assignment) {
	s := NewSolver()
	s.Budget = b
	for _, f := range formulas {
		s.Assert(f)
	}
	b.Add(engine.BlastHits, s.BlastHits())
	st := s.Check()
	if st != sat.Sat {
		return st, nil
	}
	return st, s.modelAssignment()
}
