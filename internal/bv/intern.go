package bv

import (
	"errors"
	"math"
	"sync"
	"sync/atomic"

	"stringloops/internal/engine"
	"stringloops/internal/faultpoint"
)

// Hash-consing: every constructor funnels through intern/internBool, so
// structurally equal nodes built by the same Interner are pointer-equal.
// This keeps expression DAGs from exploding (symbolic execution rebuilds the
// same subterms constantly), makes the pointer-equality rewrites in the
// smart constructors fire, and turns the per-node caches in the evaluator
// and bit-blaster into true DAG-linear algorithms.
//
// The tables live on an Interner rather than in package globals, so every
// pipeline (one synthesis run, one verification, one corpus worker) owns its
// own tables: concurrent runs neither serialise on a shared lock nor evict
// each other's nodes at the soft cap, and dropping the Interner releases the
// whole DAG at once. Pointer equality is therefore a *per-interner*
// invariant: terms from the same Interner are pointer-equal iff structurally
// equal; terms from different Interners may be structurally equal without
// being pointer-equal — which is always safe, because every rewrite keyed on
// pointer equality (a == b, cond == True) only assumes the forward
// direction, pointer-equal ⇒ structurally equal. Node numbers are per
// interner as well (dense.go), so the side tables indexed by them hold one
// interner's nodes, and a formula must not mix nodes of two interners.
//
// Lookups come first and allocate nothing. Each table is an open-addressing
// array of node pointers (table.go) with a structural hash: kind, width and
// value, the children by address, and the name only for variables. A
// constructor builds its candidate node on the stack, hashes it outside the
// lock, and only a miss copies it into the next node of a 256-node slab and
// gives it the next number of its sort. The 8-bit constants, which every
// concrete string and gadget argument is made of, and the 32-bit constants
// 0..1023, which symex builds its offsets and indexes from, also sit in
// lazily filled arrays that skip the table on later calls; a slot is filled
// through intern on first use, so a new constant is counted and charged
// exactly like any other new node.

// DefaultSoftCap is the default per-interner table size at which the tables
// are cleared; see Interner.SetSoftCap.
const DefaultSoftCap = 1 << 21

// Interner owns the hash-cons tables of one pipeline. The zero value is not
// usable; call NewInterner. An Interner is safe for concurrent use by
// multiple goroutines (one pipeline may still fan work out internally), but
// the intended discipline is one Interner per concurrent run.
type Interner struct {
	mu    sync.Mutex
	terms table[Term, *Term]
	bools table[Bool, *Bool]
	// The slabs new nodes are carved from.
	termSlab []Term
	boolSlab []Bool
	// termNum and boolNum are the numbers the next new term and bool get
	// (dense.go).
	termNum, boolNum uint32
	// bytes[v] is the interned 8-bit constant v, and int32s[v] the 32-bit
	// constant v, or nil before its first use. Written only under mu (by
	// intern, and cleared with terms at the soft cap), read without it.
	bytes   [256]atomic.Pointer[Term]
	int32s  [int32Consts]atomic.Pointer[Term]
	softCap int
	budget  *engine.Budget
	faults  *faultpoint.Registry
	nodes   int64

	// Rewrite-before-blast simplification memo (see simplify.go), and the
	// guard pruner's per-conjunct scratch (vn.go). Guarded by simpMu, which
	// is always acquired before mu (the simplifier calls the constructors,
	// which take mu), never the other way around.
	simpMu     sync.Mutex
	simpTerms  Pages[simpEntry[Term]]
	simpBools  Pages[simpEntry[Bool]]
	pruneTerms Marks[*Term]
	pruneBools Marks[*Bool]
	// tally counts the running call's work (see simpTally), guarded by
	// simpMu like the tables it instruments.
	tally simpTally
}

// NewInterner returns an empty interner with the default soft cap.
func NewInterner() *Interner {
	return &Interner{softCap: DefaultSoftCap, boolNum: 2}
}

// int32Consts bounds the 32-bit constant table: Int32(v) for 0 <= v <
// int32Consts skips the term table after its first call.
const int32Consts = 1024

// SetSoftCap bounds each hash-cons table. When a table grows past the cap it
// is cleared, which only costs future sharing: nodes already handed out stay
// valid, and pointer equality still implies structural equality afterwards —
// the tables only deduplicate *future* constructions against each other.
// A cap <= 0 restores the default. Returns the interner for chaining.
func (in *Interner) SetSoftCap(cap int) *Interner {
	if cap <= 0 {
		cap = DefaultSoftCap
	}
	in.mu.Lock()
	in.softCap = cap
	in.mu.Unlock()
	return in
}

// SetBudget charges every newly interned node to b (engine.Nodes),
// so a node-limited budget can stop a pipeline whose expression DAG grows
// without bound. A nil budget disables charging. Returns the interner for
// chaining.
func (in *Interner) SetBudget(b *engine.Budget) *Interner {
	in.mu.Lock()
	in.budget = b
	in.mu.Unlock()
	return in
}

// SetFaults arms the BVNodeExhaust injection site: each newly interned node
// consults the registry, and a firing fails the interner's budget as if the
// interned-node limit had tripped — the whole pipeline then unwinds through
// its ordinary budget-exhaustion paths. A nil registry (the default) costs
// one pointer comparison per new node and nothing on table hits. Returns the
// interner for chaining.
func (in *Interner) SetFaults(f *faultpoint.Registry) *Interner {
	in.mu.Lock()
	in.faults = f
	in.mu.Unlock()
	return in
}

// budgetNow returns the interner's current budget (nil-safe to use).
func (in *Interner) budgetNow() *engine.Budget {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.budget
}

// errInjectedNodeExhaustion is the cause recorded when BVNodeExhaust fires.
var errInjectedNodeExhaustion = errors.Join(
	errors.New("bv: interned-node limit"), faultpoint.ErrInjected)

// Nodes reports how many distinct nodes this interner has created (monotone;
// clearing the tables at the soft cap does not reset it).
func (in *Interner) Nodes() int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.nodes
}

func (in *Interner) intern(t Term) *Term {
	h := t.hash()
	in.mu.Lock()
	old, at := in.terms.find(&t, h)
	if old != nil {
		in.mu.Unlock()
		return old
	}
	if in.terms.n >= in.softCap {
		in.terms.reset()
		for i := range in.bytes {
			in.bytes[i].Store(nil)
		}
		for i := range in.int32s {
			in.int32s[i].Store(nil)
		}
		at = in.terms.free(h)
	}
	n := carve(&in.termSlab)
	*n = t
	n.num = nextNum(&in.termNum)
	in.terms.insert(n, h, at)
	if t.Kind == KConst {
		switch {
		case t.Width == 8:
			in.bytes[t.Val].Store(n)
		case t.Width == 32 && t.Val < int32Consts:
			in.int32s[t.Val].Store(n)
		}
	}
	in.nodes++
	b, f := in.budget, in.faults
	in.mu.Unlock()
	b.Add(engine.Nodes, 1)
	if f.Fire(faultpoint.BVNodeExhaust) {
		b.Fail(errInjectedNodeExhaustion)
	}
	return n
}

func (in *Interner) internBool(b Bool) *Bool {
	h := b.hash()
	in.mu.Lock()
	old, at := in.bools.find(&b, h)
	if old != nil {
		in.mu.Unlock()
		return old
	}
	if in.bools.n >= in.softCap {
		in.bools.reset()
		at = in.bools.free(h)
	}
	n := carve(&in.boolSlab)
	*n = b
	n.num = nextNum(&in.boolNum)
	in.bools.insert(n, h, at)
	in.nodes++
	bud, f := in.budget, in.faults
	in.mu.Unlock()
	bud.Add(engine.Nodes, 1)
	if f.Fire(faultpoint.BVNodeExhaust) {
		bud.Fail(errInjectedNodeExhaustion)
	}
	return n
}

// nextNum hands out the number *next and advances it. Numbers are never
// reused, so running out of them is fatal; an interner serves one
// pipeline, and a whole Table 3 sweep interns about 200,000 nodes.
func nextNum(next *uint32) uint32 {
	n := *next
	if n == math.MaxUint32 {
		panic("bv: interner ran out of node numbers")
	}
	*next = n + 1
	return n
}
