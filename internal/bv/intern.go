package bv

import (
	"errors"
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
// direction, pointer-equal ⇒ structurally equal.
//
// Lookups come first and allocate nothing: the tables are keyed by the Term
// and Bool structs themselves, so a constructor builds its candidate node on
// the stack and only a miss copies it to the heap. The 8-bit constants, which
// every concrete string and gadget argument is made of, also sit in a
// 256-entry table that skips the map on later calls; a slot is filled
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
	mu      sync.Mutex
	termTab map[Term]*Term
	boolTab map[Bool]*Bool
	// bytes[v] is the interned 8-bit constant v, or nil before its first
	// use. Written only under mu (by intern, and cleared with termTab at the
	// soft cap), read without it.
	bytes   [256]atomic.Pointer[Term]
	softCap int
	budget  *engine.Budget
	faults  *faultpoint.Registry
	nodes   int64

	// Rewrite-before-blast simplification memo (see simplify.go). Guarded by
	// simpMu, which is always acquired before mu (the simplifier calls the
	// constructors, which take mu), never the other way around.
	simpMu       sync.Mutex
	simpTermTab  map[*Term]*Term
	simpBoolTab  map[*Bool]*Bool
	simpOutBools map[*Bool]struct{}
	simpOutTerms map[*Term]struct{}
	simpCalls    int64
	simpNodesIn  int64
	simpNodesOut int64

	// Value-numbering switch and counters (see simplify.go, vn.go). The
	// switch is inverted so the zero value keeps value numbering ON; it must
	// be set before the interner is used (the simp memo tables cache results
	// computed under the mode in force, so flipping it mid-run would serve
	// stale rewrites). vnHits/iteFusions are guarded by simpMu like the
	// tables they instrument.
	vnOff      atomic.Bool
	vnHits     int64
	iteFusions int64
}

// NewInterner returns an empty interner with the default soft cap.
func NewInterner() *Interner {
	return &Interner{
		termTab: make(map[Term]*Term),
		boolTab: make(map[Bool]*Bool),
		softCap: DefaultSoftCap,
	}
}

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

// SetVN switches the value-numbering rewrite layer (memoized simplification
// hits, ite-aware fusion rules, guard-implication pruning) on or off. It is
// on by default; off restores the PR 6 rewrite set exactly, which is the
// baseline the -vn bench lane measures against. Call it before the interner
// is used — the simplification memo caches results computed under the mode
// in force. Returns the interner for chaining.
func (in *Interner) SetVN(on bool) *Interner {
	in.vnOff.Store(!on)
	return in
}

// VNEnabled reports whether the value-numbering layer is active.
func (in *Interner) VNEnabled() bool { return !in.vnOff.Load() }

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
	in.mu.Lock()
	if old, ok := in.termTab[t]; ok {
		in.mu.Unlock()
		return old
	}
	if len(in.termTab) >= in.softCap {
		in.termTab = make(map[Term]*Term)
		for i := range in.bytes {
			in.bytes[i].Store(nil)
		}
	}
	n := new(Term)
	*n = t
	in.termTab[t] = n
	if t.Kind == KConst && t.Width == 8 {
		in.bytes[t.Val].Store(n)
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
	in.mu.Lock()
	if old, ok := in.boolTab[b]; ok {
		in.mu.Unlock()
		return old
	}
	if len(in.boolTab) >= in.softCap {
		in.boolTab = make(map[Bool]*Bool)
	}
	n := new(Bool)
	*n = b
	in.boolTab[b] = n
	in.nodes++
	bud, f := in.budget, in.faults
	in.mu.Unlock()
	bud.Add(engine.Nodes, 1)
	if f.Fire(faultpoint.BVNodeExhaust) {
		bud.Fail(errInjectedNodeExhaustion)
	}
	return n
}
