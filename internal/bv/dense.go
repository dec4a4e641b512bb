package bv

// Dense node numbers. An Interner numbers every node it carves, terms and
// bools in two separate sequences: terms from 0, bools from 2, because 0
// and 1 are the shared False and True. A number is never reused, not even
// after a soft-cap clear, so within one interner it names one node for the
// interner's whole life. The solver stack's side tables over nodes (the
// simplifier's memos, the evaluator, the blaster, the variable scanner,
// the pruner, the query cache's conjunct memo and canonical writer) index
// by number: a lookup is an array access, with no hash, probe or rehash,
// and the tables hold no node pointers as keys.
//
// Numbers are per interner: two interners hand out the same numbers to
// different nodes. So a table indexed by number may hold the nodes of one
// interner only (plus True and False, which every interner shares), and a
// formula that mixes nodes of two interners must not reach one. Every
// pipeline builds its formulas with one interner, and a qcache.Cache is
// scoped to the interner it was made for.

// pageBits sizes a page at 64 entries. Most interners serve one loop and
// number a few thousand nodes, and a table touches only some of them, so
// what a table wastes sits in its partly used pages: 64-entry pages
// allocated less than 256-entry ones on every benchmark workload.
const (
	pageBits = 6
	pageSize = 1 << pageBits
)

// Pages is a table indexed by node number, held in fixed-size pages that
// are allocated on first write. It never copies an entry to grow (only its
// directory of page pointers grows), and a table that touches few numbers
// pays only for the pages they fall in. The zero value is an empty table.
type Pages[V any] struct {
	dir []*[pageSize]V
}

// At returns the entry for number n, the zero V until it is first written.
// Its page is allocated on first use and never moves, so the pointer stays
// valid while the table grows.
func (p *Pages[V]) At(n uint32) *V {
	i := int(n >> pageBits)
	if i >= len(p.dir) {
		p.dir = append(p.dir, make([]*[pageSize]V, i+1-len(p.dir))...)
	}
	pg := p.dir[i]
	if pg == nil {
		pg = new([pageSize]V)
		p.dir[i] = pg
	}
	return &pg[n&(pageSize-1)]
}

// Marks is per-call scratch indexed by node number: an entry counts only
// when it was written since the last Reset. Reset moves a generation stamp
// instead of clearing, so a call costs the nodes it visits, not the size of
// the table. Call Reset before the first use.
type Marks[V any] struct {
	gen uint32
	p   Pages[mark[V]]
}

type mark[V any] struct {
	gen uint32
	v   V
}

// Reset forgets every entry. When the stamp wraps, an entry stamped
// 2^32 generations ago would read as current, so the wrap clears the
// pages instead.
func (m *Marks[V]) Reset() {
	m.gen++
	if m.gen == 0 {
		for _, pg := range m.p.dir {
			if pg != nil {
				clear(pg[:])
			}
		}
		m.gen = 1
	}
}

// Get returns n's value and whether it was Set since the last Reset.
func (m *Marks[V]) Get(n uint32) (V, bool) {
	e := m.p.At(n)
	return e.v, e.gen == m.gen
}

// Set records v for n until the next Reset.
func (m *Marks[V]) Set(n uint32, v V) {
	*m.p.At(n) = mark[V]{m.gen, v}
}

// Num returns t's number in the interner that made it.
func (t *Term) Num() uint32 { return t.num }

// Num returns b's number in the interner that made it: 0 for False, 1 for
// True.
func (b *Bool) Num() uint32 { return b.num }
