package bv

import (
	"hash/maphash"
	"math/bits"
	"unsafe"
)

// table is an open-addressing hash-cons table of interned nodes: a
// power-of-two array of (hash, node) slots probed linearly, kept at most
// three-quarters full. A probe skips slots whose stored hash differs and
// compares the rest by structure, ignoring the node number, so a hit
// dereferences one node in the common case and a lookup allocates nothing.
// Nodes are never removed one by one; reset empties the whole table at the
// soft cap.
type table[N any, P node[N]] struct {
	slots []slot[N]
	n     int // occupied slots
}

// node is the pointer type of an interned node: its same method reports
// structural equality with another node, numbers ignored. The other node
// is passed by value, so a probe's stack key does not escape through the
// method call and a hit still allocates nothing.
type node[N any] interface {
	*N
	same(N) bool
}

func (t *Term) same(o Term) bool {
	return t.Kind == o.Kind && t.Width == o.Width && t.Val == o.Val &&
		t.A == o.A && t.B == o.B && t.Cond == o.Cond && t.Name == o.Name
}

func (b *Bool) same(o Bool) bool {
	return b.Kind == o.Kind && b.Val == o.Val && b.A == o.A && b.B == o.B &&
		b.X == o.X && b.Y == o.Y && b.Name == o.Name
}

type slot[N any] struct {
	h    uint64
	node *N // nil for an empty slot
}

// tableMinSlots is the size of a table's first array.
const tableMinSlots = 64

// find returns the interned node equal to *key, whose hash is h, or nil and
// the index of the empty slot where it belongs (-1 when the table has no
// array yet).
func (t *table[N, P]) find(key *N, h uint64) (*N, int) {
	if t.slots == nil {
		return nil, -1
	}
	mask := uint64(len(t.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.node == nil {
			return nil, int(i)
		}
		if s.h == h && P(s.node).same(*key) {
			return s.node, int(i)
		}
	}
}

// insert adds node, whose hash is h, at the empty slot find returned for
// it, growing the array first when the node would fill it beyond 3/4.
func (t *table[N, P]) insert(node *N, h uint64, at int) {
	if (t.n+1)*4 > len(t.slots)*3 {
		t.grow()
		at = t.free(h)
	}
	t.slots[at] = slot[N]{h, node}
	t.n++
}

// free returns the first empty slot on h's probe sequence.
func (t *table[N, P]) free(h uint64) int {
	mask := uint64(len(t.slots) - 1)
	i := h & mask
	for t.slots[i].node != nil {
		i = (i + 1) & mask
	}
	return int(i)
}

// grow doubles the array and re-places every node by its stored hash.
func (t *table[N, P]) grow() {
	old := t.slots
	t.slots = make([]slot[N], max(2*len(old), tableMinSlots))
	for _, s := range old {
		if s.node != nil {
			t.slots[t.free(s.h)] = s
		}
	}
}

// reset empties the table, keeping its array for the nodes to come.
func (t *table[N, P]) reset() {
	clear(t.slots)
	t.n = 0
}

// slabSize is the number of nodes carved from one allocation.
const slabSize = 256

// carve returns the next unused node of *slab, allocating a fresh
// slabSize-node chunk when it is used up. A chunk stays live while any node
// carved from it does.
func carve[N any](slab *[]N) *N {
	if len(*slab) == 0 {
		*slab = make([]N, slabSize)
	}
	n := &(*slab)[0]
	*slab = (*slab)[1:]
	return n
}

// The structural hash. Children are hashed by address, which is stable
// because Go's collector does not move heap objects and every child of an
// interned node is itself on the heap: structurally equal nodes from one
// interner have pointer-equal children, hence equal hashes. Names are
// hashed by content, and only for variables.

var nameSeed = maphash.MakeSeed()

// mix folds v into the running hash h with one 64x64→128 multiply.
func mix(h, v uint64) uint64 {
	hi, lo := bits.Mul64(h^0xa0761d6478bd642f, v^0xe7037ed1a0b428db)
	return hi ^ lo
}

func addr[P any](p *P) uint64 { return uint64(uintptr(unsafe.Pointer(p))) }

func (t *Term) hash() uint64 {
	h := mix(uint64(t.Kind)|uint64(t.Width)<<8, t.Val)
	h = mix(h, addr(t.A))
	h = mix(h, addr(t.B))
	h = mix(h, addr(t.Cond))
	if t.Kind == KVar {
		h = mix(h, maphash.String(nameSeed, t.Name))
	}
	return h
}

func (b *Bool) hash() uint64 {
	k := uint64(b.Kind)
	if b.Val {
		k |= 1 << 8
	}
	h := mix(k, addr(b.A))
	h = mix(h, addr(b.B))
	h = mix(h, addr(b.X))
	h = mix(h, addr(b.Y))
	if b.Kind == BVar {
		h = mix(h, maphash.String(nameSeed, b.Name))
	}
	return h
}
