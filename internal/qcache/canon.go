package qcache

import (
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"sort"
	"strconv"
	"strings"

	"stringloops/internal/bv"
	"stringloops/internal/sat"
)

// This file is the canonical, interner-independent serialization of sliced
// conjunct sets — the fix for the ordinal-keying bug and the foundation of
// the persistent cache tier. The old exact-map key was a sorted set of
// per-cache conjunct ordinals: meaningless outside the
// cache that assigned them, so two pipelines building the same structural
// query could never share an entry. Canonical keys are content addresses:
//
//   - Each conjunct serializes to a DAG-aware canonical string. Shared
//     subterms are numbered on first visit and referenced by number after,
//     so the serialization is linear in the DAG size (a tree walk would be
//     exponential on the ite chains state merging builds). Original variable
//     names are kept at this level — the per-conjunct strings induce the
//     conjunct IDs, and the subset-unsat rule compares ID sets, which is
//     only sound when distinct variables stay distinct.
//   - A group (one independent slice) serializes its conjuncts in sorted
//     canonical order with variables alpha-renamed by first occurrence, so
//     the key is independent of the interner, of allocation order, and of
//     the names the front-end happened to generate. The sha256 of that
//     serialization is the group key — the exact-map key in memory and the
//     content address on disk.
//   - The groupKey records the original tagged variable names in canonical
//     index order, so models cross the boundary in both directions: stored
//     entries hold values in canonical order, and a hit translates them
//     back into the querying group's own variable names.
type groupKey struct {
	key string
	// vars holds the group's original tagged names ("t:x" / "b:p"), indexed
	// by canonical variable number (first occurrence in the canonical
	// serialization order).
	vars []string
	// ids is the sorted conjunct-ID set the key was computed for, and next
	// chains keys whose ID sets hash alike (see groupKeyOf).
	ids  []int
	next *groupKey
	// entry caches the key's exact-map entry; it is current while gen
	// equals the cache's generation.
	entry *exactEntry
	gen   uint64
}

// canonWriter serializes bv DAGs. With rename set, variable names are
// replaced by "@<canonical index>" tokens assigned at first occurrence. bn
// and tn hold each visited node's reference number, indexed by node number.
type canonWriter struct {
	sb     strings.Builder
	bn     bv.Marks[int]
	tn     bv.Marks[int]
	next   int
	rename bool
	index  map[string]int // tagged name -> canonical index, when renaming
	order  []string       // tagged names in canonical index order
}

// canonWriter readies the cache's writer for one serialization, renaming
// variables when rename is set. Its node tables move their generation
// stamp and its name index is cleared, so serializing a large DAG neither
// clears nor regrows them every time. Caller holds c.mu.
func (c *Cache) canonWriter(rename bool) *canonWriter {
	w := &c.canon
	if w.index == nil {
		w.index = map[string]int{}
	}
	w.bn.Reset()
	w.tn.Reset()
	clear(w.index)
	w.sb = strings.Builder{}
	w.next, w.rename, w.order = 0, rename, nil
	return w
}

func (w *canonWriter) ref(n int) {
	w.sb.WriteByte('#')
	w.sb.WriteString(strconv.Itoa(n))
}

func (w *canonWriter) name(tag byte, name string) {
	if !w.rename {
		w.sb.WriteByte('[')
		w.sb.WriteByte(tag)
		w.sb.WriteByte(':')
		w.sb.WriteString(name)
		w.sb.WriteByte(']')
		return
	}
	tagged := string(tag) + ":" + name
	idx, ok := w.index[tagged]
	if !ok {
		idx = len(w.order)
		w.index[tagged] = idx
		w.order = append(w.order, tagged)
	}
	w.sb.WriteByte('@')
	w.sb.WriteString(strconv.Itoa(idx))
}

func (w *canonWriter) boolExpr(f *bv.Bool) {
	if n, ok := w.bn.Get(f.Num()); ok {
		w.ref(n)
		return
	}
	w.bn.Set(f.Num(), w.next)
	w.next++
	w.sb.WriteString("(b")
	w.sb.WriteString(strconv.Itoa(int(f.Kind)))
	switch f.Kind {
	case bv.BConst:
		if f.Val {
			w.sb.WriteByte('1')
		} else {
			w.sb.WriteByte('0')
		}
	case bv.BVar:
		w.name('b', f.Name)
	case bv.BNot:
		w.boolExpr(f.A)
	case bv.BAnd, bv.BOr:
		w.boolExpr(f.A)
		w.boolExpr(f.B)
	default: // BEq, BUlt, BUle
		w.termExpr(f.X)
		w.termExpr(f.Y)
	}
	w.sb.WriteByte(')')
}

func (w *canonWriter) termExpr(t *bv.Term) {
	if n, ok := w.tn.Get(t.Num()); ok {
		w.ref(n)
		return
	}
	w.tn.Set(t.Num(), w.next)
	w.next++
	w.sb.WriteString("(t")
	w.sb.WriteString(strconv.Itoa(int(t.Kind)))
	w.sb.WriteByte(':')
	w.sb.WriteString(strconv.Itoa(t.Width))
	switch t.Kind {
	case bv.KConst, bv.KShlC, bv.KLshrC, bv.KAshrC:
		w.sb.WriteByte(':')
		w.sb.WriteString(strconv.FormatUint(t.Val, 10))
	}
	switch t.Kind {
	case bv.KConst:
	case bv.KVar:
		w.name('t', t.Name)
	case bv.KIte:
		w.boolExpr(t.Cond)
		w.termExpr(t.A)
		w.termExpr(t.B)
	default:
		if t.A != nil {
			w.termExpr(t.A)
		}
		if t.B != nil {
			w.termExpr(t.B)
		}
	}
	w.sb.WriteByte(')')
}

// canonString serializes one conjunct with its original variable names;
// info memoizes it. Caller holds c.mu.
func (c *Cache) canonString(cj *bv.Bool) string {
	w := c.canonWriter(false)
	w.boolExpr(cj)
	return w.sb.String()
}

// groupKeyOf builds (and memoizes, keyed by the group's sorted ID set) the
// canonical group key: conjuncts sorted by per-conjunct canonical string,
// deduplicated, serialized with alpha-renamed variables, hashed. The memo is
// looked up by a hash of the ID set, so a hit formats and hashes no string.
// Caller holds c.mu.
func (c *Cache) groupKeyOf(conj []*bv.Bool, ids []int) *groupKey {
	h := hashIDs(ids)
	for gk := c.groupKeys[h]; gk != nil; gk = gk.next {
		if slices.Equal(gk.ids, ids) {
			return gk
		}
	}

	keys := make([]string, len(conj))
	for i, cj := range conj {
		keys[i] = c.info(cj).canon
	}
	order := make([]int, len(conj))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return keys[order[a]] < keys[order[b]] })

	w := c.canonWriter(true)
	prev := ""
	for n, i := range order {
		if n > 0 && keys[i] == prev {
			continue // structurally identical conjunct: one occurrence keys
		}
		prev = keys[i]
		w.boolExpr(conj[i])
		w.sb.WriteByte('\n')
	}
	sum := sha256.Sum256([]byte(w.sb.String()))

	if len(c.groupKeys) >= maxExact {
		c.groupKeys = map[uint64]*groupKey{}
	}
	gk := &groupKey{key: hex.EncodeToString(sum[:]), vars: w.order, ids: slices.Clone(ids), next: c.groupKeys[h]}
	c.groupKeys[h] = gk
	return gk
}

// hashIDs is FNV-1a over a sorted conjunct-ID set.
func hashIDs(ids []int) uint64 {
	h := uint64(14695981039346656037)
	for _, id := range ids {
		h ^= uint64(id)
		h *= 1099511628211
	}
	return h
}

// canonVals projects a restricted, original-named model into canonical
// variable order (bools as 0/1). Unbound variables read zero, matching
// restrictModel's zero-fill.
func (gk *groupKey) canonVals(m *bv.Assignment) []uint64 {
	vals := make([]uint64, len(gk.vars))
	for i, tagged := range gk.vars {
		name := tagged[2:]
		if tagged[0] == 't' {
			vals[i] = m.Terms[name]
		} else if m.Bools[name] {
			vals[i] = 1
		}
	}
	return vals
}

// modelFor translates canonical values back into this group's own variable
// names — the step that lets an entry stored by one pipeline (with its own
// names) answer a structurally identical query from another.
func (gk *groupKey) modelFor(vals []uint64) *bv.Assignment {
	out := &bv.Assignment{Terms: map[string]uint64{}, Bools: map[string]bool{}}
	for i, tagged := range gk.vars {
		name := tagged[2:]
		var v uint64
		if i < len(vals) {
			v = vals[i]
		}
		if tagged[0] == 't' {
			out.Terms[name] = v
		} else {
			out.Bools[name] = v != 0
		}
	}
	return out
}

// encodeEntry renders a verdict for the disk store: "U" for unsat, "S" plus
// the canonical values for sat.
func encodeEntry(st sat.Status, vals []uint64) []byte {
	if st == sat.Unsat {
		return []byte("U")
	}
	var sb strings.Builder
	sb.WriteByte('S')
	for _, v := range vals {
		sb.WriteByte(' ')
		sb.WriteString(strconv.FormatUint(v, 10))
	}
	return []byte(sb.String())
}

// decodeEntry parses a disk verdict. It tolerates any corruption by
// reporting ok=false (the entry is then ignored — a cold miss, never a
// wrong answer). nvars guards against entries whose shape no longer matches
// the querying group.
func decodeEntry(raw []byte, nvars int) (st sat.Status, vals []uint64, ok bool) {
	s := string(raw)
	if s == "U" {
		return sat.Unsat, nil, true
	}
	rest, found := strings.CutPrefix(s, "S")
	if !found {
		return 0, nil, false
	}
	fields := strings.Fields(rest)
	if len(fields) != nvars {
		return 0, nil, false
	}
	vals = make([]uint64, nvars)
	for i, f := range fields {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, nil, false
		}
		vals[i] = v
	}
	return sat.Sat, vals, true
}
