package qcache

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"stringloops/internal/bv"
)

// refCanon is the map-keyed canonical writer that node numbers replaced,
// kept as an oracle: the same serialization over fresh maps per call.
type refCanon struct {
	sb     strings.Builder
	bn     map[*bv.Bool]int
	tn     map[*bv.Term]int
	next   int
	rename bool
	index  map[string]int
	order  []string
}

func newRefCanon(rename bool) *refCanon {
	return &refCanon{bn: map[*bv.Bool]int{}, tn: map[*bv.Term]int{}, rename: rename, index: map[string]int{}}
}

func (w *refCanon) name(tag byte, name string) {
	if !w.rename {
		fmt.Fprintf(&w.sb, "[%c:%s]", tag, name)
		return
	}
	tagged := string(tag) + ":" + name
	idx, ok := w.index[tagged]
	if !ok {
		idx = len(w.order)
		w.index[tagged] = idx
		w.order = append(w.order, tagged)
	}
	fmt.Fprintf(&w.sb, "@%d", idx)
}

func (w *refCanon) boolExpr(f *bv.Bool) {
	if n, ok := w.bn[f]; ok {
		fmt.Fprintf(&w.sb, "#%d", n)
		return
	}
	w.bn[f] = w.next
	w.next++
	fmt.Fprintf(&w.sb, "(b%d", f.Kind)
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
	default:
		w.termExpr(f.X)
		w.termExpr(f.Y)
	}
	w.sb.WriteByte(')')
}

func (w *refCanon) termExpr(t *bv.Term) {
	if n, ok := w.tn[t]; ok {
		fmt.Fprintf(&w.sb, "#%d", n)
		return
	}
	w.tn[t] = w.next
	w.next++
	fmt.Fprintf(&w.sb, "(t%d:%d", t.Kind, t.Width)
	switch t.Kind {
	case bv.KConst, bv.KShlC, bv.KLshrC, bv.KAshrC:
		w.sb.WriteString(":" + strconv.FormatUint(t.Val, 10))
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

// randomFormulas builds n formulas as DAGs that share subterms: every new
// node draws its operands from pools of earlier terms and formulas.
func randomFormulas(in *bv.Interner, rng *rand.Rand, n int) []*bv.Bool {
	terms := []*bv.Term{in.Var("x", 8), in.Var("y", 8), in.Byte(7)}
	bools := []*bv.Bool{in.BoolVar("p"), in.BoolVar("x")}
	pickT := func() *bv.Term { return terms[rng.Intn(len(terms))] }
	pickB := func() *bv.Bool { return bools[rng.Intn(len(bools))] }
	var out []*bv.Bool
	for len(out) < n {
		switch rng.Intn(9) {
		case 0:
			terms = append(terms, in.Add(pickT(), in.Byte(byte(rng.Intn(256)))))
		case 1:
			terms = append(terms, in.Xor(pickT(), pickT()))
		case 2:
			terms = append(terms, in.Ite(pickB(), pickT(), pickT()))
		case 3:
			terms = append(terms, in.LshrC(pickT(), 1+rng.Intn(7)))
		case 4:
			terms = append(terms, in.Var(fmt.Sprintf("s[%d]", rng.Intn(6)), 8))
		case 5:
			bools = append(bools, in.BAnd2(pickB(), in.BNot1(pickB())))
		case 6:
			bools = append(bools, in.BOr2(pickB(), pickB()))
		case 7:
			bools = append(bools, in.Ult(pickT(), pickT()))
		default:
			f := in.Eq(pickT(), pickT())
			bools = append(bools, f)
			out = append(out, f)
		}
	}
	return out
}

// TestCanonWriterMatchesMapReference holds the number-indexed canonical
// writer, reused through one cache, to the map-keyed reference: every
// formula's per-conjunct serialization, and the alpha-renamed serialization
// of random groups (back-references span conjuncts there) with its
// variable order.
func TestCanonWriterMatchesMapReference(t *testing.T) {
	in := bv.NewInterner().SetSoftCap(512)
	rng := rand.New(rand.NewSource(13))
	c := New(in)
	fs := randomFormulas(in, rng, 600)
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, f := range fs {
		ref := newRefCanon(false)
		ref.boolExpr(f)
		if got := c.canonString(f); got != ref.sb.String() {
			t.Fatalf("formula %d: canonString\n  %s\nreference\n  %s", i, got, ref.sb.String())
		}
		group := []*bv.Bool{f}
		for k := rng.Intn(4); k > 0; k-- {
			group = append(group, fs[rng.Intn(len(fs))])
		}
		w := c.canonWriter(true)
		ref = newRefCanon(true)
		for _, g := range group {
			w.boolExpr(g)
			w.sb.WriteByte('\n')
			ref.boolExpr(g)
			ref.sb.WriteByte('\n')
		}
		if w.sb.String() != ref.sb.String() || !slices.Equal(w.order, ref.order) {
			t.Fatalf("group %d: renamed serialization\n  %s %v\nreference\n  %s %v",
				i, w.sb.String(), w.order, ref.sb.String(), ref.order)
		}
	}
}

// BenchmarkReuseProbe is the counterexample-reuse probe on a miss: one new
// group of eight unary byte conjuncts checked against 64 cached models,
// none of which satisfies its last conjunct, so each model evaluates the
// whole group. The groups are built outside the timer, 256 at a time.
func BenchmarkReuseProbe(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(1))
	in := bv.NewInterner()
	c := New(in)
	s := make([]*bv.Term, 8)
	for i := range s {
		s[i] = in.Var(fmt.Sprintf("s[%d]", i), 8)
	}
	for range maxModels {
		m := &bv.Assignment{Terms: map[string]uint64{}}
		for i := range s {
			m.Terms[fmt.Sprintf("s[%d]", i)] = uint64('a' + rng.Intn(26))
		}
		c.addModel(m)
	}
	const batch = 256
	groups := make([][]*bv.Bool, batch)
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := 0; i < b.N; i++ {
		if i%batch == 0 {
			b.StopTimer()
			for j := range groups {
				g := make([]*bv.Bool, 0, len(s))
				for _, x := range s[:len(s)-1] {
					lo := byte(rng.Intn(64))
					g = append(g, in.Ult(in.Sub(x, in.Byte(lo)), in.Byte(byte(128+rng.Intn(64)))))
				}
				groups[j] = append(g, in.Eq(s[len(s)-1], in.Byte(byte(rng.Intn(32)))))
			}
			b.StartTimer()
		}
		if c.reuseModel(groups[i%batch]) != nil {
			b.Fatal("a model satisfies a group built to refute every model")
		}
	}
}
