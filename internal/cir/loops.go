package cir

import "sort"

// Loop is a natural loop: a header block and the set of blocks in its body
// (including the header). Loops form a nesting forest via Parent/Children.
type Loop struct {
	Header   *Block
	Blocks   map[*Block]bool
	Parent   *Loop
	Children []*Loop
}

// IsInnermost reports whether the loop has no nested loops.
func (l *Loop) IsInnermost() bool { return len(l.Children) == 0 }

// FindLoops detects the natural loops of f (back edges to dominating headers,
// merged per header) and computes their nesting, the analog of LLVM's
// LoopAnalysis used in §4.1.1.
func FindLoops(f *Func) []*Loop {
	f.RecomputePreds()
	dom := BuildDomTree(f)

	byHeader := map[*Block]*Loop{}
	var headers []*Block
	for _, b := range f.Blocks {
		for _, s := range b.Succs() {
			if !dom.Dominates(s, b) {
				continue
			}
			// Back edge b -> s: s is a loop header.
			l, ok := byHeader[s]
			if !ok {
				l = &Loop{Header: s, Blocks: map[*Block]bool{s: true}}
				byHeader[s] = l
				headers = append(headers, s)
			}
			// Natural loop body: blocks reaching b without passing s.
			var stack []*Block
			if b != s {
				stack = append(stack, b)
			}
			for len(stack) > 0 {
				n := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if l.Blocks[n] {
					continue
				}
				l.Blocks[n] = true
				for _, p := range n.Preds {
					stack = append(stack, p)
				}
			}
		}
	}

	loops := make([]*Loop, 0, len(headers))
	for _, h := range headers {
		loops = append(loops, byHeader[h])
	}
	// Sort by size ascending so that parents (larger) are assigned after
	// children when scanning; compute nesting by smallest enclosing loop.
	sort.Slice(loops, func(i, j int) bool { return len(loops[i].Blocks) < len(loops[j].Blocks) })
	for i, inner := range loops {
		for j := i + 1; j < len(loops); j++ {
			outer := loops[j]
			if outer != inner && outer.Blocks[inner.Header] && containsAll(outer, inner) {
				inner.Parent = outer
				outer.Children = append(outer.Children, inner)
				break
			}
		}
	}
	// Deterministic order: by header block ID.
	sort.Slice(loops, func(i, j int) bool { return loops[i].Header.ID < loops[j].Header.ID })
	return loops
}

func containsAll(outer, inner *Loop) bool {
	for b := range inner.Blocks {
		if !outer.Blocks[b] {
			return false
		}
	}
	return true
}

// Instrs iterates over all instructions in the loop body in block order.
func (l *Loop) Instrs() []*Instr {
	var blocks []*Block
	for b := range l.Blocks {
		blocks = append(blocks, b)
	}
	sort.Slice(blocks, func(i, j int) bool { return blocks[i].ID < blocks[j].ID })
	var out []*Instr
	for _, b := range blocks {
		out = append(out, b.Instrs...)
	}
	return out
}
