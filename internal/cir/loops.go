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
// LoopAnalysis used in §4.1.1. It only reads f.
func FindLoops(f *Func) []*Loop {
	_, succ := blockGraph(f)
	_, preds, idom := dominators(succ, 0)
	var loops []*Loop
	for _, nl := range naturalLoops(succ, preds, idom) {
		l := &Loop{Header: f.Blocks[nl.header], Blocks: map[*Block]bool{}}
		for i, in := range nl.body {
			if in {
				l.Blocks[f.Blocks[i]] = true
			}
		}
		loops = append(loops, l)
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

// naturalLoop is a natural loop of a numbered graph: its header and the
// membership of every node in its body, the header included.
type naturalLoop struct {
	header int
	body   []bool
}

// naturalLoops finds the natural loops of the graph with successor lists
// succ, given the predecessor lists and immediate dominators dominators
// returns for it. An edge u→h whose target dominates its source is a back
// edge, and the loop of header h holds h and every node that reaches the
// source of one of h's back edges without passing h. An unreachable node is
// dominated by itself only, so of its edges only a self-loop is a back edge.
// Loops come in the order their headers' first back edges are met, scanning
// nodes and their successors in order.
func naturalLoops(succ, preds [][]int, idom []int) []naturalLoop {
	var loops []naturalLoop
	loopOf := make([]int, len(succ)) // header -> its position in loops, plus one
	for u, ss := range succ {
		for _, h := range ss {
			if !chainHas(idom, h, u, -1) {
				continue
			}
			if loopOf[h] == 0 {
				body := make([]bool, len(succ))
				body[h] = true
				loops = append(loops, naturalLoop{header: h, body: body})
				loopOf[h] = len(loops)
			}
			body := loops[loopOf[h]-1].body
			stack := []int{u} // the walk stops at h, already in the body
			for len(stack) > 0 {
				x := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if body[x] {
					continue
				}
				body[x] = true
				stack = append(stack, preds[x]...)
			}
		}
	}
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
