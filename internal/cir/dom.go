package cir

// dominators computes the immediate dominators of the graph whose node u has
// successors succ[u], rooted at root, with the Cooper–Harvey–Kennedy
// iterative algorithm. It returns the nodes reachable from root in reverse
// postorder, each node's predecessors (in the order the successor lists
// name them, unreachable predecessors included), and each node's immediate
// dominator: root's is itself, and an unreachable node's is -1. The IR's
// dominator tree, natural loops, and a decoded program's post-dominators
// (the reversed graph rooted at a virtual exit, joins.go) are all this
// routine.
func dominators(succ [][]int, root int) (rpo []int, preds [][]int, idom []int) {
	n := len(succ)
	preds = make([][]int, n)
	for u, ss := range succ {
		for _, v := range ss {
			preds[v] = append(preds[v], u)
		}
	}

	seen := make([]bool, n)
	var post []int
	var walk func(u int)
	walk = func(u int) {
		seen[u] = true
		for _, v := range succ[u] {
			if !seen[v] {
				walk(v)
			}
		}
		post = append(post, u)
	}
	walk(root)
	order := make([]int, n) // node -> position in rpo, -1 if unreachable
	for i := range order {
		order[i] = -1
	}
	for i := len(post) - 1; i >= 0; i-- {
		order[post[i]] = len(rpo)
		rpo = append(rpo, post[i])
	}

	idom = make([]int, n)
	for i := range idom {
		idom[i] = -1
	}
	idom[root] = root
	intersect := func(a, b int) int {
		for a != b {
			for order[a] > order[b] {
				a = idom[a]
			}
			for order[b] > order[a] {
				b = idom[b]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for _, u := range rpo[1:] {
			newIdom := -1
			for _, p := range preds[u] {
				if idom[p] == -1 {
					continue
				}
				if newIdom == -1 {
					newIdom = p
				} else {
					newIdom = intersect(p, newIdom)
				}
			}
			if newIdom != -1 && idom[u] != newIdom {
				idom[u] = newIdom
				changed = true
			}
		}
	}
	return rpo, preds, idom
}

// blockGraph numbers f's blocks by their position in f.Blocks and lists
// each block's successors by number. A successor that is nil or not one of
// f's blocks (malformed IR) is left out. The entry is node 0.
func blockGraph(f *Func) (idx map[*Block]int, succ [][]int) {
	idx = make(map[*Block]int, len(f.Blocks))
	for i, b := range f.Blocks {
		idx[b] = i
	}
	succ = make([][]int, len(f.Blocks))
	for i, b := range f.Blocks {
		for _, s := range b.Succs() {
			if j, ok := idx[s]; ok {
				succ[i] = append(succ[i], j)
			}
		}
	}
	return idx, succ
}

// DomTree holds immediate dominators and dominance frontiers for a function.
type DomTree struct {
	idx      map[*Block]int // block -> position in f.Blocks
	idom     []int          // block -> immediate dominator, -1 if unreachable
	children [][]*Block
	frontier [][]*Block
}

// BuildDomTree computes the dominator tree of f.
func BuildDomTree(f *Func) *DomTree {
	n := len(f.Blocks)
	idx, succ := blockGraph(f)
	d := &DomTree{idx: idx, children: make([][]*Block, n), frontier: make([][]*Block, n)}
	rpo, preds, idom := dominators(succ, 0)
	d.idom = idom
	for _, u := range rpo[1:] {
		d.children[idom[u]] = append(d.children[idom[u]], f.Blocks[u])
	}
	for _, u := range rpo {
		if len(preds[u]) < 2 {
			continue
		}
		for _, p := range preds[u] {
			for runner := p; runner != -1 && runner != idom[u]; runner = idom[runner] {
				d.frontier[runner] = appendUnique(d.frontier[runner], f.Blocks[u])
			}
		}
	}
	return d
}

func appendUnique(s []*Block, b *Block) []*Block {
	for _, x := range s {
		if x == b {
			return s
		}
	}
	return append(s, b)
}

// Children returns the dominator-tree children of b.
func (d *DomTree) Children(b *Block) []*Block {
	if i, ok := d.idx[b]; ok {
		return d.children[i]
	}
	return nil
}

// Frontier returns the dominance frontier of b.
func (d *DomTree) Frontier(b *Block) []*Block {
	if i, ok := d.idx[b]; ok {
		return d.frontier[i]
	}
	return nil
}

// chainHas walks the immediate-(post-)dominator chain idom up from b and
// reports whether it reaches a before the root (a node that is its own
// immediate dominator), an unreachable node, or stop.
func chainHas(idom []int, a, b, stop int) bool {
	for {
		if a == b {
			return true
		}
		next := idom[b]
		if next == -1 || next == b || next == stop {
			return false
		}
		b = next
	}
}
