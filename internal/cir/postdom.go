package cir

// Post-dominator analysis for join-point detection: the state-merging
// symbolic executor (internal/symex) parks diverged states where their
// control flow reconverges, and "where branches reconverge" is exactly the
// immediate post-dominator of the branch block. Post-dominators are
// dominators of the reversed CFG; functions may have several OpRet blocks
// (and blocks that reach no return at all, e.g. bodies of infinite loops),
// so the reversal runs against a virtual exit node with an edge from every
// return block. The iteration is dom.go's dominators.

// PostDomTree holds immediate post-dominators of a function. Blocks that
// cannot reach any return have no post-dominator (Ipdom reports nil).
type PostDomTree struct {
	fn    *Func
	idx   map[*Block]int // block -> position in fn.Blocks
	ipdom []int          // node -> immediate post-dominator node, -1 if none
}

// exit returns the index of the virtual exit node.
func (t *PostDomTree) exit() int { return len(t.fn.Blocks) }

// BuildPostDomTree computes the post-dominator tree of f. It reads only
// successor lists, so predecessor lists need not be current.
func BuildPostDomTree(f *Func) *PostDomTree {
	n := len(f.Blocks)
	t := &PostDomTree{fn: f, idx: blockIndex(f)}
	exit := n

	// Reversed graph: CFG edge u→v becomes v→u, plus exit→r for each
	// return block r.
	rsucc := make([][]int, n+1)
	for i, b := range f.Blocks {
		for _, s := range b.Succs() {
			j := t.idx[s]
			rsucc[j] = append(rsucc[j], i)
		}
		if term := b.Term(); term != nil && term.Op == OpRet {
			rsucc[exit] = append(rsucc[exit], i)
		}
	}
	_, _, t.ipdom = dominators(rsucc, exit)
	return t
}

// Ipdom returns the immediate post-dominator of b, or nil when b returns
// directly (its post-dominator is the virtual exit) or reaches no return.
func (t *PostDomTree) Ipdom(b *Block) *Block {
	i, ok := t.idx[b]
	if !ok {
		return nil
	}
	p := t.ipdom[i]
	if p < 0 || p >= t.exit() {
		return nil
	}
	return t.fn.Blocks[p]
}

// PostDominates reports whether a post-dominates b (reflexively). Blocks
// that reach no return are post-dominated by nothing but themselves.
func (t *PostDomTree) PostDominates(a, b *Block) bool {
	ai, aok := t.idx[a]
	bi, bok := t.idx[b]
	if !aok || !bok {
		return false
	}
	return chainHas(t.ipdom, ai, bi, t.exit())
}

// JoinKind classifies why a block is a merge point; a block may be one for
// several reasons (bit set).
type JoinKind uint8

const (
	// JoinBranch marks the immediate post-dominator of a multi-successor
	// block: the two arms of the branch reconverge here.
	JoinBranch JoinKind = 1 << iota
	// JoinLoopHeader marks a natural-loop header: the fall-in state and the
	// back-edge states of successive iterations meet here.
	JoinLoopHeader
	// JoinLoopExit marks a block outside a loop targeted by an edge from
	// inside it: the "left after iteration k" states accumulate here.
	JoinLoopExit
)

// JoinPoints returns the merge points of f for state-merging symbolic
// execution: branch reconvergence points, loop headers, and loop exits.
// Calls RecomputePreds (via FindLoops), so f's predecessor lists are current
// afterwards.
func JoinPoints(f *Func) map[*Block]JoinKind {
	pd := BuildPostDomTree(f)
	out := map[*Block]JoinKind{}
	for _, b := range f.Blocks {
		if len(b.Succs()) >= 2 {
			if j := pd.Ipdom(b); j != nil {
				out[j] |= JoinBranch
			}
		}
	}
	for _, l := range FindLoops(f) {
		out[l.Header] |= JoinLoopHeader
		for lb := range l.Blocks {
			for _, s := range lb.Succs() {
				if !l.Blocks[s] {
					out[s] |= JoinLoopExit
				}
			}
		}
	}
	return out
}
