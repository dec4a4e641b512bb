package cir

// This file computes what the state-merging symbolic executor (package
// symex) needs to know of a decoded program's control flow: where diverged
// states park to be folded (join points), which registers are live where
// they park, and in which order parked buckets are released. It is all
// indexed by block number (Edge.Block) and computed only when asked for,
// so a run that does not merge pays nothing for it.
//
// Branches reconverge at the immediate post-dominator of the branch block.
// Post-dominators are dominators of the reversed graph; a program may have
// several return blocks (and blocks that reach no return at all, e.g.
// bodies of infinite loops), so the reversal runs against a virtual exit
// node with an edge to every return block. Dominators of both graphs come
// from dom.go's dominators and the loops from loops.go's naturalLoops, the
// routines BuildDomTree and FindLoops run on the IR.

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

// Joins is the control flow of a program as the merging scheduler reads
// it, one entry per block number.
type Joins struct {
	// Kind is each block's join kinds, 0 where it is not a join point.
	Kind []JoinKind
	// Live is, per block, the registers live at its park point: block entry
	// with the phi copies of the edge taken already done. A phi copy reads
	// its source on the edge, so a register only a phi reads is live at the
	// end of the edge's source block, not at the target's park point.
	Live [][]bool
	// RPO is each block's position in reverse postorder from the entry.
	RPO []int32

	reach []bool // reach[a*n+b]: b is reachable from a over at least one edge
	ipdom []int  // immediate post-dominators: n is the virtual exit, -1 none
}

// Reaches reports whether block b is reachable from block a over at least
// one edge.
func (j *Joins) Reaches(a, b int32) bool { return j.reach[int(a)*len(j.Kind)+int(b)] }

// end is the position after block b's terminator.
func (p *Program) end(b int) int32 {
	if b+1 < len(p.pcs) {
		return p.pcs[b+1]
	}
	return int32(len(p.Code))
}

// edgesOut lists the edges block b's terminator takes, in its target order.
func (p *Program) edgesOut(b int) []int32 {
	switch in := &p.Code[p.end(b)-1]; in.Op {
	case DBr:
		return []int32{in.B}
	case DCondBr:
		return []int32{in.B, in.C}
	}
	return nil
}

// Joins computes p's join points (branch post-dominators, loop headers,
// loop exits), the registers live at each block's park point, reverse
// postorder and strict reachability. Each call computes them anew.
func (p *Program) Joins() *Joins {
	n := len(p.pcs)
	out := make([][]int32, n)
	succ := make([][]int, n)
	rsucc := make([][]int, n+1) // the reversed graph, node n the virtual exit
	for b := range n {
		out[b] = p.edgesOut(b)
		for _, e := range out[b] {
			t := int(p.Edges[e].Block)
			succ[b] = append(succ[b], t)
			rsucc[t] = append(rsucc[t], b)
		}
		if op := p.Code[p.end(b)-1].Op; op == DRet || op == DRetVoid {
			rsucc[n] = append(rsucc[n], b)
		}
	}
	j := &Joins{Kind: make([]JoinKind, n), RPO: make([]int32, n), reach: make([]bool, n*n)}
	if n == 0 {
		return j
	}

	_, _, j.ipdom = dominators(rsucc, n)
	for b, ss := range succ {
		if d := j.ipdom[b]; len(ss) >= 2 && d >= 0 && d < n {
			j.Kind[d] |= JoinBranch
		}
	}
	rpo, preds, idom := dominators(succ, 0)
	for _, l := range naturalLoops(succ, preds, idom) {
		j.Kind[l.header] |= JoinLoopHeader
		for b, in := range l.body {
			for _, s := range succ[b] {
				if in && !l.body[s] {
					j.Kind[s] |= JoinLoopExit
				}
			}
		}
	}

	for i, b := range rpo {
		j.RPO[b] = int32(i)
	}
	for a := range n {
		r := j.reach[a*n : (a+1)*n]
		stack := append([]int(nil), succ[a]...)
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if !r[x] {
				r[x] = true
				stack = append(stack, succ[x]...)
			}
		}
	}
	j.Live = p.parkLiveness(out, rpo)
	return j
}

// parkLiveness runs a backward liveness dataflow over the blocks' register
// slots and returns, per block, the registers live at its park point:
//
//	liveOut(b) = ∪ over b's edges e into s: copies(e)'s sources ∪ liveIn(s)
//	liveIn(s)  = use(s) ∪ (liveOut(s) \ def(s) \ phi results of s)
//	park(s)    = use(s) ∪ (liveOut(s) \ def(s))
//
// use(s) is the registers s's code reads before writing them and def(s)
// those it writes; a phi result counts as assigned at the park point, live
// only if something downstream reads it.
func (p *Program) parkLiveness(out [][]int32, rpo []int) [][]bool {
	n, nr := len(p.pcs), p.nregs
	rows := func() [][]bool {
		flat := make([]bool, n*nr)
		rs := make([][]bool, n)
		for b := range rs {
			rs[b] = flat[b*nr : (b+1)*nr : (b+1)*nr]
		}
		return rs
	}
	use, def, phiDef, liveOut := rows(), rows(), rows(), rows()
	for b := range n {
		read := func(s int32) {
			if int(s) < nr && !def[b][s] {
				use[b][s] = true
			}
		}
		for pc := p.pcs[b]; pc < p.end(b); pc++ {
			in := &p.Code[pc]
			switch op := in.Op; {
			case op == DCall:
				for _, s := range p.CallArgs[in.A : in.A+in.B] {
					read(s)
				}
			case op >= DStore1 && op <= DGep: // stores, binops, DCmp, DGep
				read(in.A)
				read(in.B)
			case op >= DLoad1s && op <= DLoad4, op == DCondBr, op == DRet:
				read(in.A)
			}
			// DAlloca through DLoad4 and DAdd through DCall set Res.
			if in.Op >= DAlloca && in.Op <= DLoad4 || in.Op >= DAdd && in.Op <= DCall {
				def[b][in.Res] = true
			}
		}
	}
	for _, e := range p.Edges {
		for _, c := range p.Copies[e.From:e.To] {
			if c.Dst >= 0 && int(c.Dst) < nr {
				phiDef[e.Block][c.Dst] = true
			}
		}
	}

	for changed := true; changed; {
		changed = false
		for i := len(rpo) - 1; i >= 0; i-- {
			b := rpo[i]
			lo := liveOut[b]
			for _, ei := range out[b] {
				e := &p.Edges[ei]
				for _, c := range p.Copies[e.From:e.To] {
					if int(c.Src) < nr && !lo[c.Src] {
						lo[c.Src], changed = true, true
					}
				}
				s := e.Block
				for r := range nr {
					if !lo[r] && (use[s][r] || liveOut[s][r] && !def[s][r] && !phiDef[s][r]) { // r ∈ liveIn(s)
						lo[r], changed = true, true
					}
				}
			}
		}
	}
	park := use // use(b) is in park(b); add the rest in place
	for b := range n {
		for r := range nr {
			park[b][r] = park[b][r] || liveOut[b][r] && !def[b][r]
		}
	}
	return park
}
