package cir

// RefExec is the reference tree-walker (interp_ref_test.go), for the
// cross-checks in package cir_test.
var RefExec = refExec

// Preds lists b's predecessors in f, once per edge, in block order.
func Preds(f *Func, b *Block) []*Block {
	var out []*Block
	for _, p := range f.Blocks {
		for _, s := range p.Succs() {
			if s == b {
				out = append(out, p)
			}
		}
	}
	return out
}

// Block returns the IR block decoded as block number b.
func (p *Program) Block(b int) *Block { return p.blocks[b] }

// NumBlocks is the number of decoded blocks.
func (p *Program) NumBlocks() int { return len(p.pcs) }

// Succs lists the block numbers block b's terminator branches to.
func (p *Program) Succs(b int) []int {
	var out []int
	for _, e := range p.edgesOut(b) {
		out = append(out, int(p.Edges[e].Block))
	}
	return out
}

// Returns reports whether block b ends in a return.
func (p *Program) Returns(b int) bool {
	op := p.Code[p.end(b)-1].Op
	return op == DRet || op == DRetVoid
}

// PostDominates reports whether block a post-dominates block b
// (reflexively). A block that reaches no return is post-dominated by
// nothing but itself.
func (j *Joins) PostDominates(a, b int) bool { return chainHas(j.ipdom, a, b, len(j.Kind)) }

// Ipdom returns block b's immediate post-dominator, or -1 when b returns
// directly (its post-dominator is the virtual exit) or reaches no return.
func (j *Joins) Ipdom(b int) int {
	if d := j.ipdom[b]; d < len(j.Kind) {
		return d
	}
	return -1
}

// Dominates reports whether a dominates b (reflexively).
func (d *DomTree) Dominates(a, b *Block) bool {
	if a == b {
		return true
	}
	ai, aok := d.idx[a]
	bi, bok := d.idx[b]
	if !aok || !bok {
		return false
	}
	return chainHas(d.idom, ai, bi, -1)
}
