package symex

import "stringloops/internal/cir"

// This file computes, for every block of a function, the registers live at
// the block's park point — block entry with phis already resolved, which is
// exactly where mergeSched parks states. The merging scheduler uses it to
// prune parked states down to their live locations: dead registers are
// zeroed and cells no live pointer can reach are dropped. Pruning is what
// lets loop-exit buckets fold: without it, per-iteration allocas (the
// short-circuit temporaries the lowerer declares inside loop conditions)
// mint a fresh cell id every trip around the loop, so states exiting after
// different iteration counts disagree on their cell ids and mergeTwo
// rejects every pair — the bucket then stays one-state-per-iteration. The
// temporaries are dead at the join, so pruning restores the states'
// structural compatibility and the bucket collapses to O(1) groups.

// parkLiveSets runs a backward liveness dataflow over f and returns, per
// block, a register bitmap for the park point. Phi uses are charged to the
// incoming edge (they are resolved while the state is still on that edge),
// and phi results count as already-assigned at the park point — live only
// if something downstream reads them. Operands and results out of range,
// which cir decodes to traps, are skipped.
func parkLiveSets(f *cir.Func) map[*cir.Block][]bool {
	n := f.NumRegs
	reg := func(r int) bool { return r >= 0 && r < n }
	type blockInfo struct {
		useNonPhi []bool // read by a non-phi instr before any non-phi def
		defNonPhi []bool
		defAll    []bool // non-phi defs plus phi results
		liveIn    []bool
		liveOut   []bool
	}
	info := make(map[*cir.Block]*blockInfo, len(f.Blocks))
	// phiUse[s][p] lists the registers s's phis read on the edge p→s.
	phiUse := make(map[*cir.Block]map[*cir.Block][]int, len(f.Blocks))

	for _, b := range f.Blocks {
		bi := &blockInfo{
			useNonPhi: make([]bool, n), defNonPhi: make([]bool, n),
			defAll: make([]bool, n), liveIn: make([]bool, n), liveOut: make([]bool, n),
		}
		info[b] = bi
		for _, in := range b.Instrs {
			if in.Op == cir.OpPhi {
				if reg(in.Res) {
					bi.defAll[in.Res] = true
				}
				for i, pb := range in.Blocks {
					if i >= len(in.Args) || in.Args[i].Kind != cir.KReg || !reg(in.Args[i].Reg) {
						continue
					}
					m := phiUse[b]
					if m == nil {
						m = map[*cir.Block][]int{}
						phiUse[b] = m
					}
					m[pb] = append(m[pb], in.Args[i].Reg)
				}
				continue
			}
			for _, a := range in.Args {
				if a.Kind == cir.KReg && reg(a.Reg) && !bi.defNonPhi[a.Reg] {
					bi.useNonPhi[a.Reg] = true
				}
			}
			if reg(in.Res) {
				bi.defNonPhi[in.Res] = true
				bi.defAll[in.Res] = true
			}
		}
	}

	// Fixpoint:
	//   liveOut(b) = ∪_{s ∈ succ(b)} ( liveIn(s) ∪ phiUse(s, b) )
	//   liveIn(b)  = useNonPhi(b) ∪ (liveOut(b) \ defAll(b))
	for changed := true; changed; {
		changed = false
		for i := len(f.Blocks) - 1; i >= 0; i-- {
			b := f.Blocks[i]
			bi := info[b]
			for _, s := range b.Succs() {
				si := info[s]
				for r := 0; r < n; r++ {
					if si.liveIn[r] && !bi.liveOut[r] {
						bi.liveOut[r] = true
						changed = true
					}
				}
				for _, r := range phiUse[s][b] {
					if !bi.liveOut[r] {
						bi.liveOut[r] = true
						changed = true
					}
				}
			}
			for r := 0; r < n; r++ {
				lv := bi.useNonPhi[r] || (bi.liveOut[r] && !bi.defAll[r])
				if lv && !bi.liveIn[r] {
					bi.liveIn[r] = true
					changed = true
				}
			}
		}
	}

	out := make(map[*cir.Block][]bool, len(f.Blocks))
	for _, b := range f.Blocks {
		bi := info[b]
		park := make([]bool, n)
		// Park point is past the phis: phi results are assigned, so only
		// non-phi defs mask liveOut.
		for r := 0; r < n; r++ {
			park[r] = bi.useNonPhi[r] || (bi.liveOut[r] && !bi.defNonPhi[r])
		}
		out[b] = park
	}
	return out
}

// pruneDead zeroes s's dead registers and drops cells unreachable from any
// live pointer (transitively: a live cell's value may point to another
// cell). Called at park time, so every state in a bucket is pruned by the
// same block's live set before compatibility is judged.
func pruneDead(s *state, live []bool) {
	for i := range s.regs {
		if i >= len(live) || !live[i] {
			s.regs[i] = Value{}
		}
	}
	if len(s.cells) == 0 {
		return
	}
	// A state holds a cell per alloca, a handful at most, so reachability
	// is a few linear passes until nothing new is marked.
	reach := make([]bool, len(s.cells))
	mark := func(v Value) bool {
		if !v.IsPtr || v.IsNull() {
			return false
		}
		for i, c := range s.cells {
			if c.id == v.Obj && !reach[i] {
				reach[i] = true
				return true
			}
		}
		return false
	}
	for _, v := range s.regs {
		mark(v)
	}
	for changed := true; changed; {
		changed = false
		for i, c := range s.cells {
			if reach[i] && mark(c.val) {
				changed = true
			}
		}
	}
	kept := s.cells[:0]
	for i, c := range s.cells {
		if reach[i] {
			kept = append(kept, c)
		}
	}
	clear(s.cells[len(kept):])
	s.cells = kept
}
