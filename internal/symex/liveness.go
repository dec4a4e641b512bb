package symex

// This file prunes parked states to what is live at their park point —
// block entry with phis already resolved, which is exactly where mergeSched
// parks states. The registers live there come from the decoded program
// (cir.Joins.Live); dead registers are zeroed and cells no live pointer can
// reach are dropped. Pruning is what lets loop-exit buckets fold: without
// it, per-iteration allocas (the short-circuit temporaries the lowerer
// declares inside loop conditions) mint a fresh cell id every trip around
// the loop, so states exiting after different iteration counts disagree on
// their cell ids and mergeTwo rejects every pair — the bucket then stays
// one-state-per-iteration. The temporaries are dead at the join, so pruning
// restores the states' structural compatibility and the bucket collapses to
// O(1) groups.

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
