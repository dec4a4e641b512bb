package cir

import "slices"

// Mem2Reg promotes alloca slots that are only loaded and stored into SSA
// registers with phi nodes — the analog of LLVM's mem2reg pass, which the
// paper applies before its loop filtering so that any remaining store must
// write through a real pointer (§4.1.1). It mutates f in place and marks it
// SSA.
func Mem2Reg(f *Func) {
	dom := BuildDomTree(f)

	// A slot is promotable when its register is used only as the pointer of
	// loads and stores (never escapes into arithmetic, calls or returns).
	promotable := map[int]bool{}
	slotTy := map[int]Ty{}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == OpAlloca {
				promotable[in.Res] = true
				slotTy[in.Res] = TyI32 // refined below from loads/stores
			}
		}
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for ai, a := range in.Args {
				if a.Kind != KReg || !containsKey(promotable, a.Reg) {
					continue
				}
				ok := (in.Op == OpLoad && ai == 0) || (in.Op == OpStore && ai == 1)
				if !ok {
					promotable[a.Reg] = false
				}
			}
		}
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			switch in.Op {
			case OpLoad:
				if a := in.Args[0]; a.Kind == KReg && promotable[a.Reg] {
					slotTy[a.Reg] = in.Ty
				}
			case OpStore:
				if a := in.Args[1]; a.Kind == KReg && promotable[a.Reg] {
					slotTy[a.Reg] = in.Args[0].Ty
				}
			}
		}
	}

	// Phi insertion at the iterated dominance frontier of each slot's defs.
	type phiKey struct {
		block *Block
		slot  int
	}
	phis := map[phiKey]*Instr{}
	// Slots in ascending order: phi order and register numbers must not
	// depend on map iteration.
	var slots []int
	for slot, ok := range promotable {
		if ok {
			slots = append(slots, slot)
		}
	}
	slices.Sort(slots)
	for _, slot := range slots {
		var work []*Block
		inWork := map[*Block]bool{}
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op == OpStore && in.Args[1].Kind == KReg && in.Args[1].Reg == slot && !inWork[b] {
					work = append(work, b)
					inWork[b] = true
				}
			}
		}
		placed := map[*Block]bool{}
		for len(work) > 0 {
			b := work[len(work)-1]
			work = work[:len(work)-1]
			for _, df := range dom.Frontier(b) {
				if placed[df] {
					continue
				}
				placed[df] = true
				phi := &Instr{Op: OpPhi, Res: f.NewReg(), Ty: slotTy[slot]}
				phis[phiKey{df, slot}] = phi
				df.Instrs = append([]*Instr{phi}, df.Instrs...)
				if !inWork[df] {
					work = append(work, df)
					inWork[df] = true
				}
			}
		}
	}

	// Rename along the dominator tree.
	stacks := map[int][]Operand{}
	rewrites := map[int]Operand{} // load result reg -> replacement operand
	top := func(slot int) Operand {
		st := stacks[slot]
		if len(st) == 0 {
			// Load before any store: an undef read; zero/null is the
			// deterministic stand-in.
			if slotTy[slot] == TyPtr {
				return NullOp()
			}
			return ConstOp(0)
		}
		return st[len(st)-1]
	}
	resolve := func(o Operand) Operand {
		for o.Kind == KReg {
			r, ok := rewrites[o.Reg]
			if !ok {
				return o
			}
			o = r
		}
		return o
	}

	var rename func(b *Block)
	rename = func(b *Block) {
		pushed := map[int]int{}
		var kept []*Instr
		for _, in := range b.Instrs {
			// Rewrite operands first (not for phis: their args belong to
			// predecessors and are filled below).
			if in.Op != OpPhi {
				for i := range in.Args {
					in.Args[i] = resolve(in.Args[i])
				}
			}
			switch {
			case in.Op == OpPhi:
				// If this phi was inserted for a slot, it defines it.
				for k, phi := range phis {
					if phi == in && k.block == b {
						stacks[k.slot] = append(stacks[k.slot], Reg(in.Res, in.Ty))
						pushed[k.slot]++
					}
				}
				kept = append(kept, in)
			case in.Op == OpAlloca && promotable[in.Res]:
				// dropped
			case in.Op == OpLoad && in.Args[0].Kind == KReg && promotable[in.Args[0].Reg]:
				rewrites[in.Res] = top(in.Args[0].Reg)
			case in.Op == OpStore && in.Args[1].Kind == KReg && promotable[in.Args[1].Reg]:
				slot := in.Args[1].Reg
				stacks[slot] = append(stacks[slot], in.Args[0])
				pushed[slot]++
			default:
				kept = append(kept, in)
			}
		}
		b.Instrs = kept

		// Fill phi operands of successors.
		for _, s := range b.Succs() {
			for k, phi := range phis {
				if k.block != s {
					continue
				}
				phi.Args = append(phi.Args, top(k.slot))
				phi.Blocks = append(phi.Blocks, b)
			}
		}

		for _, c := range dom.Children(b) {
			rename(c)
		}
		for slot, n := range pushed {
			stacks[slot] = stacks[slot][:len(stacks[slot])-n]
		}
	}
	rename(f.Entry())

	// A final pass resolves any operand that still names a rewritten load
	// (possible when a use appears in a block processed before its def's
	// rewrite — cannot happen in SSA form, but keep the IR tidy).
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for i := range in.Args {
				in.Args[i] = resolve(in.Args[i])
			}
		}
	}
	f.SSA = true
}

func containsKey(m map[int]bool, k int) bool {
	_, ok := m[k]
	return ok
}
