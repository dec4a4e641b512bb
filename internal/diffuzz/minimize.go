package diffuzz

import "time"

// maxReproRuns bounds the pipeline re-runs one minimization may spend.
const maxReproRuns = 250

// Minimize delta-debugs a finding: it greedily applies AST reductions to the
// generating program, then byte reductions to the input, re-running the
// pipeline after each step and keeping any reduction that still reproduces
// the finding (same stage and kind). The returned finding carries the
// minimized source and input and the detail from the minimized
// reproduction.
func Minimize(f *Finding, p *Prog, o *Options) *Finding {
	// Stages before input checking don't need synthesis re-runs; skipping
	// CEGIS makes each repro orders of magnitude cheaper.
	ro := *o
	if f.Stage != "summary" && f.Stage != "synthesize" && f.Stage != "memoryless" {
		ro.SynthTimeout = -1 * time.Millisecond
	}

	runs := 0
	repro := func(cand *Prog, input []byte, nullIn bool) *Finding {
		if runs >= maxReproRuns {
			return nil
		}
		runs++
		t, pf := PrepareTarget(f.Seed, cand, &ro)
		if pf != nil {
			if pf.Stage == f.Stage && pf.Kind == f.Kind {
				return pf
			}
			return nil
		}
		if f.Stage == "frontend" || f.Stage == "synthesize" || f.Stage == "memoryless" {
			return nil // preparation succeeded, finding gone
		}
		var in []byte
		if !nullIn {
			in = input
		}
		for _, g := range checkInput(t, in, ro.executors) {
			if g.Stage == f.Stage && g.Kind == f.Kind {
				return g
			}
		}
		return nil
	}

	best := p.Clone()
	bestIn := append([]byte(nil), f.Input...)
	nullIn := f.NullInput
	lastRepro := f

	// Phase 1: shrink the program.
	for {
		improved := false
		for _, cand := range progReductions(best) {
			if g := repro(cand, bestIn, nullIn); g != nil {
				best, lastRepro = cand, g
				improved = true
				break
			}
		}
		if !improved {
			break
		}
	}

	// Phase 2: shrink the input (content bytes; the terminator stays).
	if !nullIn && len(bestIn) > 1 {
		for {
			improved := false
			for _, cin := range inputReductions(bestIn) {
				if g := repro(best, cin, false); g != nil {
					bestIn, lastRepro = cin, g
					improved = true
					break
				}
			}
			if !improved {
				break
			}
		}
	}

	out := *lastRepro
	out.Seed = f.Seed
	out.Source = best.Source()
	out.Input = bestIn
	out.NullInput = nullIn
	out.Minimized = true
	return &out
}

// progReductions yields candidate simplifications of p, roughly most
// aggressive first. Every candidate still renders to a valid program.
func progReductions(p *Prog) []*Prog {
	var out []*Prog
	mut := func(fn func(*Prog)) {
		q := p.Clone()
		fn(q)
		out = append(out, q)
	}
	if len(p.Cond.Atoms) > 1 {
		for i := range p.Cond.Atoms {
			i := i
			mut(func(q *Prog) {
				q.Cond.Atoms = append(q.Cond.Atoms[:i:i], q.Cond.Atoms[i+1:]...)
				if len(q.Cond.Conns) > 0 {
					c := i
					if c == len(q.Cond.Conns) {
						c--
					}
					q.Cond.Conns = append(q.Cond.Conns[:c:c], q.Cond.Conns[c+1:]...)
				}
			})
		}
	}
	if p.Acc {
		mut(func(q *Prog) {
			q.Acc = false
			if q.Ret == RetAcc {
				q.Ret = RetCursor
			}
		})
	}
	if p.PreSkip != nil {
		mut(func(q *Prog) { q.PreSkip = nil })
	}
	if p.NullGuard {
		mut(func(q *Prog) { q.NullGuard = false })
	}
	if p.Form != FormWhile {
		mut(func(q *Prog) { q.Form = FormWhile })
	}
	if p.Ret == RetCondNull || p.Ret == RetAcc {
		mut(func(q *Prog) {
			q.Ret = RetCursor
			if p.Ret == RetAcc {
				q.Acc = false
			}
		})
	}
	if p.Idx {
		mut(func(q *Prog) { q.Idx = false })
	}
	if p.Octal {
		mut(func(q *Prog) { q.Octal = false })
	}
	return out
}

// inputReductions yields candidate shrinks of a NUL-terminated buffer:
// chop to empty, halve, drop one byte, simplify one byte to 'a'.
func inputReductions(buf []byte) [][]byte {
	content := buf[:len(buf)-1]
	var out [][]byte
	emit := func(c []byte) { out = append(out, append(append([]byte(nil), c...), 0)) }
	if len(content) == 0 {
		return nil
	}
	emit(nil)
	if len(content) > 1 {
		emit(content[:len(content)/2])
		emit(content[len(content)/2:])
	}
	for i := range content {
		c := append(append([]byte(nil), content[:i]...), content[i+1:]...)
		emit(c)
	}
	for i, b := range content {
		if b != 'a' {
			c := append([]byte(nil), content...)
			c[i] = 'a'
			emit(c)
		}
	}
	return out
}
