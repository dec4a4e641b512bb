package cir

import "testing"

// findBlock returns the block whose name has the given prefix.
func findBlock(t *testing.T, f *Func, prefix string) *Block {
	t.Helper()
	for _, b := range f.Blocks {
		if len(b.Name) >= len(prefix) && b.Name[:len(prefix)] == prefix {
			return b
		}
	}
	t.Fatalf("no block named %s* in %v", prefix, blockNames(f))
	return nil
}

func blockNames(f *Func) []string {
	var out []string
	for _, b := range f.Blocks {
		out = append(out, b.Name)
	}
	return out
}

// decoded decodes f and computes its joins, with a map from each decoded
// IR block to its block number.
func decoded(f *Func) (*Program, *Joins, map[*Block]int) {
	p := Decode(f)
	num := map[*Block]int{}
	for b := range p.NumBlocks() {
		num[p.Block(b)] = b
	}
	return p, p.Joins(), num
}

func TestPostDomDiamond(t *testing.T) {
	src := `
int f(int x) {
  int r;
  if (x) { r = 1; } else { r = 2; }
  return r;
}`
	p, j, _ := decoded(lowerOne(t, src, "f"))

	// The branch block's immediate post-dominator is the join after the if.
	branch := -1
	for b := range p.NumBlocks() {
		if len(p.Succs(b)) == 2 {
			branch = b
			break
		}
	}
	if branch < 0 {
		t.Fatal("no two-successor block in lowered diamond")
	}
	join := j.Ipdom(branch)
	if join < 0 {
		t.Fatalf("branch block %s has no ipdom", p.Block(branch).Name)
	}
	// The join must post-dominate both arms and the branch itself.
	for _, s := range p.Succs(branch) {
		if !j.PostDominates(join, s) {
			t.Errorf("join %s does not post-dominate arm %s", p.Block(join).Name, p.Block(s).Name)
		}
	}
	if !j.PostDominates(join, branch) {
		t.Errorf("join %s does not post-dominate branch %s", p.Block(join).Name, p.Block(branch).Name)
	}
	// And the join is a JoinBranch point.
	if j.Kind[join]&JoinBranch == 0 {
		t.Errorf("join %s not classified JoinBranch: %v", p.Block(join).Name, j.Kind[join])
	}
}

func TestPostDomFigure1JoinPoints(t *testing.T) {
	f := lowerOne(t, figure1, "loopFunction")
	_, j, num := decoded(f)

	loops := FindLoops(f)
	if len(loops) != 1 {
		t.Fatalf("figure1 should have exactly one loop, got %d", len(loops))
	}
	h := loops[0].Header
	if k := j.Kind[num[h]]; k&JoinLoopHeader == 0 {
		t.Errorf("loop header %s not classified JoinLoopHeader: %v", h.Name, k)
	}
	// Every exit edge target is a JoinLoopExit.
	exits := 0
	for lb := range loops[0].Blocks {
		for _, s := range lb.Succs() {
			if !loops[0].Blocks[s] {
				exits++
				if k := j.Kind[num[s]]; k&JoinLoopExit == 0 {
					t.Errorf("loop exit %s not classified JoinLoopExit: %v", s.Name, k)
				}
			}
		}
	}
	if exits == 0 {
		t.Fatal("figure1 loop has no exit edges")
	}
	// The short-circuit guard chain (p && *p && whitespace(*p)) reconverges:
	// at least one JoinBranch point must exist inside or after the loop.
	branches := 0
	for _, k := range j.Kind {
		if k&JoinBranch != 0 {
			branches++
		}
	}
	if branches == 0 {
		t.Error("no JoinBranch points found for the short-circuit guard chain")
	}
}

func TestPostDomInfiniteLoopBlocks(t *testing.T) {
	// A block that reaches no return has no post-dominator; the analysis
	// must terminate and leave it out rather than crash.
	src := `
int f(int x) {
  if (x) { for (;;) { x = x + 1; } }
  return x;
}`
	p, j, _ := decoded(lowerOne(t, src, "f"))
	ret, headers := 0, 0
	for b := range p.NumBlocks() {
		if p.Returns(b) {
			ret++
			if got := j.Ipdom(b); got >= 0 {
				t.Errorf("return block %s should have no ipdom (virtual exit), got %s", p.Block(b).Name, p.Block(got).Name)
			}
		}
		if j.Kind[b]&JoinLoopHeader != 0 {
			headers++
			if got := j.Ipdom(b); got >= 0 {
				t.Errorf("infinite loop header %s has ipdom %s", p.Block(b).Name, p.Block(got).Name)
			}
		}
	}
	if ret == 0 {
		t.Fatal("no return block")
	}
	if headers == 0 {
		t.Fatal("no loop header")
	}
}
