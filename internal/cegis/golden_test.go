package cegis

import (
	"testing"

	"stringloops/internal/engine"
	"stringloops/internal/loopdb"
)

// TestSearchWorkIsPinned holds the synthesis search to a recorded amount of
// work on a handful of corpus loops, found and refuted, at program size 5:
// the verdict and program, every Stats counter, the SAT conflicts and the
// interned nodes. A speed-up of the search machinery must leave all of them
// unchanged; a difference means it changed what the search does, not only
// how fast it does it. The DisableCexReuse rows pin the ablation path, where
// the counterexample set is reset at every program size.
func TestSearchWorkIsPinned(t *testing.T) {
	golden := []struct {
		name      string
		noReuse   bool
		found     bool
		enc       string
		stats     Stats
		conflicts int64
		nodes     int64
	}{
		{"bash/skip_ws_guarded", false, false, "", Stats{772, 73, 6, 2, 2}, 0, 48},
		{"bash/skip_spaces", false, true, "P \x00F", Stats{47, 21, 20, 3, 2}, 7, 209},
		{"bash/find_slash", false, true, "C/F", Stats{8, 5, 3, 3, 2}, 18, 152},
		{"bash/to_end", false, true, "EF", Stats{5, 2, 0, 2, 1}, 13, 41},
		{"bash/skip_ws3", false, true, "P\v\x00F", Stats{47, 22, 21, 4, 3}, 71, 942},
		{"git/last_slash", false, true, "R/F", Stats{9, 6, 5, 4, 3}, 26, 353},
		{"git/skip_seps2", false, false, "", Stats{772, 430, 271, 6, 6}, 8, 4198},
		{"git/mid1", false, false, "", Stats{772, 430, 271, 7, 7}, 5, 1595},
		{"grep/stride", false, false, "", Stats{772, 426, 267, 3, 3}, 0, 360},
		{"tar/break_nl_slash", false, true, "B\n/\x00F", Stats{226, 99, 111, 5, 4}, 33, 838},
		{"wget/find_amp_eq", false, true, "N&=\x00F", Stats{238, 99, 123, 7, 6}, 46, 1214},
		{"wget/find_amp_eq", true, true, "N&=\x00F", Stats{238, 108, 132, 17, 16}, 45, 1509},
		{"git/mid1", true, false, "", Stats{772, 438, 279, 15, 15}, 5, 1559},
		{"tar/break_nl_slash", true, true, "B\n/\x00F", Stats{226, 106, 118, 12, 11}, 38, 872},
	}
	loops := map[string]loopdb.Loop{}
	for _, l := range loopdb.Corpus() {
		loops[l.Name] = l
	}
	for _, g := range golden {
		l, ok := loops[g.name]
		if !ok {
			t.Fatalf("%s: not in the corpus", g.name)
		}
		f, err := l.Lower()
		if err != nil {
			t.Fatal(err)
		}
		b := engine.NewBudget(nil, engine.Limits{})
		out, err := Synthesize(f, Options{MaxProgSize: 5, Budget: b, DisableCexReuse: g.noReuse})
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		if out.Found != g.found || out.Program.Encode() != g.enc {
			t.Errorf("%s (noReuse=%v): found=%v %q, want found=%v %q",
				g.name, g.noReuse, out.Found, out.Program.Encode(), g.found, g.enc)
		}
		if out.Stats != g.stats {
			t.Errorf("%s (noReuse=%v): stats %+v, want %+v", g.name, g.noReuse, out.Stats, g.stats)
		}
		if got := b.Conflicts(); got != g.conflicts {
			t.Errorf("%s (noReuse=%v): %d conflicts, want %d", g.name, g.noReuse, got, g.conflicts)
		}
		if got := b.Count(engine.Nodes); got != g.nodes {
			t.Errorf("%s (noReuse=%v): %d interned nodes, want %d", g.name, g.noReuse, got, g.nodes)
		}
	}
}
