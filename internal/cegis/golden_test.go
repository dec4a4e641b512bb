package cegis

import (
	"testing"

	"stringloops/internal/engine"
	"stringloops/internal/loopdb"
)

// TestSearchWorkIsPinned holds the synthesis search to a recorded amount of
// work on a handful of corpus loops, found and refuted, at program size 5:
// the verdict and program, every Stats counter, the SAT conflicts and the
// interned nodes. A speed-up of the search machinery must leave the verdict,
// the program, the Stats and the conflicts unchanged; a difference means it
// changed what the search does, not only how fast it does it. The nodes count
// the guards and constraints the search builds, so a search that skips dead
// work builds fewer and may lower them, but never raise them.
func TestSearchWorkIsPinned(t *testing.T) {
	golden := []struct {
		name      string
		found     bool
		enc       string
		stats     Stats
		conflicts int64
		nodes     int64
	}{
		{"bash/skip_ws_guarded", false, "", Stats{772, 73, 6, 2, 2}, 0, 48},
		{"bash/skip_spaces", true, "P \x00F", Stats{47, 21, 20, 3, 2}, 7, 184},
		{"bash/find_slash", true, "C/F", Stats{8, 5, 3, 3, 2}, 18, 152},
		{"bash/to_end", true, "EF", Stats{5, 2, 0, 2, 1}, 13, 41},
		{"bash/skip_ws3", true, "P\v\x00F", Stats{47, 22, 21, 4, 3}, 71, 917},
		{"git/last_slash", true, "R/F", Stats{9, 6, 5, 4, 3}, 26, 353},
		{"git/skip_seps2", false, "", Stats{772, 430, 271, 6, 6}, 8, 3744},
		{"git/mid1", false, "", Stats{772, 430, 271, 7, 7}, 5, 1126},
		{"grep/stride", false, "", Stats{772, 426, 267, 3, 3}, 0, 296},
		{"tar/break_nl_slash", true, "B\n/\x00F", Stats{226, 99, 111, 5, 4}, 33, 704},
		{"wget/find_amp_eq", true, "N&=\x00F", Stats{238, 99, 123, 7, 6}, 46, 1102},
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
		out, err := Synthesize(f, Options{MaxProgSize: 5, Budget: b})
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		if out.Found != g.found || out.Program.Encode() != g.enc {
			t.Errorf("%s: found=%v %q, want found=%v %q",
				g.name, out.Found, out.Program.Encode(), g.found, g.enc)
		}
		if out.Stats != g.stats {
			t.Errorf("%s: stats %+v, want %+v", g.name, out.Stats, g.stats)
		}
		if got := b.Conflicts(); got != g.conflicts {
			t.Errorf("%s: %d conflicts, want %d", g.name, got, g.conflicts)
		}
		if got := b.Count(engine.Nodes); got != g.nodes {
			t.Errorf("%s: %d interned nodes, want %d", g.name, got, g.nodes)
		}
	}
}
