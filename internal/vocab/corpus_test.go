package vocab_test

import (
	"testing"

	"stringloops/internal/loopdb"
	"stringloops/internal/vocab"
)

// TestCorpusSummariesCompileSpecialized holds every curated summary to a
// specialised closure, so Figure 5's native numbers never silently measure
// CompileGo's Run fallback: a new summary shape must get its own closure.
func TestCorpusSummariesCompileSpecialized(t *testing.T) {
	n := 0
	for _, l := range loopdb.Corpus() {
		if l.WantProgram == "" {
			continue
		}
		p, err := vocab.Decode(l.WantProgram)
		if err != nil {
			t.Fatalf("%s: %v", l.Name, err)
		}
		if !vocab.Specialized(p) {
			t.Errorf("%s: summary %v has no specialised closure", l.Name, p)
		}
		n++
	}
	if n != 88 {
		t.Errorf("checked %d curated summaries, want 88", n)
	}
}
