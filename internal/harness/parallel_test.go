package harness

import (
	"strings"
	"testing"
	"time"

	"stringloops/internal/cegis"
)

// TestSynthesizeCorpusParallelMatchesSerial checks the corpus driver is
// scheduling-independent: every loop runs its own pipeline, so the records
// (order included) must not depend on the worker count.
func TestSynthesizeCorpusParallelMatchesSerial(t *testing.T) {
	loops := smallCorpus(t, "bash/skip_spaces", "ssh/find_comma")
	opts := cegis.Options{Timeout: 5 * time.Second}
	serial := SynthesizeCorpus(loops, opts, nil, 1, nil)
	var progress strings.Builder
	parallel := SynthesizeCorpus(loops, opts, &progress, 4, nil)
	if len(serial) != len(loops) || len(parallel) != len(loops) {
		t.Fatalf("record lengths: %d/%d, want %d", len(serial), len(parallel), len(loops))
	}
	for i := range loops {
		s, p := serial[i], parallel[i]
		if s.Loop.Name != loops[i].Name || p.Loop.Name != loops[i].Name {
			t.Errorf("record %d out of corpus order: %s / %s", i, s.Loop.Name, p.Loop.Name)
		}
		if s.Found != p.Found || s.Program.Encode() != p.Program.Encode() {
			t.Errorf("record %d differs: serial %v %q, parallel %v %q",
				i, s.Found, s.Program.Encode(), p.Found, p.Program.Encode())
		}
	}
	// Progress lines may interleave in any order, but each loop gets one.
	for _, l := range loops {
		if !strings.Contains(progress.String(), l.Name) {
			t.Errorf("progress output missing %s", l.Name)
		}
	}
}
