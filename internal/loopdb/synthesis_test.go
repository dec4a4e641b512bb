package loopdb

import (
	"testing"
	"time"

	"stringloops/internal/cegis"
	"stringloops/internal/engine"
	"stringloops/internal/vocab"
)

// sweepSize is the Table 3 sweep's program-size bound: every curated summary
// but three fits in it, and the search over all skeletons of this size
// refutes every other loop in a few seconds.
const sweepSize = 6

// TestCorpusSynthesisGroundTruth is the Table 3 regression: every corpus
// loop's synthesis outcome must match its ground-truth label (77 synthesise,
// 38 do not), and every found program must match the expected encoding when
// one is recorded. The work is fixed, not timed: every loop runs to a
// definite verdict at program size 6 with no timeout, so each of the 38
// misses is refuted outright — no program of size ≤ 6 is equivalent. The
// ExpectSynth loops whose summaries need more bytes than that (the 7-byte
// NULL-guarded spans) run again at size 9. Skipped under -short.
func TestCorpusSynthesisGroundTruth(t *testing.T) {
	if testing.Short() {
		t.Skip("full corpus synthesis sweep")
	}
	synthesize := func(l Loop, maxSize int) cegis.Outcome {
		t.Helper()
		f, err := l.Lower()
		if err != nil {
			t.Fatalf("%s: %v", l.Name, err)
		}
		out, err := cegis.Synthesize(f, cegis.Options{
			MaxProgSize: maxSize,
			Budget:      engine.NewBudget(nil, engine.Limits{}),
		})
		if err != nil {
			t.Fatalf("%s: size %d: %v", l.Name, maxSize, err)
		}
		return out
	}
	found, refuted := 0, 0
	for _, l := range Corpus() {
		fits := false
		if l.WantProgram != "" {
			want, err := vocab.Decode(l.WantProgram)
			if err != nil {
				t.Fatalf("%s: %v", l.Name, err)
			}
			fits = want.EncodedSize() <= sweepSize
		}
		out := synthesize(l, sweepSize)
		if l.ExpectSynth && !fits && !out.Found {
			out = synthesize(l, 9)
		}
		if out.Found != l.ExpectSynth {
			got := "refuted"
			if out.Found {
				got = "found " + out.Program.String()
			}
			t.Errorf("%s: synthesis = %s, ground truth ExpectSynth=%v", l.Name, got, l.ExpectSynth)
			continue
		}
		if !out.Found {
			refuted++
			continue
		}
		found++
		if l.WantProgram != "" && out.Program.Encode() != l.WantProgram {
			// The synthesiser may find a different but equivalent smallest
			// program; accept it only if it is not larger.
			want, _ := vocab.Decode(l.WantProgram)
			if out.Program.EncodedSize() > want.EncodedSize() {
				t.Errorf("%s: found %q (size %d), expected %q (size %d)",
					l.Name, out.Program.Encode(), out.Program.EncodedSize(),
					l.WantProgram, want.EncodedSize())
			}
		}
	}
	if found != 77 || refuted != 38 {
		t.Errorf("synthesised %d loops and refuted %d, want 77 and 38 (Table 3)", found, refuted)
	}
}

// TestFourCharOutliersSynthesiseWithLargerBudget mirrors the paper's libosip
// outliers: four-character strspn sets miss the default budget but
// synthesise once the set bound is raised, at a large multiple of the median
// synthesis time (the paper: >1 h versus a 5-minute median).
func TestFourCharOutliersSynthesiseWithLargerBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second synthesis")
	}
	for _, name := range []string{"libosip/skip_crlf_ws", "git/skip_seps2"} {
		for _, l := range Corpus() {
			if l.Name != name {
				continue
			}
			f, err := l.Lower()
			if err != nil {
				t.Fatal(err)
			}
			out, err := cegis.Synthesize(f, cegis.Options{MaxSetLen: 4, Timeout: 5 * time.Minute})
			if err != nil || !out.Found {
				t.Fatalf("%s: not synthesised with MaxSetLen=4: %v %+v", name, err, out.Stats)
			}
			if l.WantProgram != "" && out.Program.Encode() != l.WantProgram {
				t.Errorf("%s: found %q, want %q", name, out.Program.Encode(), l.WantProgram)
			}
		}
	}
}
