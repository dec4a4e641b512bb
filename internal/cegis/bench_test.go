package cegis

import (
	"testing"

	"stringloops/internal/engine"
	"stringloops/internal/loopdb"
)

// BenchmarkSynthesizeRefuted runs the whole search on a corpus loop that no
// program of size 5 summarises, so every skeleton of sizes 1 to 5 is
// enumerated and rejected: refuting loops is most of a Table 3 sweep's work,
// and BenchmarkTable3Synthesis times only loops that are found.
func BenchmarkSynthesizeRefuted(b *testing.B) {
	var loop loopdb.Loop
	for _, l := range loopdb.Corpus() {
		if l.Name == "git/skip_seps2" {
			loop = l
		}
	}
	if loop.Name == "" {
		b.Fatal("git/skip_seps2: not in the corpus")
	}
	f, err := loop.Lower()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := Synthesize(f, Options{MaxProgSize: 5, Budget: engine.NewBudget(nil, engine.Limits{})})
		if err != nil || out.Found {
			b.Fatalf("found=%v err=%v, want a refutation", out.Found, err)
		}
	}
}
