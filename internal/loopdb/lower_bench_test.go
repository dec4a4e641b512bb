package loopdb

import "testing"

// BenchmarkLowerCorpus parses and lowers all 115 corpus loops, the front-end
// work of the memverify and figure3 set-ups and of every daemon request.
func BenchmarkLowerCorpus(b *testing.B) {
	corpus := Corpus()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, l := range corpus {
			if _, err := l.Lower(); err != nil {
				b.Fatal(err)
			}
		}
	}
}
