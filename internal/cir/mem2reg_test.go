package cir_test

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"stringloops/internal/cir"
	"stringloops/internal/loopdb"
)

// promotedCorpusSHA256 is the sha256 of every corpus loop's promoted IR
// (Func.String after Mem2Reg), in corpus order. A change to lowering or to
// Mem2Reg that moves any register, phi or block of it moves this hash.
const promotedCorpusSHA256 = "693f1e96ff351f7080e650092687db3975c3bb2386fef057d9f21c7163c99e12"

// TestMem2RegIsDeterministic promotes every corpus loop five times: the IR
// must come out byte-identical each time, and the whole promoted corpus
// must hash to the pinned value.
func TestMem2RegIsDeterministic(t *testing.T) {
	sum := sha256.New()
	for _, l := range loopdb.Corpus() {
		var first string
		for i := range 5 {
			f, err := l.Lower()
			if err != nil {
				t.Fatal(err)
			}
			cir.Mem2Reg(f)
			ir := f.String()
			if i == 0 {
				first = ir
				sum.Write([]byte(ir))
			} else if ir != first {
				t.Fatalf("%s: promotion %d differs from the first:\n%s\nvs\n%s", l.Name, i, ir, first)
			}
		}
	}
	if got := fmt.Sprintf("%x", sum.Sum(nil)); got != promotedCorpusSHA256 {
		t.Errorf("promoted corpus sha256 = %s, want %s", got, promotedCorpusSHA256)
	}
}
