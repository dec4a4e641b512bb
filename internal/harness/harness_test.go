package harness

import (
	"strings"
	"testing"
	"time"

	"stringloops/internal/cegis"
	"stringloops/internal/loopdb"
	"stringloops/internal/vocab"
)

// smallCorpus picks a few fast corpus loops for harness tests.
func smallCorpus(t *testing.T, names ...string) []loopdb.Loop {
	t.Helper()
	byName := map[string]loopdb.Loop{}
	for _, l := range loopdb.Corpus() {
		byName[l.Name] = l
	}
	var out []loopdb.Loop
	for _, n := range names {
		l, ok := byName[n]
		if !ok {
			t.Fatalf("corpus loop %s not found", n)
		}
		out = append(out, l)
	}
	return out
}

func TestSynthesizeCorpusRecords(t *testing.T) {
	loops := smallCorpus(t, "bash/skip_spaces", "ssh/find_comma", "git/mid1")
	var progress strings.Builder
	records := SynthesizeCorpus(loops, cegis.Options{Timeout: 5 * time.Second}, &progress, 1, nil)
	if len(records) != 3 {
		t.Fatalf("%d records", len(records))
	}
	if !records[0].Found || !records[1].Found {
		t.Fatalf("easy loops should synthesise: %+v", records[:2])
	}
	if records[2].Found {
		t.Fatal("mid-return loop must not synthesise")
	}
	if records[0].Program.Encode() != records[0].Loop.WantProgram {
		t.Errorf("synthesised %q, ground truth %q",
			records[0].Program.Encode(), records[0].Loop.WantProgram)
	}
	if !strings.Contains(progress.String(), "found") {
		t.Error("progress output missing")
	}
}

func TestTable3Aggregation(t *testing.T) {
	records := []SynthRecord{
		{Loop: loopdb.Loop{Program: "bash"}, Found: true, Elapsed: 2 * time.Second},
		{Loop: loopdb.Loop{Program: "bash"}, Found: true, Elapsed: 4 * time.Second},
		{Loop: loopdb.Loop{Program: "bash"}, Found: false, Elapsed: 9 * time.Second},
		{Loop: loopdb.Loop{Program: "git"}, Found: true, Elapsed: 1 * time.Second},
	}
	rows := Table3(records)
	if len(rows) != len(loopdb.Programs)+1 {
		t.Fatalf("%d rows", len(rows))
	}
	var bash, total Table3Row
	for _, r := range rows {
		switch r.Program {
		case "bash":
			bash = r
		case "Total":
			total = r
		}
	}
	if bash.Synthesised != 2 || bash.Total != 3 {
		t.Fatalf("bash row %+v", bash)
	}
	if bash.AvgSec != 3 || bash.MedianSec != 3 {
		t.Fatalf("bash times %+v", bash)
	}
	if total.Synthesised != 3 || total.Total != 4 {
		t.Fatalf("total row %+v", total)
	}
	if total.MedianSec != 2 {
		t.Fatalf("total median %v", total.MedianSec)
	}
}

func TestFigure2Derivation(t *testing.T) {
	records := []SynthRecord{
		{Found: true, Size: 2, Elapsed: 100 * time.Millisecond},
		{Found: true, Size: 4, Elapsed: 2 * time.Second},
		{Found: true, Size: 7, Elapsed: 100 * time.Millisecond},
		{Found: false},
	}
	curves := Figure2(records, 9, []time.Duration{time.Second, 10 * time.Second})
	fast := curves[time.Second]
	slow := curves[10*time.Second]
	// At 1s: the size-4 find (2s) is excluded.
	if fast[2] != 1 || fast[4] != 1 || fast[7] != 2 || fast[9] != 2 {
		t.Fatalf("fast curve %v", fast)
	}
	if slow[4] != 2 || slow[9] != 3 {
		t.Fatalf("slow curve %v", slow)
	}
	// Curves are monotone in size.
	for s := 1; s <= 9; s++ {
		if slow[s] < slow[s-1] {
			t.Fatal("curve must be monotone")
		}
	}
}

// TestCountSynthesizedRestrictsVocabulary checks s(v) of §4.2.3, the
// number of loops synthesised, on a restricted vocabulary.
func TestCountSynthesizedRestrictsVocabulary(t *testing.T) {
	loops := smallCorpus(t, "bash/skip_spaces", "bash/find_eq")
	count := func(opts cegis.Options) int {
		n := 0
		for _, rec := range SynthesizeCorpus(loops, opts, nil, 2, nil) {
			if rec.Found && rec.Err == nil {
				n++
			}
		}
		return n
	}
	full := count(cegis.Options{Timeout: 5 * time.Second})
	if full != 2 {
		t.Fatalf("full vocabulary should synthesise both, got %d", full)
	}
	pOnly, _ := vocab.VocabularyOf("PF")
	limited := count(cegis.Options{Vocabulary: pOnly, Timeout: 2 * time.Second})
	if limited != 1 {
		t.Fatalf("P-only vocabulary should synthesise just the span loop, got %d", limited)
	}
}

func TestVocabularyFromBits(t *testing.T) {
	bits := make([]bool, 13)
	bits[0], bits[12] = true, true // rawmemchr + return
	v := VocabularyFromBits(bits)
	if !v.Contains(vocab.OpRawmemchr) || !v.Contains(vocab.OpReturn) || v.Size() != 2 {
		t.Fatalf("vocabulary %s", v.Letters())
	}
}

func TestGenerateCTests(t *testing.T) {
	src := `
char *skip(char *s) {
  while (*s == '.')
    s++;
  return s;
}
char *find(char *s) {
  while (*s && *s != '#')
    s++;
  return *s == '#' ? s : 0;
}`
	out, total, err := GenerateCTests(src, CTestOptions{MaxLen: 3, Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if total < 6 {
		t.Fatalf("only %d tests", total)
	}
	for _, want := range []string{
		"#include <assert.h>", "static void test_skip", "static void test_find",
		"assert(find(\"\") == NULL)", "int main(void)",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("harness missing %q:\n%s", want, out)
		}
	}
}

func TestSynthesizedCorpus(t *testing.T) {
	loops := SynthesizedCorpus()
	if len(loops) != 77 {
		t.Fatalf("synthesised corpus has %d loops, want 77", len(loops))
	}
	for _, l := range loops {
		if _, ok := SummaryFor(l); !ok {
			t.Fatalf("%s: missing summary", l.Name)
		}
	}
}
