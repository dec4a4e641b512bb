package stringloops_test

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"stringloops/internal/core"
	"stringloops/internal/harness"
	"stringloops/internal/loopdb"
	"stringloops/internal/vocab"
)

// TestGeneratedTestsAgainstRealGCC is the strongest end-to-end oracle in the
// repository: for a spread of corpus loops, the pipeline (front end → IR →
// synthesis → string-solver test generation) produces a C harness whose
// assertions are then compiled by a real C compiler and executed against the
// real C code. Any semantic divergence between this library's model of C and
// actual C fails an assert. A second program compiles each loop's summary C,
// the replacement users receive, beside the loop and compares the two on the
// same inputs. Skipped when no C compiler is available.
func TestGeneratedTestsAgainstRealGCC(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles with gcc")
	}
	gcc, err := exec.LookPath("gcc")
	if err != nil {
		if gcc, err = exec.LookPath("cc"); err != nil {
			t.Skip("no C compiler on PATH")
		}
	}

	// A spread of corpus loops covering the main summary shapes. Each is
	// renamed so they coexist in one translation unit. rawmemchr-style loops
	// are excluded: their miss case is UB and cannot be asserted.
	want := map[string]bool{
		"bash/skip_spaces":   true, // strspn, one char
		"bash/skip_ws_pair":  true, // strspn, set
		"git/skip_digits":    true, // digit meta-character
		"bash/find_eq":       true, // strcspn
		"libosip/find_colon": true, // strcspn
		"wget/find_frag":     true, // strchr with NULL miss
		"tar/to_end":         true, // strlen
		"awk/find_ws":        true, // whitespace meta-character
		"patch/trim_spaces":  true, // reverse + strspn (backward)
		"wget/last_dot":      true, // strrchr accumulator
	}
	var sb strings.Builder
	n := 0
	for _, l := range loopdb.Corpus() {
		if !want[l.Name] {
			continue
		}
		n++
		src := strings.Replace(l.Source, "loop_fn", uniqueName(l.Name), 1)
		// The ctype and strlen calls need their headers.
		sb.WriteString(src)
		sb.WriteString("\n")
	}
	if n != len(want) {
		t.Fatalf("found %d of %d corpus loops", n, len(want))
	}

	harnessSrc, total, err := harness.GenerateCTests(sb.String(), harness.CTestOptions{MaxLen: 4})
	if err != nil {
		t.Fatal(err)
	}
	if total < 40 {
		t.Fatalf("only %d tests generated", total)
	}
	full := "#include <ctype.h>\n" + harnessSrc

	dir := t.TempDir()
	cFile := filepath.Join(dir, "gen_test.c")
	bin := filepath.Join(dir, "gen_test")
	if err := os.WriteFile(cFile, []byte(full), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(gcc, "-O2", "-o", bin, cFile).CombinedOutput()
	if err != nil {
		t.Fatalf("gcc failed: %v\n%s\n--- source ---\n%s", err, out, full)
	}
	out, err = exec.Command(bin).CombinedOutput()
	if err != nil {
		t.Fatalf("generated assertions failed under real C: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "generated tests passed") {
		t.Fatalf("unexpected output: %s", out)
	}
	t.Logf("gcc differential: %s", strings.TrimSpace(string(out)))

	// Each loop's shipped summary C (Summary.C) beside the loop: on every
	// harness input both must return the same offset, or both NULL.
	var unit strings.Builder
	unit.WriteString("#include <ctype.h>\n#include <stdio.h>\n#include <string.h>\n\n")
	unit.WriteString(sb.String())
	unit.WriteString(`
static int failed;

static void same(const char *name, char *(*loop)(char *), char *(*summary)(char *), const char *in) {
  char a[16], b[16];
  strcpy(a, in);
  strcpy(b, in);
  char *ra = loop(a), *rb = summary(b);
  if (ra == NULL ? rb != NULL : rb == NULL || ra - a != rb - b) {
    printf("%s: summary C differs on \"%s\"\n", name, in);
    failed = 1;
  }
}

`)
	var checks strings.Builder
	inputs := 0
	for _, l := range loopdb.Corpus() {
		if !want[l.Name] {
			continue
		}
		name := uniqueName(l.Name)
		sum, err := core.Summarize(sb.String(), name, core.Options{Timeout: 30 * time.Second})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		unit.WriteString(sum.C + "\n")
		for _, tc := range sum.CoveringInputs(4) {
			fmt.Fprintf(&checks, "  same(%q, %s, %s_summary, %s);\n",
				name, name, name, vocab.CLiteral([]byte(tc.Input), '"'))
			inputs++
		}
	}
	fmt.Fprintf(&unit, "int main(void) {\n%s  if (!failed)\n    printf(\"summary C agrees on %d inputs\\n\");\n  return failed;\n}\n",
		checks.String(), inputs)
	cFile = filepath.Join(dir, "summary_test.c")
	bin = filepath.Join(dir, "summary_test")
	if err := os.WriteFile(cFile, []byte(unit.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err = exec.Command(gcc, "-O2", "-o", bin, cFile).CombinedOutput()
	if err != nil {
		t.Fatalf("gcc failed on the summary C: %v\n%s\n--- source ---\n%s", err, out, unit.String())
	}
	out, err = exec.Command(bin).CombinedOutput()
	if err != nil {
		t.Fatalf("summary C disagrees with its loop under real C: %v\n%s", err, out)
	}
	t.Logf("gcc summary C: %s", strings.TrimSpace(string(out)))
}

// uniqueName turns "bash/skip_spaces" into "bash_skip_spaces".
func uniqueName(name string) string {
	return strings.NewReplacer("/", "_", "-", "_").Replace(name)
}
