package main

import (
	"fmt"
	"math/rand"
	"strings"

	"stringloops/internal/cir"
	"stringloops/internal/loopdb"
	"stringloops/internal/vocab"
)

// refInputs is the number of concrete inputs on which a synthesised program
// must agree with its loop's hand-written reference.
const refInputs = 64

// figure3Pins are the total test counts per symbolic length over the 77
// summarised loops: vanilla (one test per feasible path) and str (one test
// per summary outcome).
var figure3Pins = map[int]struct{ vanilla, str int64 }{
	6: {6503, 539},
	7: {16771, 616},
}

// oracle holds the expected verdicts of every workload. It is built from the
// corpus's hand-written ground truth (loopdb labels and Go reference
// implementations) and concrete execution only, never from the SAT/bit-vector
// stack whose answers the workloads produce.
type oracle struct {
	loops map[string]truth
}

// truth is what the oracle knows of one curated loop.
type truth struct {
	// summary is the curated summary of a loop the paper synthesises (nil
	// for the others).
	summary    vocab.Program
	memoryless bool
	// ref and inputs check a found program concretely against the loop's
	// reference implementation.
	ref    func([]byte) vocab.Result
	inputs [][]byte
}

func newOracle(seed int64) (*oracle, error) {
	o := &oracle{loops: map[string]truth{}}
	rng := rand.New(rand.NewSource(seed))
	for _, l := range loopdb.Corpus() {
		t := truth{memoryless: l.ExpectMemoryless, ref: l.Ref}
		if l.ExpectSynth {
			p, err := vocab.Decode(l.WantProgram)
			if err != nil {
				return nil, fmt.Errorf("%s: curated summary: %w", l.Name, err)
			}
			t.summary = p
		}
		f, err := l.Lower()
		if err != nil {
			return nil, err
		}
		t.inputs = concreteInputs(loopConstants(f), rng)
		if err := t.checkRef(); err != nil {
			return nil, fmt.Errorf("%s: %w", l.Name, err)
		}
		o.loops[l.Name] = t
	}
	return o, nil
}

// synthVerdict is the verdict of a search bounded by maxSize: it finds the
// curated summary exactly when that summary fits, because the search
// deepens by size and returns the first verified program.
func (t truth) synthVerdict(maxSize int) string {
	if t.summary != nil && t.summary.EncodedSize() <= maxSize {
		return "found " + t.summary.Encode()
	}
	return "refuted"
}

// loopConstants collects the byte constants a loop compares against or
// passes to library calls, plus its string-literal bytes.
func loopConstants(f *cir.Func) []byte {
	var out []byte
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op != cir.OpCmp && in.Op != cir.OpCall {
				continue
			}
			for _, a := range in.Args {
				if a.Kind == cir.KConst && a.Imm > 0 && a.Imm < 256 {
					out = append(out, byte(a.Imm))
				}
			}
		}
	}
	for _, s := range f.StrLits {
		out = append(out, s...)
	}
	return out
}

// concreteInputs builds NUL-terminated strings of length 0..8 whose bytes are
// drawn half from the loop's constants and half at random.
func concreteInputs(consts []byte, rng *rand.Rand) [][]byte {
	inputs := make([][]byte, refInputs)
	for i := range inputs {
		buf := make([]byte, rng.Intn(9)+1)
		for k := 0; k < len(buf)-1; k++ {
			if len(consts) > 0 && rng.Intn(2) == 0 {
				buf[k] = consts[rng.Intn(len(consts))]
			} else {
				buf[k] = byte(1 + rng.Intn(255))
			}
		}
		inputs[i] = buf
	}
	return inputs
}

// expected is the verdict the oracle wants for one item of a table3,
// memverify or serve pass.
func (o *oracle) expected(workload, loop string) string {
	t := o.loops[loop]
	switch workload {
	case "table3":
		return t.synthVerdict(synthMaxSize)
	case "memverify":
		if t.memoryless {
			return "memoryless"
		}
		return "refuted"
	}
	// serve: the ladder answers at the full rung when synthesis finds the
	// summary, and falls back to the memoryless verdict when it refutes.
	if found, ok := strings.CutPrefix(t.synthVerdict(serveMaxSize), "found "); ok {
		return fmt.Sprintf("full %s memoryless=%v", found, t.memoryless)
	}
	return fmt.Sprintf("memoryless memoryless=%v", t.memoryless)
}

// wrongVerdicts lists the items whose verdict the oracle rejects, with a
// reason for each. Items that failed outright are the caller's to count.
func (o *oracle) wrongVerdicts(workload string, items []itemResult) []string {
	var bad []string
	for _, it := range items {
		if it.Err != "" {
			continue
		}
		if workload == "figure3" {
			var paths, tests, strTests int
			if _, err := fmt.Sscanf(it.Verdict, "paths=%d tests=%d str_tests=%d", &paths, &tests, &strTests); err != nil || tests != paths {
				bad = append(bad, fmt.Sprintf("%s: %q: want one test per path", it.Key, it.Verdict))
			}
			continue
		}
		if want := o.expected(workload, it.Key); it.Verdict != want {
			bad = append(bad, fmt.Sprintf("%s: got %q, want %q", it.Key, it.Verdict, want))
		}
	}
	return bad
}

// incomplete lists the items a full pass did not attempt the expected number
// of times, and any item that does not belong to the workload.
func (o *oracle) incomplete(workload string, items []itemResult) []string {
	var bad []string
	seen := map[string]int{}
	for _, it := range items {
		seen[it.Key]++
	}
	want := o.itemCounts(workload)
	for key, n := range want {
		if seen[key] != n {
			bad = append(bad, fmt.Sprintf("%s: attempted %d times, want %d", key, seen[key], n))
		}
	}
	for key := range seen {
		if _, ok := want[key]; !ok {
			bad = append(bad, fmt.Sprintf("%s: not an item of %s", key, workload))
		}
	}
	return bad
}

// checkRef runs the curated summary, which a found verdict must equal,
// against the loop's reference implementation on the oracle's inputs, so a
// found program is checked by concrete execution alone.
func (t truth) checkRef() error {
	if t.summary == nil {
		return nil
	}
	for _, in := range t.inputs {
		if got, want := vocab.Run(t.summary, in), t.ref(in); got != want {
			return fmt.Errorf("summary %q gives %v on %q, reference gives %v", t.summary.Encode(), got, in, want)
		}
	}
	return nil
}

// checkCounts compares a pass's exact counts with the pinned ones.
func checkCounts(workload string, counts map[string]int64) []string {
	if workload != "figure3" {
		return nil
	}
	var bad []string
	for _, n := range figure3Lengths {
		pin := figure3Pins[n]
		for kind, want := range map[string]int64{"vanilla": pin.vanilla, "str": pin.str} {
			key := fmt.Sprintf("kleebench.%s_tests.n%d", kind, n)
			if got := counts[key]; got != want {
				bad = append(bad, fmt.Sprintf("%s = %d, pinned %d", key, got, want))
			}
		}
	}
	return bad
}

// itemCounts is how many times each item key appears in one pass.
func (o *oracle) itemCounts(workload string) map[string]int {
	out := map[string]int{}
	for loop, t := range o.loops {
		switch workload {
		case "table3", "memverify":
			out[loop] = 1
		case "serve":
			out[loop] = 2
		case "figure3":
			if t.summary != nil {
				for _, n := range figure3Lengths {
					out[fmt.Sprintf("%s@%d", loop, n)] = 1
				}
			}
		}
	}
	return out
}
