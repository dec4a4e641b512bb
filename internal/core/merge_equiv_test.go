package core

import (
	"context"
	"testing"

	"stringloops/internal/cir"
	"stringloops/internal/engine"
	"stringloops/internal/loopdb"
	"stringloops/internal/memoryless"
	"stringloops/internal/symex"
)

// These tests pin the state-merging executor to the enumerating one across
// the whole curated corpus: the two are different schedules of the same
// semantics, so every verdict that flows out of symbolic execution must be
// identical, and every covering input either mode generates must replay
// correctly on the concrete interpreter.

// TestMergeCorpusVerdictsAgree runs the §3 memorylessness verification over
// all 115 corpus loops with and without state merging and requires
// bit-identical verdicts: same memoryless bool, same direction, same
// error classification.
func TestMergeCorpusVerdictsAgree(t *testing.T) {
	for _, l := range loopdb.Corpus() {
		l := l
		t.Run(l.Name, func(t *testing.T) {
			f, err := l.Lower()
			if err != nil {
				t.Fatalf("lower: %v", err)
			}
			enum := memoryless.VerifyWith(f, memoryless.VerifyOptions{MaxLen: 3})
			// Re-lower: verification mutates nothing, but a fresh Func keeps
			// the two runs fully independent.
			f2, err := l.Lower()
			if err != nil {
				t.Fatalf("re-lower: %v", err)
			}
			merged := memoryless.VerifyWith(f2, memoryless.VerifyOptions{MaxLen: 3, Pipeline: symex.Config{Merge: true}})

			if enum.Memoryless != merged.Memoryless {
				t.Fatalf("verdicts differ: enumerated memoryless=%v (%q), merged memoryless=%v (%q)",
					enum.Memoryless, enum.Reason, merged.Memoryless, merged.Reason)
			}
			if (enum.Err == nil) != (merged.Err == nil) {
				t.Fatalf("error classification differs: enumerated err=%v, merged err=%v", enum.Err, merged.Err)
			}
			if enum.Memoryless && enum.Spec.Dir != merged.Spec.Dir {
				t.Fatalf("directions differ: enumerated %s, merged %s", enum.Spec.Dir, merged.Spec.Dir)
			}
		})
	}
}

// TestMergeCorpusCoveringInputsSound generates covering inputs from the
// symbolic paths in both modes for every corpus loop the engine supports,
// and replays each input on the concrete interpreter: the claimed
// offset/NULL result must be what the loop actually does. Merging changes
// how many inputs come out (merged paths cover many suffixes each), never
// whether they are right — and it must still produce at least one whenever
// enumeration does.
func TestMergeCorpusCoveringInputsSound(t *testing.T) {
	ctx := context.Background()
	for _, l := range loopdb.Corpus() {
		l := l
		t.Run(l.Name, func(t *testing.T) {
			f, err := l.Lower()
			if err != nil {
				t.Fatalf("lower: %v", err)
			}
			gen := func(merge bool) []TestInput {
				b := engine.NewBudget(ctx, engine.Limits{})
				inputs, cerr := loopCoveringInputs(f, 3, b, symex.Config{Merge: merge})
				if cerr != nil {
					return nil // unsupported construct or no feasible path: same in both modes
				}
				return inputs
			}
			enum, merged := gen(false), gen(true)
			if (len(enum) == 0) != (len(merged) == 0) {
				t.Fatalf("coverage disagrees: enumerated %d inputs, merged %d", len(enum), len(merged))
			}
			check := func(mode string, inputs []TestInput) {
				for _, ti := range inputs {
					mem := cir.NewMemory()
					// Replay at the generation capacity (3 content bytes +
					// terminator): stride loops legitimately read past the
					// NUL, and those reads are in bounds only at the
					// capacity the symbolic buffer had.
					raw := make([]byte, 4)
					copy(raw, ti.Input)
					obj := mem.AllocData(raw)
					res, rerr := cir.Exec(f, []cir.CVal{cir.PtrVal(obj, 0)}, mem, 1<<16)
					if rerr != nil {
						t.Fatalf("%s input %q: interpreter errored: %v", mode, ti.Input, rerr)
					}
					switch {
					case ti.Null:
						if !res.Ret.IsPtr || !res.Ret.IsNull() {
							t.Fatalf("%s input %q: claimed NULL, interpreter returned %s", mode, ti.Input, res.Ret)
						}
					default:
						if !res.Ret.IsPtr || res.Ret.IsNull() || res.Ret.Obj != obj || res.Ret.Off != ti.Offset {
							t.Fatalf("%s input %q: claimed offset %d, interpreter returned %s",
								mode, ti.Input, ti.Offset, res.Ret)
						}
					}
				}
			}
			check("enumerated", enum)
			check("merged", merged)
		})
	}
}
