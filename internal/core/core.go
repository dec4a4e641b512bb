// Package core wires the paper's pipeline together: parse C source, lower
// the loop function to IR, check the memorylessness conditions (§3),
// synthesise an equivalent gadget program with CEGIS (§2), and compile the
// summary back to C for refactoring (§4.5). The exported package
// stringloops at the module root is a thin facade over this package.
package core

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"
	"unicode/utf8"

	"stringloops/internal/cc"
	"stringloops/internal/cegis"
	"stringloops/internal/cir"
	"stringloops/internal/cstr"
	"stringloops/internal/diskcache"
	"stringloops/internal/engine"
	"stringloops/internal/memoryless"
	"stringloops/internal/obs"
	"stringloops/internal/sat"
	"stringloops/internal/strsolver"
	"stringloops/internal/symex"
	"stringloops/internal/vocab"
)

// Options configures a summarisation run.
type Options struct {
	// Vocabulary as opcode letters (e.g. "MPNIFV"); empty means the full
	// Table 1 vocabulary.
	Vocabulary string
	// MaxProgramSize bounds the encoded summary size (default 9, as in the
	// paper's main experiment).
	MaxProgramSize int
	// MaxSetSize bounds character-set arguments (default 3).
	MaxSetSize int
	// MaxExampleLength is the bounded-equivalence string length (default 3;
	// sound for memoryless loops by §3's small-model theorems).
	MaxExampleLength int
	// Timeout bounds the search (default 30s).
	Timeout time.Duration
	// Budget, when non-nil, overrides Timeout with caller-controlled
	// cancellation and resource caps shared by the memorylessness check and
	// the synthesis; exhaustion surfaces as ErrNotFound, promptly.
	Budget *engine.Budget
	// RequireMemoryless refuses to summarise loops that fail the §3
	// memorylessness verification, guaranteeing the summary is equivalent on
	// strings of every length, not just the bounded check.
	RequireMemoryless bool
	// Pipeline configures every solver stack of the run — memorylessness
	// check, synthesis, covering inputs — with one value (symex.Config):
	// state merging, fault injection under one seeded schedule, and the
	// persistent tier, whose query store backs every query cache and whose
	// memo store memoizes whole results (memorylessness verdicts,
	// synthesised summaries) by the loop's canonical structural hash. The
	// zero value turns all three off at zero cost.
	Pipeline symex.Config
}

// Summary is a synthesised loop summary. Its JSON form is the daemon's
// full-rung payload.
type Summary struct {
	// Encoded is the program in the byte encoding of Table 1.
	Encoded string `json:"encoded"`
	// Readable renders the program as named gadgets.
	Readable string `json:"readable"`
	// C is the replacement C function.
	C string `json:"c"`
	// Memoryless reports whether the §3 verification proved the loop
	// memoryless (when it did, the summary provably agrees on all strings).
	Memoryless bool `json:"memoryless"`
	// Direction is the memoryless traversal direction when verified.
	Direction string `json:"direction,omitempty"`
	// Elapsed is the synthesis time.
	Elapsed time.Duration `json:"-"`
	prog    vocab.Program
	// progErr is why a summary decoded from JSON has no program.
	progErr error
}

// UnmarshalJSON decodes a summary's JSON form and rebuilds its program from
// Encoded, so a summary received from the daemon runs like a local one.
// JSON replaces each byte of Encoded that is not valid UTF-8 (a gadget
// argument of 0x80 or more) with U+FFFD, and then Encoded no longer names
// the program. Such a summary still decodes, with all its fields, but it
// has no program: Program returns nil and Run panics.
func (s *Summary) UnmarshalJSON(raw []byte) error {
	type plain Summary
	var p plain
	if err := json.Unmarshal(raw, &p); err != nil {
		return err
	}
	*s = Summary(p)
	if strings.ContainsRune(s.Encoded, utf8.RuneError) {
		s.progErr = fmt.Errorf("core: summary %q: program bytes lost in JSON", s.Encoded)
		return nil
	}
	prog, err := vocab.Decode(s.Encoded)
	if err != nil {
		s.progErr = fmt.Errorf("core: summary %q: %w", s.Encoded, err)
		return nil
	}
	s.prog = prog
	return nil
}

// Errors.
var (
	// ErrNotFound means no equivalent program exists within the budget.
	ErrNotFound = errors.New("core: no summary found within the budget")
	// ErrNoLoopFunction means the source has no function with the
	// char *f(char *) shape.
	ErrNoLoopFunction = errors.New("core: no char *f(char *) function found")
	// ErrNotMemoryless is returned under RequireMemoryless.
	ErrNotMemoryless = errors.New("core: loop failed memorylessness verification")
)

// lowerNamed parses source and lowers funcName (or the first loop-shaped
// function when funcName is empty).
func lowerNamed(source, funcName string) (*cir.Func, error) {
	return lowerTraced(source, funcName, nil)
}

// lowerTraced is lowerNamed with the front-end phases recorded on the given
// tracer ("phase/parse" and "phase/lower" spans; nil traces nothing).
func lowerTraced(source, funcName string, tr *obs.Tracer) (*cir.Func, error) {
	span := tr.Start("phase/parse")
	file, err := cc.Parse(source)
	span.End()
	if err != nil {
		return nil, err
	}
	var decl *cc.FuncDecl
	if funcName != "" {
		decl = file.Lookup(funcName)
		if decl == nil {
			return nil, fmt.Errorf("core: function %q not found", funcName)
		}
	} else {
		for _, fn := range file.Funcs {
			if fn.Ret.IsPointer() && len(fn.Params) == 1 && fn.Params[0].Type.IsPointer() {
				decl = fn
				break
			}
		}
		if decl == nil {
			return nil, ErrNoLoopFunction
		}
	}
	span = tr.Start("phase/lower", obs.Attr{Key: "func", Val: decl.Name})
	f, err := cir.LowerFunc(decl, file)
	span.End()
	return f, err
}

// Summarize synthesises a summary for funcName in the C source (empty
// funcName picks the first char*(char*) function).
func Summarize(source, funcName string, opts Options) (*Summary, error) {
	f, err := lowerTraced(source, funcName, opts.Budget.Tracer())
	if err != nil {
		return nil, err
	}
	return summarizeLowered(f, opts)
}

// summarizeLowered is Summarize after the front end: summarizeLoop behind
// the whole-result memo. The loop's canonical hash plus every option that
// shapes the outcome keys the finished summary, so a structurally known
// loop — resubmitted in this process or a previous one — returns in O(1).
// Only deterministic outcomes are stored (a found summary, a clean
// exhaustive not-found); budget-classified failures always recompute.
// Concurrent -j drivers summarising the same loop collapse to one run
// through the store's singleflight.
func summarizeLowered(f *cir.Func, opts Options) (*Summary, error) {
	key := func() string {
		return fmt.Sprintf("sum1:%s:%s:%d:%d:%d:%t:%t", cir.CanonicalHash(f),
			opts.Vocabulary, opts.MaxProgramSize, opts.MaxSetSize, opts.MaxExampleLength,
			opts.RequireMemoryless, opts.Pipeline.Merge)
	}
	return diskcache.Memo(opts.Pipeline.Disk.MemoStore(), opts.Budget, key,
		func() (*Summary, error) { return summarizeLoop(f, opts) },
		func(s *Summary, err error) ([]byte, bool) {
			switch {
			case err == nil:
				return encodeSummary(s), true
			case errors.Is(err, ErrNotFound) && !errors.Is(err, engine.ErrBudget):
				return []byte("N"), true
			}
			return nil, false
		},
		func(raw []byte) (*Summary, error, bool) { return decodeSummary(raw, f.Name) })
}

// encodeSummary renders a found summary for the memo store: the encoded
// program (hex, since the Table 1 encoding uses arbitrary bytes), the
// memorylessness verdict and the traversal direction. Everything else on
// Summary is recomputed from these at decode time.
func encodeSummary(s *Summary) []byte {
	m := "0"
	if s.Memoryless {
		m = "1"
	}
	return []byte("F " + hex.EncodeToString([]byte(s.Encoded)) + " " + m + " " + s.Direction)
}

// decodeSummary rebuilds a Summary from a memo entry, re-deriving the
// readable form and the C replacement (which carries the current function's
// name, not the name the entry was stored under). Corrupt entries report
// ok=false and fall back to a live run.
func decodeSummary(raw []byte, funcName string) (*Summary, error, bool) {
	s := string(raw)
	if s == "N" {
		return nil, ErrNotFound, true
	}
	rest, found := strings.CutPrefix(s, "F ")
	if !found {
		return nil, nil, false
	}
	fields := strings.Fields(rest)
	if len(fields) < 2 {
		return nil, nil, false
	}
	encBytes, err := hex.DecodeString(fields[0])
	if err != nil {
		return nil, nil, false
	}
	prog, err := vocab.Decode(string(encBytes))
	if err != nil {
		return nil, nil, false
	}
	out := &Summary{
		Encoded:    string(encBytes),
		Readable:   prog.String(),
		C:          vocab.CompileToC(prog, funcName+"_summary"),
		Memoryless: fields[1] == "1",
		prog:       prog,
	}
	if len(fields) >= 3 {
		out.Direction = fields[2]
	}
	return out, nil, true
}

// summarizeLoop is the uncached pipeline: memorylessness check, CEGIS
// synthesis, summary assembly.
func summarizeLoop(f *cir.Func, opts Options) (*Summary, error) {
	report := memoryless.VerifyWith(f, memoryless.VerifyOptions{
		MaxLen: max(3, opts.MaxExampleLength), Budget: opts.Budget, Pipeline: opts.Pipeline,
	})
	if opts.RequireMemoryless && !report.Memoryless {
		if report.Err != nil {
			// The check was interrupted, not refuted: keep the budget
			// classification (engine.ErrBudget) in the chain so callers can
			// retry with a larger budget.
			return nil, fmt.Errorf("%w: %w", ErrNotMemoryless, report.Err)
		}
		return nil, fmt.Errorf("%w: %s", ErrNotMemoryless, report.Reason)
	}

	copts := cegis.Options{
		MaxProgSize: opts.MaxProgramSize,
		MaxSetLen:   opts.MaxSetSize,
		MaxExSize:   opts.MaxExampleLength,
		Timeout:     opts.Timeout,
		Budget:      opts.Budget,
		Pipeline:    opts.Pipeline,
	}
	if opts.Vocabulary != "" {
		v, err := vocab.VocabularyOf(opts.Vocabulary)
		if err != nil {
			return nil, err
		}
		copts.Vocabulary = v
	}
	out, err := cegis.Synthesize(f, copts)
	if err != nil && !errors.Is(err, cegis.ErrTimeout) {
		return nil, err
	}
	if !out.Found {
		if err != nil {
			// Budget exhaustion: still "no summary found" to existing callers
			// (errors.Is ErrNotFound), but with the exhaustion cause in the
			// chain so errors.Is(·, engine.ErrBudget) classifies it retryable.
			return nil, fmt.Errorf("%w: %w", ErrNotFound, err)
		}
		return nil, ErrNotFound
	}
	s := &Summary{
		Encoded:    out.Program.Encode(),
		Readable:   out.Program.String(),
		C:          vocab.CompileToC(out.Program, f.Name+"_summary"),
		Memoryless: report.Memoryless,
		Elapsed:    out.Elapsed,
		prog:       out.Program,
	}
	if report.Memoryless {
		s.Direction = report.Spec.Dir.String()
	}
	return s, nil
}

// Run executes the summary on a Go string, returning the offset the C loop
// would return, with found=false for a NULL return. It panics on summaries
// whose result is the invalid pointer (malformed programs never escape
// Summarize) and on summaries decoded from JSON without their program.
func (s *Summary) Run(input string) (offset int, found bool) {
	if s.progErr != nil {
		panic(s.progErr)
	}
	res := vocab.Run(s.prog, cstr.Terminate(input))
	switch res.Kind {
	case vocab.Null:
		return 0, false
	case vocab.Ptr:
		return res.Off, true
	}
	panic("core: summary produced an invalid pointer")
}

// Program exposes the decoded gadget program (nil for a summary decoded
// from JSON that lost its program bytes; see UnmarshalJSON).
func (s *Summary) Program() vocab.Program { return s.prog }

// TestInput is a generated test: an input string plus the loop's behaviour
// on it.
type TestInput struct {
	Input string `json:"input"`
	// Offset the loop returns (pointer result), meaningful when !Null.
	Offset int `json:"offset,omitempty"`
	// Null reports a NULL return.
	Null bool `json:"null,omitempty"`
}

// CoveringInputs generates one concrete input per distinct behaviour of the
// summarised loop on strings up to maxLen — the testing application of §4.3:
// the summary turns the loop into string-solver constraints, and one solver
// model per feasible outcome covers every path without enumerating the
// loop's exponentially many symbolic paths.
func (s *Summary) CoveringInputs(maxLen int) []TestInput {
	eng := symex.Config{}.NewEngine(nil)
	bvin, cache := eng.In, eng.Cache
	sym := strsolver.New(bvin, "s", maxLen)
	outcomes := vocab.RunSymbolic(vocab.Symbolize(bvin, s.prog), sym)
	var out []TestInput
	seen := map[string]bool{}
	for _, o := range outcomes {
		if o.Res.Kind == vocab.Invalid {
			continue // undefined behaviour of the original loop
		}
		st, model := cache.CheckSat(nil, o.Guard)
		if st != sat.Sat {
			continue
		}
		buf := sym.Concretize(model)
		in := cstr.GoString(buf, 0)
		if seen[in] {
			continue
		}
		seen[in] = true
		ti := TestInput{Input: in}
		if o.Res.Kind == vocab.Null {
			ti.Null = true
		} else {
			ti.Offset = o.Res.Off
		}
		out = append(out, ti)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Input < out[j].Input })
	return out
}

// MemorylessReport is the outcome of VerifyMemoryless. Its JSON form is
// the daemon's memoryless-rung payload.
type MemorylessReport struct {
	Memoryless bool          `json:"memoryless"`
	Direction  string        `json:"direction,omitempty"`
	Reason     string        `json:"reason,omitempty"`
	Elapsed    time.Duration `json:"-"`
}

// VerifyMemoryless runs the §3 bounded memorylessness verification on the
// named function.
func VerifyMemoryless(source, funcName string) (*MemorylessReport, error) {
	f, err := lowerNamed(source, funcName)
	if err != nil {
		return nil, err
	}
	return memorylessReport(memoryless.Verify(f, 3)), nil
}

// memorylessReport is the facade form of a memoryless.Report.
func memorylessReport(r memoryless.Report) *MemorylessReport {
	out := &MemorylessReport{Memoryless: r.Memoryless, Reason: r.Reason, Elapsed: r.Elapsed}
	if r.Memoryless {
		out.Direction = r.Spec.Dir.String()
	}
	return out
}

// CheckEquivalence verifies an encoded summary against the named loop on all
// strings up to maxLen, returning a counterexample input when they differ.
func CheckEquivalence(source, funcName, encoded string, maxLen int) (ok bool, counterexample string, err error) {
	f, err := lowerNamed(source, funcName)
	if err != nil {
		return false, "", err
	}
	prog, err := vocab.Decode(encoded)
	if err != nil {
		return false, "", err
	}
	ok, cex, err := cegis.VerifyEquivalence(f, prog, maxLen)
	if err != nil {
		return false, "", err
	}
	if !ok && cex != nil {
		return false, cstr.GoString(cex, 0), nil
	}
	return ok, "", nil
}

// CheckRefactoring verifies that a rewritten function (typically the loop
// replaced by standard-library calls — strspn, strcspn, strchr, strlen —
// which the symbolic executor models directly) behaves identically to the
// original on all strings up to maxLen and on NULL. It returns a
// distinguishing input when the refactoring is wrong — the validation step
// behind the §4.5 pull requests.
func CheckRefactoring(source, originalName, refactoredName string, maxLen int) (ok bool, counterexample string, err error) {
	a, err := lowerNamed(source, originalName)
	if err != nil {
		return false, "", err
	}
	b, err := lowerNamed(source, refactoredName)
	if err != nil {
		return false, "", err
	}
	ok, cex, err := cegis.VerifyFunctionEquivalence(a, b, maxLen, nil)
	if err != nil {
		return false, "", err
	}
	if !ok && cex != nil {
		return false, cstr.GoString(cex, 0), nil
	}
	return ok, "", nil
}

// IdiomRewrite is the outcome of the loop-idiom compiler pass.
type IdiomRewrite struct {
	// Summary is the synthesised program in readable form.
	Summary string
	// C is the replacement: the summary's own C (Summary.C), proven
	// equivalent to the loop.
	C string
	// OriginalIR and RewrittenIR are the function's IR before and after the
	// pass (the rewritten form is C lowered, loop-free, built from string.h
	// calls).
	OriginalIR  string
	RewrittenIR string
}

// ErrNoLoopFreeForm means the loop has a summary whose C is not a loop-free
// replacement: the summary needs the reverse gadget, which has no loop-free
// library equivalent (§2.2's motivation for reverse), or its C falls
// outside the front end's subset, as the invalid-pointer return of a
// program that can run out of instructions does.
var ErrNoLoopFreeForm = errors.New("core: summary has no loop-free library form")

// RewriteIdiom runs the LoopIdiomRecognize-style pass (§4.4's compiler
// application) on the named function: summarise the loop, lower the
// summary's C, and prove it equivalent to the loop on all strings up to
// length 3 and on NULL before returning it. The timeout bounds the whole
// pass.
func RewriteIdiom(source, funcName string, timeout time.Duration) (*IdiomRewrite, error) {
	f, err := lowerNamed(source, funcName)
	if err != nil {
		return nil, err
	}
	if timeout == 0 {
		timeout = 30 * time.Second
	}
	budget := engine.WithTimeout(timeout)
	out, err := cegis.Synthesize(f, cegis.Options{Budget: budget})
	if err != nil && !errors.Is(err, cegis.ErrTimeout) {
		return nil, err
	}
	if !out.Found {
		if err != nil {
			return nil, fmt.Errorf("%w: %s: %w", ErrNotFound, f.Name, err)
		}
		return nil, fmt.Errorf("%w: %s", ErrNotFound, f.Name)
	}
	p := out.Program
	if p.Uses(vocab.OpReverse) {
		return nil, fmt.Errorf("%w: %s", ErrNoLoopFreeForm, p)
	}
	c := vocab.CompileToC(p, f.Name+"_summary")
	var g *cir.Func
	file, err := cc.Parse(c)
	if err == nil {
		g, err = cir.LowerFunc(file.Funcs[0], file)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrNoLoopFreeForm, p, err)
	}
	// The pass refuses to install a replacement it cannot prove.
	ok, cex, err := cegis.VerifyFunctionEquivalence(f, g, 3, budget)
	if err != nil {
		return nil, fmt.Errorf("core: self-check failed: %w", err)
	}
	if !ok {
		return nil, fmt.Errorf("core: replacement disagrees with %s on %q", f.Name, cex)
	}
	return &IdiomRewrite{Summary: p.String(), C: c, OriginalIR: f.String(), RewrittenIR: g.String()}, nil
}

// Candidate is a loop that survived the automatic filter pipeline of §4.1.1.
type Candidate struct {
	Function string
	Stage    string // the filter that removed it, or "candidate"
}

// FindCandidates runs the automatic filter pipeline over every function in
// the source, reporting each loop's fate.
func FindCandidates(source string) ([]Candidate, error) {
	file, err := cc.Parse(source)
	if err != nil {
		return nil, err
	}
	funcs, err := cir.LowerFile(file)
	if err != nil {
		return nil, err
	}
	for _, f := range funcs {
		cir.Mem2Reg(f)
	}
	infos, _ := cir.ClassifyLoops(funcs)
	stageNames := map[cir.FilterStage]string{
		cir.StageInitial:    "outer-loop",
		cir.StageInnerOK:    "pointer-call",
		cir.StagePtrCallOK:  "array-write",
		cir.StageNoWritesOK: "multiple-reads",
		cir.StageCandidate:  "candidate",
	}
	var out []Candidate
	for _, info := range infos {
		out = append(out, Candidate{Function: info.Func.Name, Stage: stageNames[info.Stage]})
	}
	return out, nil
}
