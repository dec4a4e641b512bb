// Package stringloops computes summaries of string loops in C, reproducing
// "Computing Summaries of String Loops in C for Better Testing and
// Refactoring" (PLDI 2019).
//
// Given C source containing a memoryless string loop — a loop over a
// char* that carries no information between iterations, such as
//
//	char *skip(char *s) {
//	    while (*s == ' ' || *s == '\t')
//	        s++;
//	    return s;
//	}
//
// Summarize synthesises an equivalent straight-line program over the C
// standard string functions (here: s + strspn(s, " \t")) using
// counterexample-guided inductive synthesis over a built-in symbolic
// execution engine and SAT-backed string solver. The summary is checked
// equivalent on all strings up to a small bound; when the loop additionally
// passes the memorylessness verification (VerifyMemoryless), the paper's
// small-model theorems extend that equivalence to strings of every length.
//
// Summaries serve three applications: replacing loops with library calls
// (refactoring, Summary.C), accelerating symbolic execution by dispatching
// loops to a string solver, and speeding up native execution through
// vendor-optimised string routines. The cmd/ directory reproduces every
// table and figure of the paper's evaluation; see DESIGN.md and
// EXPERIMENTS.md.
package stringloops

import (
	"time"

	"stringloops/internal/core"
	"stringloops/internal/diskcache"
	"stringloops/internal/symex"
)

// Options configures Summarize. The zero value matches the paper's main
// experiment: the full 13-gadget vocabulary, maximum program size 9,
// character sets of up to 3 characters, bounded equivalence on strings of
// length up to 3, and a 30-second budget.
type Options struct {
	// Vocabulary restricts the gadgets, given as Table 1 opcode letters
	// (e.g. "MPNIFV", the paper's best reduced vocabulary). Empty means all.
	Vocabulary string
	// MaxProgramSize bounds the encoded summary length.
	MaxProgramSize int
	// MaxSetSize bounds strspn-family set arguments.
	MaxSetSize int
	// MaxExampleLength is the bounded-equivalence string length.
	MaxExampleLength int
	// Timeout bounds synthesis.
	Timeout time.Duration
	// RequireMemoryless makes Summarize fail unless the §3 verification
	// proves the loop memoryless, upgrading the bounded equivalence to all
	// string lengths.
	RequireMemoryless bool
	// Merge enables state-merging symbolic execution throughout the
	// pipeline: paths that reconverge at control-flow join points fold into
	// one state with ite-merged values instead of being enumerated.
	Merge bool
	// CacheDir, when non-empty, backs the run with the persistent cache
	// tier: solver counterexamples (keyed by canonical, interner-independent
	// query hashes) and whole-loop summary memos (keyed by the loop's
	// canonical structural hash) are warm-started from the directory before
	// the run and written back after it, so repeated runs — in this process
	// or another — skip work they have already done. A corrupt or missing
	// cache file degrades to a cold start, never a wrong answer.
	CacheDir string
	// CacheMaxBytes, when positive, bounds the persistent cache tier by
	// total resident bytes (keys plus values) in addition to the built-in
	// entry-count cap; least-recently-used records are evicted first. Zero
	// means no byte bound.
	CacheMaxBytes int64
}

// Summary is a synthesised loop summary.
type Summary = core.Summary

// MemorylessReport is the §3 verification outcome.
type MemorylessReport = core.MemorylessReport

// TestInput is a generated covering test (see Summary.CoveringInputs).
type TestInput = core.TestInput

// Candidate is a loop classified by the automatic filter pipeline.
type Candidate = core.Candidate

// Errors re-exported from the pipeline.
var (
	ErrNotFound       = core.ErrNotFound
	ErrNoLoopFunction = core.ErrNoLoopFunction
	ErrNotMemoryless  = core.ErrNotMemoryless
)

// toCore maps the options onto the pipeline's, opening the CacheDir tier.
// The caller closes it (Pipeline.Disk.Close) when the run ends.
func (o Options) toCore() (core.Options, error) {
	tier, err := diskcache.OpenSized(o.CacheDir, o.CacheMaxBytes, nil)
	if err != nil {
		return core.Options{}, err
	}
	return core.Options{
		Vocabulary:        o.Vocabulary,
		MaxProgramSize:    o.MaxProgramSize,
		MaxSetSize:        o.MaxSetSize,
		MaxExampleLength:  o.MaxExampleLength,
		Timeout:           o.Timeout,
		RequireMemoryless: o.RequireMemoryless,
		Pipeline:          symex.Config{Merge: o.Merge, Disk: tier},
	}, nil
}

// Summarize synthesises a summary for the first char *f(char *) function in
// the C source.
func Summarize(source string, opts Options) (*Summary, error) {
	return SummarizeFunc(source, "", opts)
}

// SummarizeFunc synthesises a summary for the named function.
func SummarizeFunc(source, funcName string, opts Options) (*Summary, error) {
	copts, err := opts.toCore()
	if err != nil {
		return nil, err
	}
	s, serr := core.Summarize(source, funcName, copts)
	// Persistence is best-effort: a failed snapshot costs the next run a
	// cold start, never this run's result.
	_ = copts.Pipeline.Disk.Close()
	return s, serr
}

// VerifyMemoryless runs the §3 bounded memorylessness verification on the
// named function (empty name picks the first char *f(char *) function).
func VerifyMemoryless(source, funcName string) (*MemorylessReport, error) {
	return core.VerifyMemoryless(source, funcName)
}

// CheckEquivalence verifies an encoded summary (the Table 1 byte encoding)
// against the named loop on all strings up to maxLen, returning a
// counterexample input when they differ.
func CheckEquivalence(source, funcName, encodedSummary string, maxLen int) (ok bool, counterexample string, err error) {
	return core.CheckEquivalence(source, funcName, encodedSummary, maxLen)
}

// FindCandidates runs the automatic loop-filter pipeline of §4.1.1 over all
// functions in the source, reporting each loop's fate ("candidate" loops are
// the ones worth summarising).
func FindCandidates(source string) ([]Candidate, error) {
	return core.FindCandidates(source)
}

// Rung identifies a level of SummarizeResilient's graceful-degradation
// ladder (full summary, memorylessness verdict, covering inputs, concrete
// smoke run, failed).
type Rung = core.Rung

// The ladder rungs, best first.
const (
	RungFull       = core.RungFull
	RungMemoryless = core.RungMemoryless
	RungCovering   = core.RungCovering
	RungSmoke      = core.RungSmoke
	RungFailed     = core.RungFailed
)

// Outcome is the structured result of a resilient summarisation: the rung
// reached, its payload, and the attempt history (limits, errors, panics).
type Outcome = core.Outcome

// AttemptRecord is one supervised attempt at one rung of an Outcome.
type AttemptRecord = core.AttemptRecord

// PanicError is the typed error a recovered panic surfaces as; use errors.As
// to detect one in an Outcome's attempt history or a batch result.
type PanicError = core.PanicError

// SummarizeResilient is Summarize with supervision: panics are isolated into
// typed errors, budget exhaustion is retried under escalating limits, and
// when the full summary stays out of reach the result degrades rung by rung
// instead of failing outright. With default options it attempts each rung up
// to three times under the same Timeout as Summarize.
func SummarizeResilient(source, funcName string, opts Options) Outcome {
	copts, err := opts.toCore()
	if err != nil {
		return Outcome{Rung: RungFailed, Err: err}
	}
	out := core.SummarizeResilient(source, funcName, core.ResilientOptions{Options: copts})
	_ = copts.Pipeline.Disk.Close()
	return out
}

// IdiomRewrite is the outcome of RewriteIdiom.
type IdiomRewrite = core.IdiomRewrite

// RewriteIdiom runs the LoopIdiomRecognize-style compiler pass on the named
// function: the loop is summarised, the summary's C lowered to loop-free IR
// over C standard-library calls, and the replacement proven equivalent — the
// compiler-writer application of §4.4.
func RewriteIdiom(source, funcName string, timeout time.Duration) (*IdiomRewrite, error) {
	return core.RewriteIdiom(source, funcName, timeout)
}

// CheckRefactoring verifies that a rewritten function — typically the loop
// replaced by standard-library calls, which the symbolic executor models
// directly — behaves identically to the original on all strings up to maxLen
// and on NULL, returning a distinguishing input otherwise. This validates
// §4.5-style patches before submitting them.
func CheckRefactoring(source, originalName, refactoredName string, maxLen int) (ok bool, counterexample string, err error) {
	return core.CheckRefactoring(source, originalName, refactoredName, maxLen)
}
