// Package service is the summarization daemon: an HTTP/JSON front door
// over the filter→symex→cegis→memoryless pipeline, engineered for
// overload rather than the happy path. Every request is admitted through
// a bounded queue with a per-request engine.Budget carved from a global
// envelope; an overload policy maps queue depth and recent p99 latency
// onto the resilient ladder's rungs so the server sheds work per request
// (full summary → memoryless verdict → covering inputs → concrete smoke)
// before it sheds requests; and a SIGTERM drain stops admission,
// down-ladders queued work, answers every in-flight request, and flushes
// the persistent cache tier before exit. See DESIGN.md §14.
package service

import (
	"fmt"
	"sort"
	"strings"

	"stringloops/internal/core"
	"stringloops/internal/engine"
)

// Request is the JSON body of POST /summarize: one C string loop and the
// per-request pipeline knobs. The zero value of every field is the same
// default the CLI uses.
type Request struct {
	// Source is the C translation unit holding the loop.
	Source string `json:"source"`
	// Func names the function to summarise; empty means the single
	// loop-shaped function in the source.
	Func string `json:"func,omitempty"`
	// Vocabulary restricts the synthesis vocabulary (opcode letters);
	// empty means the full Table 1 vocabulary.
	Vocabulary string `json:"vocabulary,omitempty"`
	// MaxProgramSize bounds the encoded summary size (default 9).
	MaxProgramSize int `json:"max_program_size,omitempty"`
	// MaxSetSize bounds character-set arguments (default 3).
	MaxSetSize int `json:"max_set_size,omitempty"`
	// MaxExampleLength is the bounded-equivalence string length (default 3).
	MaxExampleLength int `json:"max_example_length,omitempty"`
	// RequireMemoryless refuses summaries for loops that fail the §3
	// verification.
	RequireMemoryless bool `json:"require_memoryless,omitempty"`
	// Explain asks the server to attach a Provenance record to the
	// response: why this rung was chosen and what the request spent,
	// reconciled against the request's engine.Budget carves.
	Explain bool `json:"explain,omitempty"`
}

// Response is the JSON body of a successful POST /summarize: the best
// rung the ladder reached and its payload, sent as the ladder's own core
// types (core.Summary, core.MemorylessReport, core.TestInput). ElapsedNs
// and QueueWaitNs are wall-clock observations and deliberately excluded
// from VerdictKey, so the chaos soak can compare server verdicts
// bit-for-bit against offline SummarizeResilient runs.
type Response struct {
	// Rung is the rung reached ("full", "memoryless", "covering", "smoke").
	Rung string `json:"rung"`
	// StartRung is where the overload policy started the ladder for this
	// request ("full" when the server was healthy).
	StartRung string `json:"start_rung"`
	// Summary is set when Rung == "full".
	Summary *core.Summary `json:"summary,omitempty"`
	// Memoryless is set when Rung == "memoryless".
	Memoryless *core.MemorylessReport `json:"memoryless,omitempty"`
	// Covering is set when Rung == "covering".
	Covering []core.TestInput `json:"covering,omitempty"`
	// Smoke is set when Rung == "smoke".
	Smoke []core.TestInput `json:"smoke,omitempty"`
	// Attempts counts supervised attempts across all rungs tried.
	Attempts int `json:"attempts"`
	// Degraded carries the last rung failure when the ladder descended
	// below full (diagnostics, not part of the verdict).
	Degraded string `json:"degraded,omitempty"`
	// ElapsedNs is handler wall time (excluded from VerdictKey).
	ElapsedNs int64 `json:"elapsed_ns"`
	// QueueWaitNs is time spent waiting for an admission slot (excluded
	// from VerdictKey).
	QueueWaitNs int64 `json:"queue_wait_ns"`
	// Provenance is the explainability record, present only when the
	// request set Explain (excluded from VerdictKey: spend and policy
	// inputs are schedule-dependent, the verdict is not).
	Provenance *Provenance `json:"provenance,omitempty"`
}

// AttemptProvenance is the wire form of one core.AttemptRecord: the rung,
// the error as text, and the attempt budget's spend and wall time (Spend
// is nil for budget-less attempts, such as the smoke rung's).
type AttemptProvenance struct {
	Rung      string        `json:"rung"`
	Err       string        `json:"err,omitempty"`
	Panicked  bool          `json:"panicked,omitempty"`
	Spend     *engine.Spend `json:"spend,omitempty"`
	ElapsedNs int64         `json:"elapsed_ns,omitempty"`
}

// Provenance is the verdict explainability record: which rung the overload
// policy chose and the inputs that picked it, the attempt history with
// per-attempt (per-phase) budget spend, the request's total spend, and
// whether that spend reconciled 1:1 against the request's private metric
// registry. It answers "why did this loop get this verdict, at this rung,
// from which cache tier, at what cost" across a process boundary.
type Provenance struct {
	// TraceID is the propagated X-Loopsum-Trace trace id (16 hex digits),
	// joining this record to the client and server span streams.
	TraceID string `json:"trace_id,omitempty"`
	// StartRung / FinalRung bracket the ladder walk; FloorRung is the
	// configured floor the policy could not start above.
	StartRung string `json:"start_rung"`
	FinalRung string `json:"final_rung"`
	FloorRung string `json:"floor_rung"`
	// PolicyDisabled / Draining explain a pinned start rung.
	PolicyDisabled bool `json:"policy_disabled,omitempty"`
	Draining       bool `json:"draining,omitempty"`
	// LoadFraction and P99SignalNs are the overload policy's inputs at
	// admission time (occupied admission capacity / total capacity, and
	// the windowed completion-latency p99 upper bound).
	LoadFraction float64 `json:"load_fraction"`
	P99SignalNs  int64   `json:"p99_signal_ns"`
	// Attempts is the supervised attempt history, in order.
	Attempts []AttemptProvenance `json:"attempts,omitempty"`
	// Totals is the request's summed budget spend across all attempts.
	Totals engine.Spend `json:"totals"`
	// Reconciled reports whether Totals matched the request's private
	// metric registry counter-for-counter (false means the server counted
	// a reconcile drift for this request — an accounting bug, not a wrong
	// verdict).
	Reconciled bool `json:"reconciled"`
}

// ErrorBody is the JSON body of every non-2xx response.
type ErrorBody struct {
	Error string `json:"error"`
	// RetryAfterSec mirrors the Retry-After header on retryable statuses.
	RetryAfterSec int `json:"retry_after_sec,omitempty"`
}

// VerdictKey serialises the deterministic fields of a response — rung and
// payload, no timings, no attempt counts (retries under injected faults
// are schedule-dependent across processes) — into one comparable string.
// The chaos soak asserts server keys equal offline keys.
func (r *Response) VerdictKey() string {
	var b strings.Builder
	fmt.Fprintf(&b, "rung=%s", r.Rung)
	if r.Summary != nil {
		fmt.Fprintf(&b, ";sum=%s|%v|%s", r.Summary.Encoded, r.Summary.Memoryless, r.Summary.Direction)
	}
	if r.Memoryless != nil {
		fmt.Fprintf(&b, ";mem=%v|%s|%s", r.Memoryless.Memoryless, r.Memoryless.Direction, r.Memoryless.Reason)
	}
	writeInputs := func(tag string, ins []core.TestInput) {
		if len(ins) == 0 {
			return
		}
		sorted := append([]core.TestInput(nil), ins...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].Input < sorted[j].Input })
		fmt.Fprintf(&b, ";%s=", tag)
		for _, ti := range sorted {
			fmt.Fprintf(&b, "(%q,%d,%v)", ti.Input, ti.Offset, ti.Null)
		}
	}
	writeInputs("cov", r.Covering)
	writeInputs("smoke", r.Smoke)
	return b.String()
}

// fromOutcome converts a ladder outcome into the wire response.
func fromOutcome(out core.Outcome, start core.Rung) *Response {
	resp := &Response{
		Rung:       out.Rung.String(),
		StartRung:  start.String(),
		Summary:    out.Summary,
		Memoryless: out.Memoryless,
		Covering:   out.Covering,
		Smoke:      out.Smoke,
		Attempts:   len(out.Attempts),
	}
	if out.Rung != core.RungFull && out.Err != nil {
		resp.Degraded = out.Err.Error()
	}
	return resp
}

// attemptProvenance is the wire form of the ladder's attempt history.
func attemptProvenance(attempts []core.AttemptRecord) []AttemptProvenance {
	out := make([]AttemptProvenance, len(attempts))
	for i, a := range attempts {
		out[i] = AttemptProvenance{
			Rung: a.Rung.String(), Panicked: a.Panicked, Spend: a.Spend, ElapsedNs: int64(a.Elapsed),
		}
		if a.Err != nil {
			out[i].Err = a.Err.Error()
		}
	}
	return out
}
