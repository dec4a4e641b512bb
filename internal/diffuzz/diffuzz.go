package diffuzz

import (
	"time"

	"stringloops/internal/diskcache"
	"stringloops/internal/engine"
)

// Options configures a fuzzing run. The zero value is usable: every field
// has a sensible default.
type Options struct {
	// Seeds is the number of generated programs (default 100).
	Seeds int
	// BaseSeed is the first generator seed (default 1); seed i of the run is
	// BaseSeed + i, so any finding is reproducible from its seed alone.
	BaseSeed uint64
	// Inputs is the number of random buffers per program (default 8), on top
	// of the two fixed inputs every program gets: the NULL pointer and the
	// empty string.
	Inputs int
	// MaxInputLen bounds random buffer content bytes (default 6).
	MaxInputLen int
	// SynthTimeout is the per-program CEGIS budget (default 300ms). Zero or
	// negative disables the summary stage entirely.
	SynthTimeout time.Duration
	// MaxExSize is the bounded-verification string size (default 3, the
	// paper's max_ex_size); non-memoryless summaries are only compared on
	// buffers up to this size.
	MaxExSize int
	// Budget, when non-nil, bounds the whole run: seeds still pending when
	// it expires are counted as skipped, not silently dropped.
	Budget *engine.Budget
	// Jobs is the worker count (engine.Workers semantics: <1 = NumCPU).
	Jobs int
	// QCache runs the symbolic-execution stage with per-fork feasibility
	// checking routed through the query cache (internal/qcache). A cache bug
	// that wrongly prunes a feasible path then surfaces as a "no-path"
	// finding, turning the fuzzer into a differential test of the cache.
	QCache bool
	// FaultRate, when positive, arms a per-seed fault-injection registry
	// (internal/faultpoint) over the pipeline under test, scaled so that
	// rate 1 is a heavy storm. Only skip-safe sites are armed — injected
	// faults degrade runs (solver Unknowns, budget exhaustion, fork
	// failures) but can never manufacture a finding, so any finding under
	// -faults is still a real bug, now caught on the error paths too.
	// SymexPanic stays unarmed: the executors' panic guard reports every
	// recovered panic as a finding by design.
	FaultRate float64
	// FaultSeed decorrelates fault schedules from generator seeds (default
	// 0: the schedule for generator seed s is keyed on s alone).
	FaultSeed uint64
	// Cache, when non-nil, backs every per-seed query cache with the
	// persistent tier's query store. The fuzzer is also the tier's own
	// differential test: cache-on and cache-off runs over the same seeds
	// must produce identical findings, since a cache can change speed but
	// never verdicts.
	Cache *diskcache.Tier
	// Merge adds the state-merging symbolic executor as a third oracle
	// (alongside path enumeration and the summary): every input is
	// cross-checked merged vs enumerated vs concrete, so a merge bug that
	// loses, duplicates, or mislabels a behaviour becomes a finding.
	Merge bool
	// NoMinimize skips delta-debugging of findings.
	NoMinimize bool

	// executors is the cross-checked executor set: DefaultExecutors, plus
	// the merging executor under Merge. The concrete interpreter is always
	// the ground truth and is not part of this list. Package tests set it
	// to inject a faulty executor.
	executors []Executor
}

func (o *Options) maxExSize() int {
	if o.MaxExSize > 0 {
		return o.MaxExSize
	}
	return 3
}

func (o Options) withDefaults() Options {
	if o.Seeds <= 0 {
		o.Seeds = 100
	}
	if o.BaseSeed == 0 {
		o.BaseSeed = 1
	}
	if o.Inputs <= 0 {
		o.Inputs = 8
	}
	if o.MaxInputLen <= 0 {
		o.MaxInputLen = 6
	}
	if o.SynthTimeout == 0 {
		o.SynthTimeout = 300 * time.Millisecond
	}
	if o.executors == nil {
		o.executors = DefaultExecutors()
		if o.Merge {
			o.executors = append(o.executors, symexExecutor{merged: true})
		}
	}
	return o
}

// Report aggregates a run.
type Report struct {
	// Programs is the number of generated programs actually checked.
	Programs int
	// Skipped counts seeds abandoned because the run budget expired.
	Skipped int
	// Synthesized counts programs for which CEGIS found a summary.
	Synthesized int
	// Memoryless counts synthesized programs verified memoryless.
	Memoryless int
	// Checks counts (program, input) comparisons performed.
	Checks int
	// Findings are the triaged disagreements, minimized unless NoMinimize.
	Findings []*Finding
	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration
}

type seedResult struct {
	skipped     bool
	synthesized bool
	memoryless  bool
	checks      int
	findings    []*Finding
}

// Run fuzzes opts.Seeds generated programs, each against NULL, the empty
// string, and opts.Inputs random buffers, cross-checking every executor
// against the concrete interpreter. Seeds are checked in parallel
// (opts.Jobs) but the report is deterministic in content order.
func Run(opts Options) *Report {
	o := opts.withDefaults()
	start := time.Now()
	results := make([]seedResult, o.Seeds)
	engine.Map(o.Jobs, o.Seeds, func(i int) {
		seed := o.BaseSeed + uint64(i)
		if o.Budget.Exceeded() {
			results[i].skipped = true
			return
		}
		results[i] = checkSeed(seed, &o)
	})

	rep := &Report{}
	for _, r := range results {
		if r.skipped {
			rep.Skipped++
			continue
		}
		rep.Programs++
		if r.synthesized {
			rep.Synthesized++
		}
		if r.memoryless {
			rep.Memoryless++
		}
		rep.Checks += r.checks
		rep.Findings = append(rep.Findings, r.findings...)
	}
	rep.Elapsed = time.Since(start)
	return rep
}

// checkSeed prepares seed's program and cross-checks all its inputs. At
// most one finding per (stage, kind) pair is kept per seed — the same root
// cause tends to fire on many inputs.
func checkSeed(seed uint64, o *Options) seedResult {
	var res seedResult
	p := Generate(seed)
	t, pf := PrepareTarget(seed, p, o)
	if pf != nil {
		res.findings = []*Finding{minimizeIf(pf, p, o)}
		return res
	}
	res.synthesized = t.HasSummary
	res.memoryless = t.Memoryless

	inputs := append([][]byte{nil, {0}}, SeedInputs(seed, p, o.Inputs, o.MaxInputLen)...)
	seen := map[string]bool{}
	for _, in := range inputs {
		if o.Budget.Exceeded() {
			break
		}
		res.checks++
		for _, f := range checkInput(t, in, o.executors) {
			key := f.Stage + "/" + f.Kind
			if seen[key] {
				continue
			}
			seen[key] = true
			res.findings = append(res.findings, minimizeIf(f, p, o))
		}
	}
	return res
}

// SeedInputs returns the n random buffers a sweep checks seed's program p
// on, each of content length up to maxLen (see GenInput).
func SeedInputs(seed uint64, p *Prog, n, maxLen int) [][]byte {
	r := newRng(seed ^ 0x5bf03635) // decorrelated from Generate's stream
	out := make([][]byte, n)
	for i := range out {
		out[i] = GenInput(r, p, maxLen)
	}
	return out
}

func minimizeIf(f *Finding, p *Prog, o *Options) *Finding {
	if o.NoMinimize {
		return f
	}
	return Minimize(f, p, o)
}

// CheckSeedInput is the fuzz-harness entry point: cross-check the program
// generated from seed on one externally supplied buffer (the raw fuzz input;
// it is clamped and NUL-terminated here). The target should be prepared once
// per seed and reused — see TargetForSeed.
func CheckSeedInput(t *Target, raw []byte, maxLen int) []*Finding {
	if len(raw) > maxLen {
		raw = raw[:maxLen]
	}
	buf := append(append([]byte(nil), raw...), 0)
	return checkInput(t, buf, DefaultExecutors())
}

// TargetForSeed prepares the target for one seed with the given options,
// returning the preparation finding (if any) instead of a target.
func TargetForSeed(seed uint64, o *Options) (*Target, *Finding) {
	od := o.withDefaults()
	return PrepareTarget(seed, Generate(seed), &od)
}
