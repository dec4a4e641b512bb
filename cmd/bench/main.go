// Command bench runs the solver-chain benchmark: the Figure 1 loop under the
// vanilla.KLEE configuration with the query-cache chain (independence
// slicing, counterexample cache, incremental solver — internal/qcache) on
// and off, plus the summarised str.KLEE run for reference. It writes the
// measurements to a JSON file so CI and successive PRs can compare runs.
//
// With -obs it instead runs the observability-overhead lane and writes
// BENCH_5.json: ns/op on the Figure 1 program with the obs instrumentation
// disabled vs enabled, plus a hot-path microbenchmark that gates the
// disabled-mode cost (the batched-flush pattern every instrumented hot loop
// uses) at <= 2% over a bare loop.
//
// With -merge it runs the state-merging lane and writes BENCH_6.json: the
// Figure 1 loop enumerated at length n against the merging executor at
// length 2n, gating that the merged double-length run stays under the
// enumerated wall time — the n=8 -> n=16 push.
//
// With -persist it runs the cross-process persistent-cache lane and writes
// BENCH_7.json: the memorylessness corpus sweep is executed twice in child
// processes sharing one -cache-dir — cold (empty directory) then warm (the
// cold run's persisted tier) — gating that the verdicts are bit-identical
// and, with -check, that the warm process is strictly faster. BENCH_3's
// in-process counterexample-cache hit rate is the ceiling this lane chases
// across a process boundary.
//
// Usage:
//
//	bench                      # full run, writes BENCH_3.json
//	bench -short -check        # CI smoke: small length, assert cache wins
//	bench -obs                 # overhead lane, writes BENCH_5.json
//	bench -merge -check        # merging lane, writes BENCH_6.json
//	bench -persist -check      # warm-vs-cold lane, writes BENCH_7.json
//	bench -telemetry -check    # provenance/exposition lane, writes BENCH_10.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"

	"stringloops/internal/cc"
	"stringloops/internal/cir"
	"stringloops/internal/cliflags"
	"stringloops/internal/diskcache"
	"stringloops/internal/engine"
	"stringloops/internal/kleebench"
	"stringloops/internal/loopdb"
	"stringloops/internal/memoryless"
	"stringloops/internal/obs"
	"stringloops/internal/vocab"
)

// figure1Loop is the paper's running example (Figure 1): skip leading
// whitespace.
const figure1Loop = `
#define whitespace(c) (((c) == ' ') || ((c) == '\t'))
char* loopFunction(char* line) {
  char *p;
  for (p = line; p && *p && whitespace (*p); p++)
    ;
  return p;
}`

// figure1Summary is the synthesised summary of figure1Loop ("ZFP \t\x00F").
const figure1Summary = "ZFP \t\x00F"

// run is one benchmark configuration's aggregated measurement.
type run struct {
	Name          string  `json:"name"`
	Mode          string  `json:"mode"`   // "vanilla" or "str"
	QCache        bool    `json:"qcache"` // query-cache chain enabled
	Length        int     `json:"length"` // symbolic string length
	Reps          int     `json:"reps"`
	NsPerOp       int64   `json:"ns_per_op"`
	SolverQueries int64   `json:"solver_queries_per_op"`
	Conflicts     int64   `json:"sat_conflicts_per_op"`
	CacheHitRate  float64 `json:"cache_hit_rate"`
	Tests         int     `json:"tests"`           // generated test inputs (last rep)
	Paths         int     `json:"paths,omitempty"` // terminal paths (last rep)
	Merge         bool    `json:"merge,omitempty"` // state-merging executor
	VNHits        int64   `json:"vn_hits_per_op,omitempty"`
	IteFusions    int64   `json:"ite_fusions_per_op,omitempty"`
}

// report is the BENCH_3.json schema.
type report struct {
	Benchmark     string  `json:"benchmark"`
	Loop          string  `json:"loop"`
	GoVersion     string  `json:"go_version"`
	Runs          []run   `json:"runs"`
	ConflictRatio float64 `json:"conflict_ratio_off_over_on"`
	NsRatio       float64 `json:"ns_ratio_off_over_on"`
}

// laneArgs carries the parsed flags a lane draws from.
type laneArgs struct {
	n, reps, sample int
	short, check    bool
	out, cacheDir   string
}

func main() {
	var (
		short = flag.Bool("short", false, "CI smoke mode: shorter symbolic string, one rep")
		check = flag.Bool("check", false, "exit 1 unless cache-on beats cache-off (>=1.5x fewer conflicts or >=30% lower ns/op) with a non-zero hit rate")
		out   = flag.String("out", "BENCH_3.json", "output JSON path (empty = stdout only)")
		n     = flag.Int("n", 8, "symbolic string length")
		reps  = flag.Int("reps", 3, "repetitions per configuration")

		mrg    = flag.Bool("merge", false, "run the state-merging lane and write BENCH_6.json instead")
		sample = flag.Int("sample", 0, "with -persist: only the first N corpus loops (0 = all 115)")
		child  = flag.Bool("persist-child", false, "internal: run one corpus sweep over -cache-dir and print verdicts (the -persist lane's worker phase)")
	)
	// lanes selects what runs instead of the default solver-cache lane:
	// the first lane whose flag is set, with its own default output file.
	lanes := []struct {
		on  *bool
		out string
		run func(laneArgs)
	}{
		{flag.Bool("obs", false, "run the observability-overhead lane and write BENCH_5.json instead"), "BENCH_5.json", obsLane},
		{mrg, "BENCH_6.json", mergeLane},
		{flag.Bool("persist", false, "run the cross-process persistent-cache lane and write BENCH_7.json instead"), "BENCH_7.json", persistLane},
		{flag.Bool("serve", false, "run the daemon load lane and write BENCH_9.json instead"), "BENCH_9.json", serveLane},
		{flag.Bool("telemetry", false, "run the telemetry lane (provenance, exposition, trace merge) and write BENCH_10.json instead"), "BENCH_10.json", telemetryLane},
	}
	cacheDir := cliflags.CacheDir(nil)
	flag.Parse()
	if *child {
		persistChildRun(*cacheDir, *sample)
		return
	}
	a := laneArgs{n: *n, reps: *reps, sample: *sample, short: *short, check: *check, out: *out, cacheDir: *cacheDir}
	if a.short {
		a.reps = 1
		// The merge lane keeps n=8: its gate runs the merging executor at
		// 2n, and below the n=8 crossover enumeration is too cheap for the
		// comparison to mean anything.
		if !*mrg {
			a.n = 6
		}
	}
	for _, l := range lanes {
		if *l.on {
			if a.out == "BENCH_3.json" {
				a.out = l.out
			}
			l.run(a)
			return
		}
	}
	cacheLane(a)
}

// cacheLane is the default lane and writes BENCH_3.json: the Figure 1 loop
// with the query-cache chain on and off, plus the summarised str run. With
// check, cache-on must win on conflicts or wall time with a non-zero hit
// rate.
func cacheLane(a laneArgs) {
	f := lower()
	prog, err := vocab.Decode(figure1Summary)
	if err != nil {
		fatal("decode summary: %v", err)
	}

	rep := report{
		Benchmark: "BenchmarkSolverCache",
		Loop:      "figure1/skip_whitespace",
		GoVersion: runtime.Version(),
	}
	on := vanillaRun("SolverCacheOn", f, a.n, a.reps, kleebench.Config{QCache: true})
	off := vanillaRun("SolverCacheOff", f, a.n, a.reps, kleebench.Config{QCache: false})
	rep.Runs = append(rep.Runs, on, off, strRun("StrCacheOn", prog, a.n, a.reps))
	rep.ConflictRatio = ratio(off.Conflicts, on.Conflicts)
	rep.NsRatio = ratio(off.NsPerOp, on.NsPerOp)
	writeReport(rep, a.out)

	if a.check {
		fewerConflicts := rep.ConflictRatio >= 1.5
		lowerNs := rep.NsRatio >= 1.3
		if on.CacheHitRate <= 0 {
			fatal("check failed: cache hit rate is zero")
		}
		if !fewerConflicts && !lowerNs {
			fatal("check failed: conflicts off/on = %.2f (< 1.5) and ns off/on = %.2f (< 1.3)",
				rep.ConflictRatio, rep.NsRatio)
		}
		fmt.Printf("check ok: conflicts off/on = %.2f, ns off/on = %.2f, hit rate = %.3f\n",
			rep.ConflictRatio, rep.NsRatio, on.CacheHitRate)
	}
}

// writeReport prints rep as indented JSON and, when out is non-empty, writes
// the same bytes to out.
func writeReport(rep any, out string) {
	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal("marshal: %v", err)
	}
	enc = append(enc, '\n')
	fmt.Print(string(enc))
	if out != "" {
		if err := os.WriteFile(out, enc, 0o644); err != nil {
			fatal("write %s: %v", out, err)
		}
	}
}

// mergeReport is the BENCH_6.json schema: the enumerating executor at the
// baseline length against the merging executor at double the length, both
// through the query-cache chain.
type mergeReport struct {
	Benchmark string `json:"benchmark"`
	Loop      string `json:"loop"`
	GoVersion string `json:"go_version"`
	Runs      []run  `json:"runs"`
	// NsRatioEnumOverMerged compares the enumerated baseline-length run to
	// the merged double-length run; >= 1 means merging absorbed a doubling
	// of the symbolic string for free.
	NsRatioEnumOverMerged float64 `json:"ns_ratio_enum_n_over_merged_2n"`
	// PathRatio is enumerated paths over merged paths at the same length n
	// — the state-explosion factor merging removes.
	PathRatio float64 `json:"path_ratio_enum_over_merged_same_n"`
}

// mergeLane measures state merging: enumeration at n vs merging at n and
// 2n. With check, the merged 2n run must stay under the enumerated n wall
// time (the Figure 1 n=8 -> n=16 push) and must have exercised the
// value-numbering memo (non-zero hits).
func mergeLane(a laneArgs) {
	n, reps := a.n, a.reps
	f := lower()
	enum := vanillaRun("EnumN", f, n, reps, kleebench.Config{QCache: true})
	mergedSame := vanillaRun("MergeN", f, n, reps, kleebench.Config{QCache: true, Merge: true})
	merged2x := vanillaRun("MergeTwoN", f, 2*n, reps, kleebench.Config{QCache: true, Merge: true})

	rep := mergeReport{
		Benchmark:             "BenchmarkStateMerging",
		Loop:                  "figure1/skip_whitespace",
		GoVersion:             runtime.Version(),
		Runs:                  []run{enum, mergedSame, merged2x},
		NsRatioEnumOverMerged: ratio(enum.NsPerOp, merged2x.NsPerOp),
		PathRatio:             ratio(int64(enum.Paths), int64(mergedSame.Paths)),
	}

	writeReport(rep, a.out)
	if a.check {
		if merged2x.VNHits == 0 {
			fatal("merge check failed: value-numbering memo recorded zero hits at merged n=%d", 2*n)
		}
		if rep.NsRatioEnumOverMerged < 1 {
			fatal("merge check failed: merged n=%d took %.2fx the enumerated n=%d wall time",
				2*n, 1/rep.NsRatioEnumOverMerged, n)
		}
		if rep.PathRatio < 1 {
			fatal("merge check failed: merged path count exceeds enumerated at n=%d", n)
		}
		fmt.Printf("merge check ok: merged n=%d at %.2fx under enumerated n=%d; same-length path ratio %.1fx; %d queries, %d vn hits\n",
			2*n, rep.NsRatioEnumOverMerged, n, rep.PathRatio, merged2x.SolverQueries, merged2x.VNHits)
	}
}

// persistChildMaxLen is the bounded-check string length of the persist
// lane's workload: one above the paper's §3.3 minimum of 3, so the check is
// strictly stronger (verdicts are unchanged — the small-model theorems make
// length 3 sufficient) while the cold sweep does enough solver work for the
// cross-process speedup to be about the cache rather than process startup.
const persistChildMaxLen = 4

// persistChildRun is the -persist lane's hidden worker phase: one process,
// one sequential memorylessness sweep over the corpus through the persistent
// tier at -cache-dir, verdicts and counters printed to stdout in the line
// format persistChildExec parses. The parent runs it twice over the same
// directory; whether this process is the cold or the warm one is entirely a
// property of what the directory holds.
func persistChildRun(dir string, sample int) {
	if dir == "" {
		fatal("persist child: -cache-dir is required")
	}
	tier, err := diskcache.Open(dir, nil)
	if err != nil {
		fatal("persist child: %v", err)
	}
	loops := loopdb.Corpus()
	if sample > 0 && sample < len(loops) {
		loops = loops[:sample]
	}
	budget := engine.NewBudget(nil, engine.Limits{})
	start := time.Now()
	for _, l := range loops {
		f, err := l.Lower()
		if err != nil {
			fatal("persist child: lower %s: %v", l.Name, err)
		}
		r := memoryless.VerifyWith(f, memoryless.VerifyOptions{
			MaxLen: persistChildMaxLen, Budget: budget,
			Disk: tier.QueryStore(), Memo: tier.MemoStore(),
		})
		if r.Memoryless {
			fmt.Printf("verdict\t%s\tmemoryless\t%s\t%d\n", l.Name, r.Spec.Dir, r.Spec.Miss)
		} else {
			fmt.Printf("verdict\t%s\trejected\t%s\n", l.Name, r.Reason)
		}
	}
	elapsed := time.Since(start)
	if err := tier.Close(); err != nil {
		fatal("persist child: cache persist: %v", err)
	}
	fmt.Printf("done\t%d\t%d\t%d\t%d\n", elapsed.Nanoseconds(),
		budget.Count(engine.DiskHits), budget.Count(engine.DiskMisses), budget.Count(engine.DiskEvictions))
}

// childStats is one worker process's parsed output.
type childStats struct {
	verdicts            []string
	ns                  int64 // sweep time as measured inside the child
	wallNs              int64 // full process wall time, spawn included
	hits, misses, evics int64
}

// persistChildExec re-executes this binary as a -persist-child worker over
// dir and parses its stdout.
func persistChildExec(dir string, sample int) childStats {
	exe, err := os.Executable()
	if err != nil {
		fatal("persist: %v", err)
	}
	cmd := exec.Command(exe, "-persist-child", "-cache-dir", dir, "-sample", strconv.Itoa(sample))
	cmd.Stderr = os.Stderr
	wallStart := time.Now()
	raw, err := cmd.Output()
	wall := time.Since(wallStart)
	if err != nil {
		fatal("persist: child failed: %v", err)
	}
	st := childStats{wallNs: int64(wall)}
	for _, line := range strings.Split(string(raw), "\n") {
		switch {
		case strings.HasPrefix(line, "verdict\t"):
			st.verdicts = append(st.verdicts, line)
		case strings.HasPrefix(line, "done\t"):
			fields := strings.Split(line, "\t")
			if len(fields) != 5 {
				fatal("persist: malformed child trailer %q", line)
			}
			nums := make([]int64, 4)
			for i, f := range fields[1:] {
				v, err := strconv.ParseInt(f, 10, 64)
				if err != nil {
					fatal("persist: malformed child trailer %q: %v", line, err)
				}
				nums[i] = v
			}
			st.ns, st.hits, st.misses, st.evics = nums[0], nums[1], nums[2], nums[3]
		}
	}
	if st.ns == 0 || len(st.verdicts) == 0 {
		fatal("persist: child produced no measurements")
	}
	return st
}

// persistReport is the BENCH_7.json schema: one corpus sweep by a cold
// process (empty cache directory) and one by a warm process (the cold run's
// persisted tier), with verdict identity and the cross-process speedup.
type persistReport struct {
	Benchmark string `json:"benchmark"`
	Corpus    string `json:"corpus"`
	GoVersion string `json:"go_version"`
	Loops     int    `json:"loops"`
	MaxLen    int    `json:"max_len"`
	// ColdNs/WarmNs are sweep times measured inside each child;
	// the *WallNs pair includes process spawn and exit.
	ColdNs         int64 `json:"cold_ns"`
	WarmNs         int64 `json:"warm_ns"`
	ColdWallNs     int64 `json:"cold_wall_ns"`
	WarmWallNs     int64 `json:"warm_wall_ns"`
	ColdDiskHits   int64 `json:"cold_disk_hits"`
	ColdDiskMisses int64 `json:"cold_disk_misses"`
	WarmDiskHits   int64 `json:"warm_disk_hits"`
	WarmDiskMisses int64 `json:"warm_disk_misses"`
	DiskEvictions  int64 `json:"disk_evictions"`
	Memoryless     int   `json:"memoryless"`
	// VerdictsIdentical is the correctness half of the lane: the warm
	// process must reproduce the cold verdicts byte for byte. A mismatch is
	// fatal even without -check.
	VerdictsIdentical   bool    `json:"verdicts_identical"`
	NsRatioColdOverWarm float64 `json:"ns_ratio_cold_over_warm"`
}

// persistLane measures the persistent tier across a process boundary: two
// child sweeps over one fresh cache directory, cold then warm. Verdict
// mismatch always fails; -check additionally requires the warm process to be
// strictly faster.
func persistLane(a laneArgs) {
	sample := a.sample
	if a.short && sample == 0 {
		sample = 30
	}
	// A fresh directory (under -cache-dir when given, the system temp dir
	// otherwise) guarantees the first child really is cold.
	dir, err := os.MkdirTemp(a.cacheDir, "bench-persist-*")
	if err != nil {
		fatal("persist: %v", err)
	}
	defer os.RemoveAll(dir)

	cold := persistChildExec(dir, sample)
	warm := persistChildExec(dir, sample)

	identical := len(cold.verdicts) == len(warm.verdicts)
	if identical {
		for i := range cold.verdicts {
			if cold.verdicts[i] != warm.verdicts[i] {
				identical = false
				break
			}
		}
	}
	memless := 0
	for _, v := range cold.verdicts {
		if strings.Contains(v, "\tmemoryless\t") {
			memless++
		}
	}

	rep := persistReport{
		Benchmark:           "BenchmarkPersistentCache",
		Corpus:              "loopdb/curated",
		GoVersion:           runtime.Version(),
		Loops:               len(cold.verdicts),
		MaxLen:              persistChildMaxLen,
		ColdNs:              cold.ns,
		WarmNs:              warm.ns,
		ColdWallNs:          cold.wallNs,
		WarmWallNs:          warm.wallNs,
		ColdDiskHits:        cold.hits,
		ColdDiskMisses:      cold.misses,
		WarmDiskHits:        warm.hits,
		WarmDiskMisses:      warm.misses,
		DiskEvictions:       cold.evics + warm.evics,
		Memoryless:          memless,
		VerdictsIdentical:   identical,
		NsRatioColdOverWarm: ratio(cold.ns, warm.ns),
	}

	writeReport(rep, a.out)

	if !identical {
		for i := range cold.verdicts {
			if i < len(warm.verdicts) && cold.verdicts[i] != warm.verdicts[i] {
				fmt.Fprintf(os.Stderr, "persist: first divergence:\n  cold: %s\n  warm: %s\n",
					cold.verdicts[i], warm.verdicts[i])
				break
			}
		}
		fatal("persist check failed: warm verdicts differ from cold (%d vs %d loops)",
			len(cold.verdicts), len(warm.verdicts))
	}
	if a.check {
		if warm.ns >= cold.ns {
			fatal("persist check failed: warm sweep (%v) not faster than cold (%v)",
				time.Duration(warm.ns), time.Duration(cold.ns))
		}
		if warm.hits == 0 {
			fatal("persist check failed: warm process recorded zero disk hits")
		}
		fmt.Printf("persist check ok: cold/warm = %.2fx over %d loops, warm disk hits %d\n",
			rep.NsRatioColdOverWarm, rep.Loops, warm.hits)
	}
}

// obsReport is the BENCH_5.json schema: the Figure 1 macro runs with
// instrumentation disabled vs enabled, and the gated hot-path micro numbers.
type obsReport struct {
	Benchmark string `json:"benchmark"`
	Loop      string `json:"loop"`
	GoVersion string `json:"go_version"`
	// Runs holds the macro measurements: obs disabled (budget without
	// handles — the default every caller gets) vs enabled (tracer + metrics
	// threaded via context).
	Runs []run `json:"runs"`
	// NsRatioEnabledOverDisabled is the macro cost of turning tracing on.
	NsRatioEnabledOverDisabled float64 `json:"ns_ratio_enabled_over_disabled"`
	// The micro lane times the batched-flush hot-path pattern (a plain local
	// counter flushed through the budget mirror every batch) against a bare
	// loop; its overhead is the gated number, since macro wall time at this
	// scale is noisier than the 2% bar.
	MicroIters           int     `json:"micro_iters"`
	MicroBatch           int     `json:"micro_batch"`
	MicroBareNs          int64   `json:"micro_bare_ns"`
	MicroDisabledNs      int64   `json:"micro_disabled_ns"`
	MicroEnabledNs       int64   `json:"micro_enabled_ns"`
	DisabledOverheadPct  float64 `json:"disabled_overhead_pct"`
	DisabledOverheadGate float64 `json:"disabled_overhead_gate_pct"`
}

// obsLane measures the observability instrumentation: macro ns/op on the
// Figure 1 vanilla run with obs off vs on, and the micro hot-path gate.
// Exits non-zero when the disabled-mode micro overhead exceeds 2%.
func obsLane(a laneArgs) {
	f := lower()
	disabled := vanillaRun("ObsDisabled", f, a.n, a.reps, kleebench.Config{QCache: true})
	tr, m := obs.New(), obs.NewMetrics()
	enabled := vanillaRun("ObsEnabled", f, a.n, a.reps, kleebench.Config{
		QCache: true,
		Ctx:    obs.NewContext(nil, tr, m),
	})
	enabled.Name = "ObsEnabled"

	iters := 50_000_000
	if a.short {
		iters = 5_000_000
	}
	// One flush per 256 hot iterations is still far more frequent than the
	// real layers (sat flushes once per SolveAssuming, symex once per
	// scheduled segment — thousands of iterations each).
	const batch = 256
	bareNs := bestOf(3, func() int64 { return hotPathBare(iters, batch) })
	disabledNs := bestOf(3, func() int64 {
		return hotPathBudget(iters, batch, engine.NewBudget(nil, engine.Limits{}))
	})
	enabledNs := bestOf(3, func() int64 {
		b := engine.NewBudget(nil, engine.Limits{}).SetObs(nil, obs.NewMetrics())
		return hotPathBudget(iters, batch, b)
	})

	rep := obsReport{
		Benchmark:                  "BenchmarkObsOverhead",
		Loop:                       "figure1/skip_whitespace",
		GoVersion:                  runtime.Version(),
		Runs:                       []run{disabled, enabled},
		NsRatioEnabledOverDisabled: ratio(enabled.NsPerOp, disabled.NsPerOp),
		MicroIters:                 iters,
		MicroBatch:                 batch,
		MicroBareNs:                bareNs,
		MicroDisabledNs:            disabledNs,
		MicroEnabledNs:             enabledNs,
		DisabledOverheadPct:        100 * (float64(disabledNs)/float64(bareNs) - 1),
		DisabledOverheadGate:       2.0,
	}

	writeReport(rep, a.out)
	if rep.DisabledOverheadPct > rep.DisabledOverheadGate {
		fatal("obs check failed: disabled-mode hot-path overhead %.2f%% > %.1f%%",
			rep.DisabledOverheadPct, rep.DisabledOverheadGate)
	}
	fmt.Printf("obs check ok: disabled-mode hot-path overhead %.2f%% (gate %.1f%%), enabled/disabled macro ns ratio %.2f\n",
		rep.DisabledOverheadPct, rep.DisabledOverheadGate, rep.NsRatioEnabledOverDisabled)
}

// hotPathBare is the reference: batch-sized segments of data-dependent work
// with a plain local stat counter — the shape of the sat propagate loop and
// the symex instruction loop, which keep stats loop-local and flush only at
// segment boundaries.
func hotPathBare(iters, batch int) int64 {
	var acc int64
	start := time.Now()
	for done := 0; done < iters; done += batch {
		var local int64
		for i := 0; i < batch && done+i < iters; i++ {
			acc += acc>>1 ^ int64(done+i)
			local++
		}
		acc += local
	}
	sink = acc
	return int64(time.Since(start))
}

// hotPathBudget is the identical segmented loop under the instrumentation
// pattern the solver hot paths use: the local counter is flushed through
// the (nil-checked, mirror-charging) budget once per segment, never per
// iteration.
func hotPathBudget(iters, batch int, budget *engine.Budget) int64 {
	var acc int64
	start := time.Now()
	for done := 0; done < iters; done += batch {
		var local int64
		for i := 0; i < batch && done+i < iters; i++ {
			acc += acc>>1 ^ int64(done+i)
			local++
		}
		acc += local
		budget.Add(engine.Propagations, local)
	}
	sink = acc + budget.Count(engine.Propagations)
	return int64(time.Since(start))
}

// sink defeats dead-code elimination of the measurement loops.
var sink int64

// bestOf returns the minimum of n timings — the standard noise filter for
// micro measurements.
func bestOf(n int, f func() int64) int64 {
	best := f()
	for i := 1; i < n; i++ {
		if t := f(); t < best {
			best = t
		}
	}
	return best
}

func lower() *cir.Func {
	file, err := cc.Parse(figure1Loop)
	if err != nil {
		fatal("parse: %v", err)
	}
	f, err := cir.LowerFunc(file.Funcs[0], file)
	if err != nil {
		fatal("lower: %v", err)
	}
	return f
}

// vanillaRun measures the forking symbolic executor with per-fork
// feasibility checks, averaging over reps. The loop is re-lowered per rep so
// each rep gets a fresh interner (matching the per-pipeline cache scope).
func vanillaRun(name string, f *cir.Func, n, reps int, cfg kleebench.Config) run {
	r := run{Name: name, Mode: "vanilla", QCache: cfg.QCache, Length: n, Reps: reps, Merge: cfg.Merge}
	var ns, queries, conflicts, hits, groups, vnhits, fusions int64
	for i := 0; i < reps; i++ {
		f = lower()
		m := kleebench.VanillaWith(f, n, 10*time.Minute, cfg)
		if m.TimedOut || m.Tests == 0 {
			fatal("%s: run failed: %+v", name, m)
		}
		ns += int64(m.Time)
		queries += int64(m.SolverQueries)
		conflicts += m.Conflicts
		hits += m.Cache.Hits()
		groups += m.Cache.Hits() + m.Cache.Misses
		vnhits += m.VNHits
		fusions += m.IteFusions
		r.Tests = m.Tests
		r.Paths = m.Paths
	}
	r.NsPerOp = ns / int64(reps)
	r.SolverQueries = queries / int64(reps)
	r.Conflicts = conflicts / int64(reps)
	r.VNHits = vnhits / int64(reps)
	r.IteFusions = fusions / int64(reps)
	if groups > 0 {
		r.CacheHitRate = float64(hits) / float64(groups)
	}
	return r
}

// strRun measures the summarised configuration for reference (the Figure 3
// comparison point).
func strRun(name string, prog vocab.Program, n, reps int) run {
	r := run{Name: name, Mode: "str", QCache: true, Length: n, Reps: reps}
	var ns, queries, conflicts, hits, groups int64
	for i := 0; i < reps; i++ {
		m := kleebench.Str(prog, n, 10*time.Minute)
		if m.TimedOut || m.Tests == 0 {
			fatal("%s: run failed: %+v", name, m)
		}
		ns += int64(m.Time)
		queries += int64(m.SolverQueries)
		conflicts += m.Conflicts
		hits += m.Cache.Hits()
		groups += m.Cache.Hits() + m.Cache.Misses
		r.Tests = m.Tests
	}
	r.NsPerOp = ns / int64(reps)
	r.SolverQueries = queries / int64(reps)
	r.Conflicts = conflicts / int64(reps)
	if groups > 0 {
		r.CacheHitRate = float64(hits) / float64(groups)
	}
	return r
}

func ratio(off, on int64) float64 {
	if on == 0 {
		if off == 0 {
			return 1
		}
		return float64(off) // cache eliminated the denominator entirely
	}
	return float64(off) / float64(on)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(1)
}
