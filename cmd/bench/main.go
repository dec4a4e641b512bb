// Command bench runs the single-feature benchmark lanes and writes each
// lane's measurements to its checked-in BENCH_*.json, so CI and successive
// changes can compare runs. The paper's own workloads live in benchmark/;
// these lanes isolate one feature each on the Figure 1 loop, the corpus or
// the daemon:
//
//	cache      BENCH_3.json   the query-cache chain (independence slicing,
//	                          counterexample cache, incremental solver —
//	                          internal/qcache) on and off under vanilla.KLEE,
//	                          plus the summarised str.KLEE run for reference
//	merge      BENCH_6.json   enumeration at length n against state merging
//	                          at n and 2n (the n=8 -> n=16 push)
//	persist    BENCH_7.json   the memorylessness corpus sweep in a cold then
//	                          a warm child process sharing one cache directory
//	serve      BENCH_9.json   the daemon under 200 concurrent clients, then a
//	                          drain while a second wave is still firing
//	telemetry  BENCH_10.json  provenance, the Prometheus scrape, the merged
//	                          client+server trace and the disabled-mode
//	                          hot-path overhead gates
//
// Every lane writes one schema, report: counts hold the values two runs of
// the lane agree on, which CI holds to the checked-in file exactly
// (cmd/bench/gates.txt); metrics hold times, ratios of times and anything
// that depends on size or load, and are informational. With -check, a lane
// also exits 1 when its own feature gate fails.
//
// Usage:
//
//	bench -check                           # cache lane, writes BENCH_3.json
//	bench -lane merge -short -check -out ""  # CI smoke, stdout only
//	bench -lane telemetry -check           # writes BENCH_10.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"time"

	"stringloops/internal/cc"
	"stringloops/internal/cir"
	"stringloops/internal/diskcache"
	"stringloops/internal/engine"
	"stringloops/internal/kleebench"
	"stringloops/internal/loopdb"
	"stringloops/internal/memoryless"
	"stringloops/internal/symex"
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

// report is the schema every lane writes.
type report struct {
	Benchmark string `json:"benchmark"`
	GoVersion string `json:"go_version"`
	Runs      []run  `json:"runs,omitempty"`
	// Counts are machine-independent and gated exactly.
	Counts map[string]any `json:"counts"`
	// Metrics are times, ratios of times and size- or load-dependent
	// values; informational.
	Metrics map[string]any `json:"metrics"`
}

// run is one symbolic-execution configuration, averaged over its reps.
type run struct {
	Name   string `json:"name"`
	Counts struct {
		Length        int     `json:"length"`
		Tests         int     `json:"tests"`
		Paths         int     `json:"paths"`
		SolverQueries int64   `json:"solver_queries_per_op"`
		Conflicts     int64   `json:"sat_conflicts_per_op"`
		CacheHitRate  float64 `json:"cache_hit_rate"`
		VNHits        int64   `json:"vn_hits_per_op"`
	} `json:"counts"`
	Metrics struct {
		NsPerOp int64 `json:"ns_per_op"`
	} `json:"metrics"`
}

// Lane sizes; -short selects the smaller of each pair.
const (
	fullLength, shortLength = 8, 6               // cache lane's symbolic string length
	fullReps, shortReps     = 3, 1               // repetitions per symex configuration
	fullIters, shortIters   = 2_500_000, 500_000 // hot-path micro loop iterations per run
	overheadPairs           = 201                // paired runs behind each micro gate
	shortSample             = 30                 // persist: corpus loops swept (all 115 in full)
	gatePct                 = 2.0                // disabled-mode hot-path overhead bar
	maxRunTime              = 10 * time.Minute   // per symex run
)

// laneArgs carries the parsed flags a lane draws from.
type laneArgs struct {
	short, check  bool
	out, cacheDir string
}

// pick returns full, or small under -short.
func (a laneArgs) pick(full, small int) int {
	if a.short {
		return small
	}
	return full
}

var lanes = map[string]struct {
	out string
	run func(laneArgs)
}{
	"cache":     {"BENCH_3.json", cacheLane},
	"merge":     {"BENCH_6.json", mergeLane},
	"persist":   {"BENCH_7.json", persistLane},
	"serve":     {"BENCH_9.json", serveLane},
	"telemetry": {"BENCH_10.json", telemetryLane},
}

func main() {
	lane := flag.String("lane", "cache", "lane to run: cache, merge, persist, serve or telemetry")
	short := flag.Bool("short", false, "CI smoke mode: smaller sizes, one rep")
	check := flag.Bool("check", false, "exit 1 unless the lane's feature gate holds")
	out := flag.String("out", "", "output JSON path (default: the lane's BENCH_*.json; an explicit empty value = stdout only)")
	child := flag.Bool("persist-child", false, "internal: run one corpus sweep over -cache-dir and print its result (the persist lane's worker phase)")
	cacheDir := flag.String("cache-dir", "",
		"directory for the persistent cache tier (solver counterexamples and whole-loop summary memos, shared across runs and processes); empty = off")
	flag.Parse()
	if *child {
		persistChildRun(*cacheDir, *short)
		return
	}
	l, ok := lanes[*lane]
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown -lane %q\n", *lane)
		flag.Usage()
		os.Exit(2)
	}
	a := laneArgs{short: *short, check: *check, out: l.out, cacheDir: *cacheDir}
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "out" {
			a.out = *out
		}
	})
	l.run(a)
}

// write stamps rep with the Go version, prints it as indented JSON and,
// when out is non-empty, writes the same bytes to out.
func (rep report) write(out string) {
	rep.GoVersion = runtime.Version()
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

// cacheLane writes BENCH_3.json: the Figure 1 loop with the query-cache
// chain on and off, plus the summarised str run. With check, cache-on must
// win on conflicts or wall time with a non-zero hit rate.
func cacheLane(a laneArgs) {
	n, reps := a.pick(fullLength, shortLength), a.pick(fullReps, shortReps)
	prog, err := vocab.Decode(figure1Summary)
	if err != nil {
		fatal("decode summary: %v", err)
	}
	on := vanillaRun("SolverCacheOn", n, reps, kleebench.Config{QCache: true})
	off := vanillaRun("SolverCacheOff", n, reps, kleebench.Config{QCache: false})
	str := measure("StrCacheOn", reps, func() kleebench.Measurement {
		return kleebench.Str(prog, n, maxRunTime)
	})
	conflictRatio := ratio(off.Counts.Conflicts, on.Counts.Conflicts)
	nsRatio := ratio(off.Metrics.NsPerOp, on.Metrics.NsPerOp)
	report{
		Benchmark: "BenchmarkSolverCache",
		Runs:      []run{on, off, str},
		Counts:    map[string]any{"conflict_ratio_off_over_on": conflictRatio},
		Metrics:   map[string]any{"ns_ratio_off_over_on": nsRatio},
	}.write(a.out)

	if a.check {
		if on.Counts.CacheHitRate <= 0 {
			fatal("check failed: cache hit rate is zero")
		}
		if conflictRatio < 1.5 && nsRatio < 1.3 {
			fatal("check failed: conflicts off/on = %.2f (< 1.5) and ns off/on = %.2f (< 1.3)", conflictRatio, nsRatio)
		}
		fmt.Printf("check ok: conflicts off/on = %.2f, ns off/on = %.2f, hit rate = %.3f\n",
			conflictRatio, nsRatio, on.Counts.CacheHitRate)
	}
}

// mergeLane writes BENCH_6.json: enumeration at n vs merging at n and 2n.
// With check, the merged 2n run must stay under the enumerated n wall time
// (the Figure 1 n=8 -> n=16 push), schedule no more paths than enumeration
// at equal length, and record value-numbering memo hits. The lane keeps n=8
// under -short: below the n=8 crossover enumeration is too cheap for the
// comparison to mean anything.
func mergeLane(a laneArgs) {
	n, reps := fullLength, a.pick(fullReps, shortReps)
	enum := vanillaRun("EnumN", n, reps, kleebench.Config{QCache: true})
	mergedSame := vanillaRun("MergeN", n, reps, kleebench.Config{QCache: true, Pipeline: symex.Config{Merge: true}})
	merged2x := vanillaRun("MergeTwoN", 2*n, reps, kleebench.Config{QCache: true, Pipeline: symex.Config{Merge: true}})
	// nsRatio >= 1 means merging absorbed a doubling of the symbolic string
	// for free; pathRatio is the state-explosion factor merging removes.
	nsRatio := ratio(enum.Metrics.NsPerOp, merged2x.Metrics.NsPerOp)
	pathRatio := ratio(int64(enum.Counts.Paths), int64(mergedSame.Counts.Paths))
	report{
		Benchmark: "BenchmarkStateMerging",
		Runs:      []run{enum, mergedSame, merged2x},
		Counts:    map[string]any{"path_ratio_enum_over_merged_same_n": pathRatio},
		Metrics:   map[string]any{"ns_ratio_enum_n_over_merged_2n": nsRatio},
	}.write(a.out)

	if a.check {
		if merged2x.Counts.VNHits == 0 {
			fatal("merge check failed: value-numbering memo recorded zero hits at merged n=%d", 2*n)
		}
		if nsRatio < 1 {
			fatal("merge check failed: merged n=%d took %.2fx the enumerated n=%d wall time", 2*n, 1/nsRatio, n)
		}
		// The work gate: unlike the wall-time ratio, a faster enumeration
		// cannot erode it.
		if m, e := merged2x.Counts, enum.Counts; m.SolverQueries >= e.SolverQueries || m.Paths > e.Paths {
			fatal("merge check failed: merged n=%d asked %d queries over %d paths, enumerated n=%d %d over %d",
				2*n, m.SolverQueries, m.Paths, n, e.SolverQueries, e.Paths)
		}
		if pathRatio < 1 {
			fatal("merge check failed: merged path count exceeds enumerated at n=%d", n)
		}
		fmt.Printf("merge check ok: merged n=%d at %.2fx under enumerated n=%d wall time, %d queries and %d paths to its %d and %d; same-length path ratio %.1fx; %d vn hits\n",
			2*n, nsRatio, n, merged2x.Counts.SolverQueries, merged2x.Counts.Paths, enum.Counts.SolverQueries, enum.Counts.Paths,
			pathRatio, merged2x.Counts.VNHits)
	}
}

// vanillaRun measures the forking symbolic executor with per-fork
// feasibility checks. The loop is re-lowered per rep so each rep gets a
// fresh interner (matching the per-pipeline cache scope).
func vanillaRun(name string, n, reps int, cfg kleebench.Config) run {
	return measure(name, reps, func() kleebench.Measurement {
		return kleebench.VanillaWith(lower(), n, maxRunTime, cfg)
	})
}

// measure runs one configuration reps times: times and counters are
// averaged per rep, the hit rate is over every rep's groups, and tests and
// paths come from the last rep.
func measure(name string, reps int, once func() kleebench.Measurement) run {
	r := run{Name: name}
	var ns, queries int64
	var spend engine.Spend
	for i := 0; i < reps; i++ {
		m := once()
		if m.Err != nil || m.TimedOut || m.Tests == 0 {
			fatal("%s: run failed: %+v", name, m)
		}
		ns += int64(m.Time)
		queries += int64(m.SolverQueries)
		spend.Add(m.Spend)
		r.Counts.Length, r.Counts.Tests, r.Counts.Paths = m.Length, m.Tests, m.Paths
	}
	r.Counts.SolverQueries = queries / int64(reps)
	r.Counts.Conflicts = spend.Conflicts / int64(reps)
	r.Counts.VNHits = spend.VNHits / int64(reps)
	if groups := spend.QCacheHits + spend.QCacheMisses; groups > 0 {
		r.Counts.CacheHitRate = float64(spend.QCacheHits) / float64(groups)
	}
	r.Metrics.NsPerOp = ns / int64(reps)
	return r
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

// persistChildMaxLen is the bounded-check string length of the persist
// lane's workload: one above the paper's §3.3 minimum of 3, so the check is
// strictly stronger (verdicts are unchanged — the small-model theorems make
// length 3 sufficient) while the cold sweep does enough solver work for the
// cross-process speedup to be about the cache rather than process startup.
const persistChildMaxLen = 4

// childResult is one persist worker's sweep, JSON-encoded on its stdout.
type childResult struct {
	Verdicts   []string `json:"verdicts"`
	Memoryless int      `json:"memoryless"`
	Ns         int64    `json:"ns"` // sweep time measured inside the child
	DiskHits   int64    `json:"disk_hits"`
	DiskMisses int64    `json:"disk_misses"`
	Evictions  int64    `json:"disk_evictions"`
	WallNs     int64    `json:"-"` // process wall time, spawn included
}

// persistChildRun is the persist lane's hidden worker phase: one process,
// one sequential memorylessness sweep over the corpus through the persistent
// tier at dir. The parent runs it twice over the same directory; whether
// this process is the cold or the warm one is entirely a property of what
// the directory holds.
func persistChildRun(dir string, short bool) {
	if dir == "" {
		fatal("persist child: -cache-dir is required")
	}
	tier, err := diskcache.OpenSized(dir, 0, nil)
	if err != nil {
		fatal("persist child: %v", err)
	}
	loops := loopdb.Corpus()
	if short {
		loops = loops[:shortSample]
	}
	budget := engine.NewBudget(nil, engine.Limits{})
	var res childResult
	start := time.Now()
	for _, l := range loops {
		f, err := l.Lower()
		if err != nil {
			fatal("persist child: lower %s: %v", l.Name, err)
		}
		r := memoryless.VerifyWith(f, memoryless.VerifyOptions{
			MaxLen: persistChildMaxLen, Budget: budget,
			Pipeline: symex.Config{Disk: tier},
		})
		v := fmt.Sprintf("%s rejected %s", l.Name, r.Reason)
		if r.Memoryless {
			v = fmt.Sprintf("%s memoryless %s %d", l.Name, r.Spec.Dir, r.Spec.Miss)
			res.Memoryless++
		}
		res.Verdicts = append(res.Verdicts, v)
	}
	res.Ns = int64(time.Since(start))
	if err := tier.Close(); err != nil {
		fatal("persist child: cache persist: %v", err)
	}
	res.DiskHits, res.DiskMisses, res.Evictions = budget.Count(engine.DiskHits), budget.Count(engine.DiskMisses), budget.Count(engine.DiskEvictions)
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fatal("persist child: %v", err)
	}
}

// persistChildExec re-executes this binary as a -persist-child worker over
// dir and decodes its result.
func persistChildExec(dir string, short bool) childResult {
	exe, err := os.Executable()
	if err != nil {
		fatal("persist: %v", err)
	}
	cmd := exec.Command(exe, "-persist-child", "-cache-dir", dir, fmt.Sprintf("-short=%t", short))
	cmd.Stderr = os.Stderr
	start := time.Now()
	raw, err := cmd.Output()
	if err != nil {
		fatal("persist: child failed: %v", err)
	}
	var res childResult
	if err := json.Unmarshal(raw, &res); err != nil {
		fatal("persist: child result: %v", err)
	}
	res.WallNs = int64(time.Since(start))
	if res.Ns == 0 || len(res.Verdicts) == 0 {
		fatal("persist: child produced no measurements")
	}
	return res
}

// persistLane writes BENCH_7.json: two child sweeps over one fresh cache
// directory, cold then warm. The warm process must reproduce the cold
// verdicts byte for byte, which fails even without check; check also
// requires the warm sweep to be strictly faster with non-zero disk hits.
func persistLane(a laneArgs) {
	// A fresh directory (under -cache-dir when given, the system temp dir
	// otherwise) guarantees the first child really is cold.
	dir, err := os.MkdirTemp(a.cacheDir, "bench-persist-*")
	if err != nil {
		fatal("persist: %v", err)
	}
	defer os.RemoveAll(dir)
	cold := persistChildExec(dir, a.short)
	warm := persistChildExec(dir, a.short)

	diverge := -1
	for i := range cold.Verdicts {
		if i >= len(warm.Verdicts) || cold.Verdicts[i] != warm.Verdicts[i] {
			diverge = i
			break
		}
	}
	identical := diverge < 0 && len(cold.Verdicts) == len(warm.Verdicts)
	nsRatio := ratio(cold.Ns, warm.Ns)
	report{Benchmark: "BenchmarkPersistentCache", Counts: map[string]any{
		"loops": len(cold.Verdicts), "max_len": persistChildMaxLen, "memoryless": cold.Memoryless,
		"verdicts_identical": identical, "disk_evictions": cold.Evictions + warm.Evictions,
		"cold_disk_hits": cold.DiskHits, "cold_disk_misses": cold.DiskMisses,
		"warm_disk_hits": warm.DiskHits, "warm_disk_misses": warm.DiskMisses,
	}, Metrics: map[string]any{
		"cold_ns": cold.Ns, "warm_ns": warm.Ns, "cold_wall_ns": cold.WallNs, "warm_wall_ns": warm.WallNs,
		"ns_ratio_cold_over_warm": nsRatio,
	}}.write(a.out)

	if !identical {
		if diverge >= 0 && diverge < len(warm.Verdicts) {
			fmt.Fprintf(os.Stderr, "persist: first divergence:\n  cold: %s\n  warm: %s\n",
				cold.Verdicts[diverge], warm.Verdicts[diverge])
		}
		fatal("persist check failed: warm verdicts differ from cold (%d vs %d loops)",
			len(cold.Verdicts), len(warm.Verdicts))
	}
	if a.check {
		if warm.Ns >= cold.Ns {
			fatal("persist check failed: warm sweep (%v) not faster than cold (%v)",
				time.Duration(warm.Ns), time.Duration(cold.Ns))
		}
		if warm.DiskHits == 0 {
			fatal("persist check failed: warm process recorded zero disk hits")
		}
		fmt.Printf("persist check ok: cold/warm = %.2fx over %d loops, warm disk hits %d\n",
			nsRatio, len(cold.Verdicts), warm.DiskHits)
	}
}

func ratio(num, den int64) float64 {
	if den == 0 {
		if num == 0 {
			return 1
		}
		return float64(num) // the denominator was eliminated entirely
	}
	return float64(num) / float64(den)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(1)
}
