package main

import "stringloops/internal/obs"

// metricDef declares one reported metric; BENCHMARK.json at the repository
// root declares the same names, units and directions (the tests hold the
// two lists equal).
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics of an untraced run, per workload. Each is a
// median over the run's passes.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},      // child start to first item: exec, corpus, lowering, server start
	{"wall_s", "s", "lower"},       // one full pass over the workload's items
	{"item_p50_ms", "ms", "lower"}, // median item latency within a pass
	{"item_p90_ms", "ms", "lower"}, // 90th-percentile item latency within a pass
	{"peak_rss_mb", "MB", "lower"}, // the pass process's peak resident set
}

// perLayer are the metrics of a traced run, per workload: medians over the
// traced passes. Counters a workload does not reach read 0.
var perLayer = []metricDef{
	{"cegis.new_s", "s", "lower"},
	{"cegis.search_s", "s", "lower"},
	{"cegis.skeletons", "count", "lower"},
	{"cegis.candidates", "count", "lower"},
	{"cegis.arg_solver_calls", "count", "lower"},
	{"cegis.verify_queries", "count", "lower"},
	{"cegis.counterexamples", "count", "lower"},

	{"symex.run_s", "s", "lower"},
	{"symex.runs", "count", "lower"},
	{"symex.forks", "count", "lower"},
	{"symex.paths", "count", "lower"},
	{"symex.steps", "count", "lower"},
	{"symex.solver_queries", "count", "lower"},

	{"kleebench.vanilla_s", "s", "lower"},
	{"kleebench.str_s", "s", "lower"},
	{"kleebench.vanilla_tests", "count", "higher"},
	{"kleebench.str_tests", "count", "higher"},

	{"qcache.queries", "count", "lower"},
	{"qcache.hits", "count", "higher"},
	{"qcache.misses", "count", "lower"},
	{"qcache.hit_rate", "1", "higher"},
	{"qcache.groups", "count", "lower"},
	{"qcache.rebuilds", "count", "lower"},
	{"qcache.solve_s", "s", "lower"},

	{"sat.conflicts", "count", "lower"},
	{"sat.propagations", "count", "lower"},
	{"sat.decisions", "count", "lower"},

	{"memoryless.verify_s", "s", "lower"},
	{"memoryless.verified", "count", "higher"},

	{"service.server_s", "s", "lower"},
	{"service.queue_s", "s", "lower"},
	{"service.transport_s", "s", "lower"},
	{"service.attempts", "count", "lower"},
	{"service.rung.full", "count", "higher"},
	{"service.rung.memoryless", "count", "lower"},

	{"bv.nodes", "count", "lower"},
	{"bv.simplify_calls", "count", "lower"},
	{"bv.simplify_nodes_in", "count", "lower"},
	{"bv.simplify_nodes_out", "count", "lower"},
	{"bv.vn_hits", "count", "higher"},
	{"bv.blast_hits", "count", "higher"},
	{"bv.ite_fusions", "count", "higher"},

	{"runtime.alloc_mb", "MB", "lower"},
	{"runtime.gc_cycles", "count", "lower"},

	{"cpu.vocab_pct", "%", "lower"},
	{"cpu.strsolver_pct", "%", "lower"},
	{"cpu.cir_pct", "%", "lower"},
	{"cpu.cegis_pct", "%", "lower"},
	{"cpu.symex_pct", "%", "lower"},
	{"cpu.qcache_pct", "%", "lower"},
	{"cpu.sat_pct", "%", "lower"},
	{"cpu.service_pct", "%", "lower"},
	{"cpu.bv_pct", "%", "lower"},
	{"cpu.gc_pct", "%", "lower"},
	{"cpu.other_pct", "%", "lower"},

	{"cc.parse_s", "s", "lower"},
	{"cir.lower_s", "s", "lower"},

	{"trace.overhead_pct", "%", "lower"},
}

// spanLayers maps span names to the per-layer time metric their self time
// (span minus child spans) is charged to: the benchmark's own spans around
// each public call, and the phase spans the library records inside them.
var spanLayers = map[string]string{
	"cc/parse":          "cc.parse_s",
	"phase/parse":       "cc.parse_s",
	"cir/lower":         "cir.lower_s",
	"phase/lower":       "cir.lower_s",
	"cegis/new":         "cegis.new_s",
	"cegis/synthesize":  "cegis.search_s",
	"phase/cegis":       "cegis.search_s",
	"phase/symex":       "symex.run_s",
	"kleebench/vanilla": "kleebench.vanilla_s",
	"kleebench/str":     "kleebench.str_s",
	"memoryless/verify": "memoryless.verify_s",
	"phase/memoryless":  "memoryless.verify_s",
}

// registryCounters are the library's own counters, reported under their
// registry names.
var registryCounters = []string{
	obs.MCegisSkeletons, obs.MCegisCandidates, obs.MCegisArgSolves,
	obs.MCegisVerifies, obs.MCegisCexs,
	obs.MSymexRuns, obs.MSymexForks, obs.MSymexPaths, obs.MSymexSteps, obs.MSymexQueries,
	obs.MQCacheQueries, obs.MQCacheHits, obs.MQCacheMisses, obs.MQCacheGroups, obs.MQCacheRebuilds,
	obs.MSatConflicts, obs.MSatPropagations, obs.MSatDecisions,
	obs.MBVNodes, obs.MBVSimplifyCalls, obs.MBVSimplifyNodesIn, obs.MBVSimplifyNodesOut,
	obs.MBVVNHits, obs.MBVBlastHits, obs.MBVIteFusions,
}
