// Package cliflags declares the flags shared by every cmd/ driver once, so
// the surface stays consistent: -j always means the same worker semantics,
// -resilient always names the degradation ladder, -qcache always routes
// queries through internal/qcache, -merge/-cache-dir/-cache-max-bytes
// always build the same symex.Config, and the observability flags
// (-trace/-flame/-metrics/-report/-report-json/-pprof) come from one
// registration in internal/obs.
package cliflags

import (
	"flag"

	"stringloops/internal/diskcache"
	"stringloops/internal/symex"
)

// Jobs declares the canonical -j flag. The value feeds engine.Workers:
// values below 1 mean one worker per CPU.
func Jobs(def int) *int {
	return flag.Int("j", def, "parallel workers (<1 = one per CPU)")
}

// Resilient declares the canonical -resilient flag.
func Resilient() *bool {
	return flag.Bool("resilient", false,
		"degrade gracefully through the supervision ladder (summary, memorylessness, covering inputs, smoke run) instead of failing outright")
}

// QCache declares the canonical -qcache flag.
func QCache() *bool {
	return flag.Bool("qcache", false,
		"route solver queries through the query-cache chain (independence slicing, reuse cache, incremental solver)")
}

// PipelineFlags holds the pipeline flags until Open reads them.
type PipelineFlags struct {
	Merge         *bool
	CacheDir      *string
	CacheMaxBytes *int64
}

// Pipeline declares -merge, -cache-dir and -cache-max-bytes, the flags of
// symex.Config. Call Open after flag.Parse.
func Pipeline() *PipelineFlags {
	return &PipelineFlags{
		Merge: flag.Bool("merge", false,
			"merge symbolic-execution states at control-flow join points (ite values, disjoined path conditions) instead of enumerating every path suffix"),
		CacheDir: flag.String("cache-dir", "",
			"directory for the persistent cache tier (solver counterexamples and whole-loop summary memos, shared across runs and processes); empty = off"),
		CacheMaxBytes: flag.Int64("cache-max-bytes", 0,
			"byte budget per persistent cache store (evicts least-recently-used records past it); 0 = entry-count cap only"),
	}
}

// Open opens the -cache-dir tier and returns the pipeline config the flags
// describe, plus the close that persists the tier (a no-op without
// -cache-dir).
func (p *PipelineFlags) Open() (symex.Config, func() error, error) {
	tier, err := diskcache.OpenSized(*p.CacheDir, *p.CacheMaxBytes, nil)
	if err != nil {
		return symex.Config{}, nil, err
	}
	return symex.Config{Merge: *p.Merge, Disk: tier}, tier.Close, nil
}

// Server declares the canonical -server flag: the address of a running
// loopsumd daemon. When set, the driver POSTs work to the daemon (with
// capped-backoff retries honoring Retry-After) instead of running the
// pipeline in-process, so the CLI and the daemon share one front door.
func Server() *string {
	return flag.String("server", "",
		"address of a running loopsumd daemon (e.g. http://localhost:8419); empty = summarise in-process")
}

// Explain declares the canonical -explain flag: with -server, ask the
// daemon for the verdict's provenance record (chosen rung and the overload
// inputs behind it, per-phase budget spend, cache/memo hit counts) and
// render it after the verdict.
func Explain() *bool {
	return flag.Bool("explain", false,
		"with -server: request and print the verdict's provenance (rung decision inputs, per-attempt budget spend, cache hits)")
}
