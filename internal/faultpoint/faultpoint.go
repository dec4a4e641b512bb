// Package faultpoint is a deterministic, seeded fault-injection registry for
// the solver stack. Each layer of the pipeline exposes named *sites* —
// places where a production deployment can genuinely fail or degrade
// (a SAT query giving up, the expression DAG hitting its node budget, a
// cache-miss storm, a symbolic-execution fork failing, a candidate being
// spuriously rejected) — and consults the registry before proceeding. A
// firing site forces the degraded outcome through the layer's ordinary
// error path, so fault injection exercises exactly the code real
// exhaustion exercises, never a parallel test-only path.
//
// Determinism is the core contract: whether the n-th consultation of a
// site fires is a pure function of (seed, site, n). Each site keeps its
// own call counter, so a pipeline that runs single-threaded (the
// per-item discipline of the corpus drivers: one interner, one cache,
// one registry per item) replays bit-identically from the seed alone —
// the chaos soak asserts this by running every schedule twice.
//
// A nil *Registry is the disabled state and is safe on every method: the
// hot paths pay one pointer comparison and no atomics, so production
// runs with faults off are unaffected. Enabled registries are safe for
// concurrent use (counters are atomics), but cross-goroutine schedules
// are only deterministic per goroutine-confined registry.
package faultpoint

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// Site names one injection point in the solver stack.
type Site uint8

// The site inventory. See DESIGN.md §9 for what each one forces.
const (
	// SatUnknown forces sat.Solver.SolveAssuming to give up with Unknown,
	// as if the CDCL search had exhausted its conflict budget.
	SatUnknown Site = iota
	// SatConflictStorm charges a burst of conflicts to the solver's shared
	// budget before the search starts, accelerating budget exhaustion.
	SatConflictStorm
	// BVNodeExhaust fails the interner's budget as if the expression DAG
	// had hit its interned-node limit.
	BVNodeExhaust
	// QCacheMiss makes the query cache skip its reuse rules for one group,
	// forcing the query to the SAT solver (a miss storm under load).
	QCacheMiss
	// SymexForkFail aborts a symbolic-execution run at a fork, surfacing
	// as the engine's budget-exhaustion error.
	SymexForkFail
	// SymexPanic panics inside the symbolic executor with an
	// InjectedPanic value — the poison-pill used to prove per-item panic
	// isolation in the batch drivers.
	SymexPanic
	// CegisReject rejects a candidate skeleton outright, simulating a
	// burst of spurious verifier rejections.
	CegisReject
	// DiskCacheIO fails a persistent-cache file operation (load or save),
	// simulating a torn disk, a full filesystem, or a corrupted cache file.
	// A firing degrades to a cold start or an unsaved cache — never a wrong
	// answer — so the site is skip-safe.
	DiskCacheIO
	// ServerAdmit fails the service daemon's admission step for one request,
	// as if the admission queue had been poisoned by a transient overload
	// spike. The request is shed with a clean retryable response — never a
	// half-processed pipeline — so the site is skip-safe.
	ServerAdmit
	// ServerEncode fails the service daemon's response encoding for one
	// request, simulating a write error on the client connection. The
	// request's pipeline work is complete (and cached where applicable);
	// only the response is lost, so a client retry is cheap.
	ServerEncode

	numSites
)

var siteNames = [numSites]string{
	SatUnknown:       "sat.unknown",
	SatConflictStorm: "sat.conflict-storm",
	BVNodeExhaust:    "bv.node-exhaust",
	QCacheMiss:       "qcache.miss",
	SymexForkFail:    "symex.fork-fail",
	SymexPanic:       "symex.panic",
	CegisReject:      "cegis.reject",
	DiskCacheIO:      "diskcache.io",
	ServerAdmit:      "server.admit",
	ServerEncode:     "server.encode",
}

// Sites lists every defined site, in declaration order.
func Sites() []Site {
	out := make([]Site, numSites)
	for i := range out {
		out[i] = Site(i)
	}
	return out
}

func (s Site) String() string {
	if int(s) < len(siteNames) {
		return siteNames[s]
	}
	return fmt.Sprintf("faultpoint.Site(%d)", uint8(s))
}

// ErrInjected is wrapped by every error a firing site forces, so callers
// (and the chaos soak) can tell injected degradation from organic
// exhaustion with errors.Is.
var ErrInjected = errors.New("faultpoint: injected fault")

// InjectedPanic is the value thrown by the SymexPanic site. The
// supervisor recovers it like any other panic; tests type-assert on it
// to prove the recovered panic is the injected one.
type InjectedPanic struct {
	Site Site
	// Seq is the firing site's call ordinal, for reproduction.
	Seq uint64
}

func (p InjectedPanic) String() string {
	return fmt.Sprintf("faultpoint: injected panic at %s (call %d)", p.Site, p.Seq)
}

// Config configures a registry.
type Config struct {
	// Seed determines the entire fault schedule.
	Seed uint64
	// Rates maps each site to its per-consultation firing probability in
	// [0, 1]. Absent sites never fire.
	Rates map[Site]float64
}

// Registry is one seeded fault schedule. The zero value never fires;
// nil is the canonical disabled registry.
type Registry struct {
	seed      uint64
	threshold [numSites]uint64 // fire when hash < threshold
	calls     [numSites]atomic.Uint64
	fired     [numSites]atomic.Uint64
}

// New builds a registry from cfg. Rates are clamped to [0, 1]; a rate of
// 1 fires on every consultation.
func New(cfg Config) *Registry {
	r := &Registry{seed: cfg.Seed}
	for site, rate := range cfg.Rates {
		if int(site) >= int(numSites) {
			continue
		}
		if rate <= 0 {
			continue
		}
		if rate >= 1 {
			r.threshold[site] = ^uint64(0)
			continue
		}
		r.threshold[site] = uint64(rate * float64(1<<63) * 2)
	}
	return r
}

// splitmix64 is the finalizer of the SplitMix64 generator: a cheap,
// statistically solid 64-bit mix used to turn (seed, site, ordinal) into
// an independent uniform draw.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Fire consults the site and reports whether it fires this call. The
// verdict is a pure function of the registry seed, the site, and the
// site's call ordinal. Fire on a nil registry is false at the cost of
// one comparison.
func (r *Registry) Fire(s Site) bool {
	if r == nil {
		return false
	}
	t := r.threshold[s]
	if t == 0 {
		return false
	}
	n := r.calls[s].Add(1)
	if splitmix64(r.seed^splitmix64(uint64(s)+1)^n) >= t {
		return false
	}
	r.fired[s].Add(1)
	return true
}

// Calls returns how many times the site has been consulted.
func (r *Registry) Calls(s Site) uint64 {
	if r == nil {
		return 0
	}
	return r.calls[s].Load()
}

// Fired returns how many times the site has fired.
func (r *Registry) Fired(s Site) uint64 {
	if r == nil {
		return 0
	}
	return r.fired[s].Load()
}

// TotalFired sums firings across all sites — the quick "did this
// schedule inject anything" check the soak uses.
func (r *Registry) TotalFired() uint64 {
	if r == nil {
		return 0
	}
	var total uint64
	for i := range r.fired {
		total += r.fired[i].Load()
	}
	return total
}
