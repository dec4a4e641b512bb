package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"stringloops/internal/cc"
	"stringloops/internal/cegis"
	"stringloops/internal/cir"
	"stringloops/internal/harness"
	"stringloops/internal/kleebench"
	"stringloops/internal/loopdb"
	"stringloops/internal/memoryless"
	"stringloops/internal/service"
	"stringloops/internal/vocab"
)

// Workload sizes. Each is fixed work, so a pass takes the same work on every
// seed; the seed only permutes the item order.
const (
	// synthMaxSize bounds the encoded program size of the table3 search.
	// With no timeout every search ends in a definite verdict: the 74
	// curated summaries of size <= 5 are found and the other 41 loops are
	// refuted after enumerating every skeleton up to this size, which is
	// where the search spends its time.
	synthMaxSize = 6
	// serveMaxSize is the program size the serve requests ask for. It finds
	// the same 74 summaries as synthMaxSize while refuting in a quarter of
	// the time, which keeps three passes inside a 15-second run; the search
	// itself is table3's to measure.
	serveMaxSize = 5
	// memMaxLen is the bounded-equivalence length of memverify. The
	// small-model theorems of §3 make every length >= 3 give the same
	// verdicts; 5 makes the pass long enough to measure the solver stack
	// rather than process start.
	memMaxLen = 5
	// serveClients is the number of closed-loop clients of serve, one per
	// core of a 2-core machine; the server admits as many requests at once.
	serveClients = 2
)

// figure3Lengths are the symbolic string lengths of figure3: vanilla test
// counts grow about 2.6x per length while str stays flat, and no run hits a
// cap, so every item is complete work.
var figure3Lengths = []int{6, 7}

// workload is one set of inputs the benchmark runs. run does the set-up,
// calls p.ready, then runs every item once.
type workload struct {
	name string
	run  func(p *pass) error
}

var workloads = []workload{
	{"table3", runTable3},
	{"figure3", runFigure3},
	{"memverify", runMemverify},
	{"serve", runServe},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runTable3 is the Table 3 synthesis sweep: every curated loop is parsed,
// lowered and synthesised from scratch.
func runTable3(p *pass) error {
	loops := loopdb.Corpus()
	idx := p.order(len(loops))
	if err := p.ready(); err != nil {
		return err
	}
	for _, i := range idx {
		l := loops[i]
		p.item(l.Name, func() (string, error) { return synthesize(p, l) })
	}
	return nil
}

func synthesize(p *pass, l loopdb.Loop) (string, error) {
	end := span(p.tracer, "cc/parse")
	file, err := cc.Parse(l.Source)
	end()
	if err != nil {
		return "", err
	}
	decl := file.Lookup(l.FuncName)
	if decl == nil {
		return "", fmt.Errorf("function %s not found", l.FuncName)
	}
	end = span(p.tracer, "cir/lower")
	f, err := cir.LowerFunc(decl, file)
	end()
	if err != nil {
		return "", err
	}
	b := p.budget()
	end = span(p.tracer, "cegis/new")
	s, err := cegis.New(f, cegis.Options{MaxProgSize: synthMaxSize, MaxSetLen: 3, MaxExSize: 3, Budget: b})
	end()
	if err != nil {
		return "", err
	}
	end = span(p.tracer, "cegis/synthesize")
	out, err := s.Synthesize()
	end()
	if err != nil {
		return "", err
	}
	p.count("cegis.skeletons", int64(out.Stats.Skeletons))
	p.count("cegis.counterexamples", int64(out.Stats.Counterexamples))
	p.count("sat.conflicts", b.Conflicts())
	if out.Found {
		p.count("found", 1)
		return "found " + out.Program.Encode(), nil
	}
	p.count("refuted", 1)
	return "refuted", nil
}

// runFigure3 is the Figure 3 comparison: each summarised loop is executed
// symbolically as written (vanilla, one test per feasible path) and through
// its ground-truth summary (str), at every length of figure3Lengths.
func runFigure3(p *pass) error {
	type job struct {
		name string
		f    *cir.Func
		sum  vocab.Program
		n    int
	}
	var jobs []job
	for _, l := range harness.SynthesizedCorpus() {
		f, err := l.Lower()
		if err != nil {
			return err
		}
		sum, ok := harness.SummaryFor(l)
		if !ok {
			return fmt.Errorf("%s: no ground-truth summary", l.Name)
		}
		for _, n := range figure3Lengths {
			jobs = append(jobs, job{l.Name, f, sum, n})
		}
	}
	idx := p.order(len(jobs))
	if err := p.ready(); err != nil {
		return err
	}
	for _, i := range idx {
		j := jobs[i]
		p.item(fmt.Sprintf("%s@%d", j.name, j.n), func() (string, error) {
			cfg := kleebench.Config{QCache: true, Ctx: p.ctx}
			end := span(p.tracer, "kleebench/vanilla")
			v := kleebench.VanillaWith(j.f, j.n, 0, cfg)
			end()
			end = span(p.tracer, "kleebench/str")
			s := kleebench.StrWith(j.sum, j.n, 0, cfg)
			end()
			if v.TimedOut || s.TimedOut {
				return "", errors.New("symbolic execution timed out")
			}
			p.count("symex.paths", int64(v.Paths))
			p.count("kleebench.vanilla_tests", int64(v.Tests))
			p.count("kleebench.str_tests", int64(s.Tests))
			p.count(fmt.Sprintf("kleebench.vanilla_tests.n%d", j.n), int64(v.Tests))
			p.count(fmt.Sprintf("kleebench.str_tests.n%d", j.n), int64(s.Tests))
			p.count("sat.conflicts", v.Conflicts+s.Conflicts)
			p.layer("kleebench.vanilla_tests", float64(v.Tests))
			p.layer("kleebench.str_tests", float64(s.Tests))
			return fmt.Sprintf("paths=%d tests=%d str_tests=%d", v.Paths, v.Tests, s.Tests), nil
		})
	}
	return nil
}

// runMemverify is the §3.3 memorylessness verification of every curated
// loop; lowering is set-up.
func runMemverify(p *pass) error {
	loops := loopdb.Corpus()
	funcs := make([]*cir.Func, len(loops))
	for i, l := range loops {
		f, err := l.Lower()
		if err != nil {
			return err
		}
		funcs[i] = f
	}
	idx := p.order(len(loops))
	if err := p.ready(); err != nil {
		return err
	}
	for _, i := range idx {
		f := funcs[i]
		p.item(loops[i].Name, func() (string, error) {
			b := p.budget()
			end := span(p.tracer, "memoryless/verify")
			r := memoryless.VerifyWith(f, memoryless.VerifyOptions{MaxLen: memMaxLen, Budget: b})
			end()
			if r.Err != nil {
				return "", r.Err
			}
			p.count("sat.conflicts", b.Conflicts())
			if r.Memoryless {
				p.count("memoryless", 1)
				p.layer("memoryless.verified", 1)
				return "memoryless", nil
			}
			p.count("refuted", 1)
			return "refuted", nil
		})
	}
	return nil
}

// runServe drives an in-process daemon on loopback with serveClients
// closed-loop clients, each on its own connection. Every curated loop is
// submitted twice, so half the requests repeat an earlier input.
func runServe(p *pass) (err error) {
	loops := loopdb.Corpus()
	reqs := make([]int, 0, 2*len(loops))
	for i := range loops {
		reqs = append(reqs, i, i)
	}
	idx := p.order(len(reqs))

	srv := service.New(service.Config{MaxInFlight: serveClients, Tracer: p.tracer})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	// Teardown is not measured, but the server must stop and drain cleanly.
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		err = errors.Join(err, hs.Shutdown(ctx), srv.Drain(ctx))
		if serr := <-served; !errors.Is(serr, http.ErrServerClosed) {
			err = errors.Join(err, serr)
		}
	}()
	clients := make([]*service.Client, serveClients)
	transports := make([]*http.Transport, serveClients)
	for c := range clients {
		transports[c] = &http.Transport{MaxIdleConnsPerHost: 1}
		clients[c] = &service.Client{
			Base:       "http://" + ln.Addr().String(),
			HTTP:       &http.Client{Transport: transports[c]},
			MaxRetries: -1, // a healthy run needs no retries; a failure must show
			Seed:       uint64(c + 1),
		}
	}
	defer func() {
		for _, t := range transports {
			t.CloseIdleConnections()
		}
	}()
	// Set-up ends with the server answering: one health probe per client.
	for c, cl := range clients {
		resp, err := cl.HTTP.Get(cl.Base + "/healthz")
		if err != nil {
			return fmt.Errorf("client %d: health probe: %w", c, err)
		}
		resp.Body.Close()
	}
	if err := p.ready(); err != nil {
		return err
	}

	var next atomic.Int64
	var wg sync.WaitGroup
	for c, cl := range clients {
		lane := p.tracer.Child(c + 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(idx) {
					return
				}
				l := loops[reqs[idx[k]]]
				p.item(l.Name, func() (string, error) {
					req := service.Request{Source: l.Source, Func: l.FuncName, MaxProgramSize: serveMaxSize, Explain: p.spec.Traced}
					end := span(lane, "service/request")
					t0 := time.Now()
					resp, err := cl.Summarize(context.Background(), req)
					latency := time.Since(t0)
					end()
					if err != nil {
						return "", err
					}
					return serveVerdict(p, resp, latency), nil
				})
			}
		}()
	}
	wg.Wait()
	return nil
}

// serveVerdict books one response and renders the verdict the oracle checks.
func serveVerdict(p *pass, resp *service.Response, latency time.Duration) string {
	p.count("rung."+resp.Rung, 1)
	p.count("service.attempts", int64(resp.Attempts))
	p.layer("service.rung."+resp.Rung, 1)
	p.layer("service.attempts", float64(resp.Attempts))
	p.layer("service.server_s", float64(resp.ElapsedNs)/1e9)
	p.layer("service.queue_s", float64(resp.QueueWaitNs)/1e9)
	p.layer("service.transport_s", (latency.Seconds() - float64(resp.ElapsedNs)/1e9))
	if pv := resp.Provenance; pv != nil {
		// Each request meters into a private registry on the server; its
		// provenance totals are the only route to the spend of serve.
		t := pv.Totals
		for name, v := range map[string]int64{
			"sat.conflicts": t.Conflicts, "sat.propagations": t.Propagations,
			"symex.forks": t.Forks, "bv.nodes": t.Nodes,
			"qcache.hits": t.QCacheHits, "qcache.misses": t.QCacheMisses,
			"bv.vn_hits": t.VNHits, "bv.ite_fusions": t.IteFusions,
			"bv.blast_hits": t.BlastHits, "bv.simplify_calls": t.SimplifyCalls,
		} {
			p.layer(name, float64(v))
		}
	}
	switch {
	case resp.Summary != nil:
		if resp.Summary.Memoryless {
			p.layer("memoryless.verified", 1)
		}
		return fmt.Sprintf("%s %s memoryless=%v", resp.Rung, resp.Summary.Encoded, resp.Summary.Memoryless)
	case resp.Memoryless != nil:
		if resp.Memoryless.Memoryless {
			p.layer("memoryless.verified", 1)
		}
		return fmt.Sprintf("%s memoryless=%v", resp.Rung, resp.Memoryless.Memoryless)
	}
	return resp.Rung
}
