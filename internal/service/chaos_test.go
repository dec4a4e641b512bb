package service

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"stringloops/internal/core"
	"stringloops/internal/diskcache"
	"stringloops/internal/faultpoint"
	"stringloops/internal/leakcheck"
	"stringloops/internal/loopdb"
	"stringloops/internal/obs"
	"stringloops/internal/symex"
)

// TestServerChaosSoak is the daemon's end-to-end chaos gate: a seeded
// multi-client soak with the HTTP-layer faultpoints (ServerAdmit,
// ServerEncode) and the persistent-cache faultpoint (DiskCacheIO) armed.
// Clients ride the retrying service.Client, so every injected shed is
// eventually absorbed — and the verdict of every completed request must
// be bit-identical to an offline core.SummarizeResilient run of the same
// loop, at any worker count. The overload policy is disabled and the
// start rung pinned so server and offline ladders are the same ladder;
// faults may only shed or delay requests, never change answers.
func TestServerChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak in -short mode")
	}
	loops := loopdb.Corpus()[:6]

	// Offline ground truth: the exact ladder configuration the server runs.
	offline := make(map[string]string, len(loops))
	for _, l := range loops {
		out := core.SummarizeResilient(l.Source, l.FuncName, core.ResilientOptions{
			Options:     core.Options{Timeout: 30 * time.Second},
			StartRung:   core.RungMemoryless,
			MaxAttempts: maxAttempts,
			Metrics:     obs.NewMetrics(),
		})
		if out.Rung == core.RungFailed {
			t.Fatalf("offline ladder failed on %s: %v", l.Name, out.Err)
		}
		offline[l.Name] = fromOutcome(out, core.RungMemoryless).VerdictKey()
	}

	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			reg := faultpoint.New(faultpoint.Config{
				Seed: 0xC0FFEE + uint64(workers),
				Rates: map[faultpoint.Site]float64{
					faultpoint.ServerAdmit:  0.15,
					faultpoint.ServerEncode: 0.15,
					faultpoint.DiskCacheIO:  0.10,
				},
			})
			tier, err := diskcache.OpenSized(t.TempDir(), 0, reg)
			if err != nil {
				t.Fatal(err)
			}
			m := obs.NewMetrics()
			s := New(Config{
				MaxInFlight: workers,
				QueueDepth:  64,
				StartRung:   core.RungMemoryless,
				Overload:    OverloadPolicy{Disable: true},
				Pipeline:    symex.Config{Disk: tier},
				Faults:      reg,
				Metrics:     m,
			})
			ts := httptest.NewServer(s.Handler())
			hc := &http.Client{Transport: &http.Transport{}}

			const clients, rounds = 3, 2
			var wg sync.WaitGroup
			errs := make(chan error, clients*rounds*len(loops))
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					cl := &Client{
						Base:       ts.URL,
						HTTP:       hc,
						MaxRetries: 10,
						Seed:       uint64(c + 1),
						ClientID:   fmt.Sprintf("soak-%d", c),
						Sleep: func(ctx context.Context, d time.Duration) error {
							// Honor the schedule's shape without the wall time.
							if d > 5*time.Millisecond {
								d = 5 * time.Millisecond
							}
							time.Sleep(d)
							return nil
						},
					}
					for r := 0; r < rounds; r++ {
						for _, l := range loops {
							resp, err := cl.Summarize(context.Background(),
								Request{Source: l.Source, Func: l.FuncName})
							if err != nil {
								errs <- fmt.Errorf("client %d %s: %w", c, l.Name, err)
								continue
							}
							if got, want := resp.VerdictKey(), offline[l.Name]; got != want {
								errs <- fmt.Errorf("client %d %s: verdict drift under faults\n server: %s\noffline: %s",
									c, l.Name, got, want)
							}
						}
					}
				}(c)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}

			if reg.TotalFired() == 0 {
				t.Error("soak ran with zero injected faults: the schedule tested nothing")
			}
			if got := m.Counter(MSvcReconcileDrift).Value(); got != 0 {
				t.Errorf("reconcile drift = %d under faults, want 0", got)
			}

			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			// DiskCacheIO may legitimately fail the drain's cache flush; that
			// degrades to an unsaved snapshot, never a hung drain.
			if err := s.Drain(ctx); err != nil && reg.Fired(faultpoint.DiskCacheIO) == 0 {
				t.Fatalf("drain: %v", err)
			}
			if got := s.adm.inFlight(); got != 0 {
				t.Errorf("in-flight = %d after drain, want 0", got)
			}
			ts.Close()
			hc.CloseIdleConnections()
			leakcheck.Check(t)
		})
	}
}
