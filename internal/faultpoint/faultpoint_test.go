package faultpoint

import (
	"math"
	"sync"
	"testing"
)

func TestNilRegistryNeverFires(t *testing.T) {
	var r *Registry
	for _, s := range Sites() {
		for i := 0; i < 100; i++ {
			if r.Fire(s) {
				t.Fatalf("nil registry fired at %s", s)
			}
		}
		if r.Calls(s) != 0 || r.Fired(s) != 0 {
			t.Fatalf("nil registry reports calls/fired at %s", s)
		}
	}
	if r.TotalFired() != 0 {
		t.Fatal("nil registry TotalFired != 0")
	}
}

func TestZeroRateNeverFires(t *testing.T) {
	r := New(Config{Seed: 42})
	for i := 0; i < 1000; i++ {
		if r.Fire(SatUnknown) {
			t.Fatal("zero-rate site fired")
		}
	}
	if r.Calls(SatUnknown) != 0 {
		// Zero-rate sites short-circuit before counting: that keeps the
		// disabled-site path atomics-free.
		t.Fatalf("zero-rate site counted %d calls", r.Calls(SatUnknown))
	}
}

func TestRateOneAlwaysFires(t *testing.T) {
	r := New(Config{Seed: 7, Rates: map[Site]float64{SymexPanic: 1}})
	for i := 0; i < 100; i++ {
		if !r.Fire(SymexPanic) {
			t.Fatalf("rate-1 site did not fire on call %d", i+1)
		}
	}
	if got := r.Fired(SymexPanic); got != 100 {
		t.Fatalf("Fired = %d, want 100", got)
	}
}

func TestDeterministicSchedule(t *testing.T) {
	const n = 5000
	schedule := func(seed uint64) []bool {
		r := uniform(seed, 0.05)
		out := make([]bool, 0, n*int(numSites))
		for i := 0; i < n; i++ {
			for _, s := range Sites() {
				out = append(out, r.Fire(s))
			}
		}
		return out
	}
	a, b := schedule(12345), schedule(12345)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedules diverge at consultation %d", i)
		}
	}
	c := schedule(54321)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestSitesAreDecorrelated(t *testing.T) {
	// The same seed must not make all sites fire in lockstep.
	r := uniform(99, 0.2)
	lockstep := 0
	const n = 2000
	for i := 0; i < n; i++ {
		a := r.Fire(SatUnknown)
		b := r.Fire(QCacheMiss)
		if a == b && a {
			lockstep++
		}
	}
	// Independent 0.2 draws coincide-true about 4% of the time.
	if lockstep > n/5 {
		t.Fatalf("sites fire together %d/%d times — correlated streams", lockstep, n)
	}
}

func TestRateIsApproximatelyHonoured(t *testing.T) {
	const n = 20000
	for _, rate := range []float64{0.01, 0.1, 0.5, 0.9} {
		r := New(Config{Seed: 1, Rates: map[Site]float64{CegisReject: rate}})
		fired := 0
		for i := 0; i < n; i++ {
			if r.Fire(CegisReject) {
				fired++
			}
		}
		got := float64(fired) / n
		if math.Abs(got-rate) > 0.02 {
			t.Errorf("rate %.2f: observed %.4f", rate, got)
		}
	}
}

func TestConcurrentFireIsRaceFree(t *testing.T) {
	r := uniform(3, 0.5)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Fire(SatUnknown)
			}
		}()
	}
	wg.Wait()
	if got := r.Calls(SatUnknown); got != 8000 {
		t.Fatalf("Calls = %d, want 8000", got)
	}
	if r.TotalFired() != r.Fired(SatUnknown) {
		t.Fatal("TotalFired disagrees with per-site count")
	}
}

func TestSiteStrings(t *testing.T) {
	for _, s := range Sites() {
		if s.String() == "" || s.String()[0] == 'f' && s.String() != "faultpoint.Site(255)" && len(s.String()) > 30 {
			t.Fatalf("suspicious site name %q", s)
		}
	}
	if Site(200).String() != "faultpoint.Site(200)" {
		t.Fatalf("out-of-range site name = %q", Site(200))
	}
}

// uniform builds a registry firing every site with the same rate.
func uniform(seed uint64, rate float64) *Registry {
	rates := make(map[Site]float64, numSites)
	for _, s := range Sites() {
		rates[s] = rate
	}
	return New(Config{Seed: seed, Rates: rates})
}
