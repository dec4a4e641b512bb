package diskcache

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"stringloops/internal/engine"
	"stringloops/internal/faultpoint"
)

func newBudget() *engine.Budget {
	return engine.NewBudget(nil, engine.Limits{})
}

func TestPutGetRoundTrip(t *testing.T) {
	s := NewStoreSized("", 0, nil)
	b := newBudget()
	if _, ok := s.Get(b, "k"); ok {
		t.Fatal("empty store must miss")
	}
	s.Put(b, "k", []byte("v"))
	v, ok := s.Get(b, "k")
	if !ok || string(v) != "v" {
		t.Fatalf("Get = %q, %v", v, ok)
	}
	if b.Count(engine.DiskHits) != 1 || b.Count(engine.DiskMisses) != 1 {
		t.Fatalf("budget hits=%d misses=%d", b.Count(engine.DiskHits), b.Count(engine.DiskMisses))
	}
}

func TestNilStoreIsPassThrough(t *testing.T) {
	var s *Store
	b := newBudget()
	if _, ok := s.Get(b, "k"); ok {
		t.Fatal("nil store must miss")
	}
	s.Put(b, "k", []byte("v"))
	if s.Len() != 0 {
		t.Fatal("nil store holds nothing")
	}
	ran := false
	v, ok := s.Do(b, "k", func() ([]byte, bool) { ran = true; return []byte("x"), true })
	if !ran || !ok || string(v) != "x" {
		t.Fatal("nil Do must compute")
	}
	s.Load()
	if err := s.Save(); err != nil {
		t.Fatal(err)
	}
	if b.Count(engine.DiskHits) != 0 || b.Count(engine.DiskMisses) != 0 || b.Count(engine.DiskEvictions) != 0 {
		t.Fatal("nil store must not charge the budget")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "q.cache")
	s := NewStoreSized(path, 0, nil)
	b := newBudget()
	want := map[string]string{}
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("key%03d", i)
		v := fmt.Sprintf("value with spaces and\nnewlines %d", i)
		want[k] = v
		s.Put(b, k, []byte(v))
	}
	if err := s.Save(); err != nil {
		t.Fatal(err)
	}

	warm := NewStoreSized(path, 0, nil)
	warm.Load()
	if warm.Len() != len(want) {
		t.Fatalf("warm store has %d entries, want %d", warm.Len(), len(want))
	}
	for k, v := range want {
		got, ok := warm.Get(b, k)
		if !ok || string(got) != v {
			t.Fatalf("warm Get(%q) = %q, %v", k, got, ok)
		}
	}
}

func TestSaveIsDeterministic(t *testing.T) {
	dir := t.TempDir()
	b := newBudget()
	var files [2]string
	for i := range files {
		path := filepath.Join(dir, fmt.Sprintf("s%d.cache", i))
		s := NewStoreSized(path, 0, nil)
		// Insert in different orders; the snapshot sorts by key.
		for j := 0; j < 50; j++ {
			k := j
			if i == 1 {
				k = 49 - j
			}
			s.Put(b, fmt.Sprintf("k%02d", k), []byte(fmt.Sprintf("v%d", k)))
		}
		if err := s.Save(); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		files[i] = string(raw)
	}
	if files[0] != files[1] {
		t.Fatal("identical contents must snapshot to identical files")
	}
}

// TestCorruptFileColdStart covers the failure modes of a shared cache file:
// truncation mid-record, flipped bytes, garbage, and a concurrent writer's
// torn tail. Every case must load the valid prefix (or nothing) and never
// error — a bad file is a cold start, not a wrong answer.
func TestCorruptFileColdStart(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "q.cache")
	s := NewStoreSized(path, 0, nil)
	b := newBudget()
	for i := 0; i < 10; i++ {
		s.Put(b, fmt.Sprintf("key%d", i), []byte(fmt.Sprintf("val%d", i)))
	}
	if err := s.Save(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(raw), "\n")
	if lines[len(lines)-1] == "" {
		lines = lines[:len(lines)-1]
	}
	if len(lines) != 10 {
		t.Fatalf("expected 10 records, got %d", len(lines))
	}

	cases := map[string]struct {
		contents string
		atLeast  int // entries the valid prefix must retain
		atMost   int
	}{
		"empty file":        {"", 0, 0},
		"pure garbage":      {"this is not a cache file\n", 0, 0},
		"truncated record":  {strings.Join(lines[:5], "") + lines[5][:len(lines[5])/2], 5, 5},
		"flipped crc byte":  {flipByte(strings.Join(lines, ""), len(lines[0])+5), 1, 1},
		"flipped val byte":  {flipByte(strings.Join(lines, ""), len(lines[0])-3), 0, 0},
		"wrong version":     {"dq9" + strings.Join(lines, "")[3:], 0, 0},
		"torn second write": {strings.Join(lines, "") + "dq1 zzzz torn\n" + strings.Join(lines, ""), 10, 10},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			p := filepath.Join(dir, "case.cache")
			if err := os.WriteFile(p, []byte(tc.contents), 0o644); err != nil {
				t.Fatal(err)
			}
			cold := NewStoreSized(p, 0, nil)
			cold.Load()
			if n := cold.Len(); n < tc.atLeast || n > tc.atMost {
				t.Fatalf("loaded %d entries, want [%d, %d]", n, tc.atLeast, tc.atMost)
			}
		})
	}

	t.Run("missing file", func(t *testing.T) {
		cold := NewStoreSized(filepath.Join(dir, "nonexistent.cache"), 0, nil)
		cold.Load()
		if cold.Len() != 0 {
			t.Fatal("missing file must load nothing")
		}
	})
}

func flipByte(s string, i int) string {
	b := []byte(s)
	b[i] ^= 0x40
	return string(b)
}

// boundedStore is a memory-only store holding at most maxEntries records.
func boundedStore(maxEntries int) *Store {
	s := NewStoreSized("", 0, nil)
	s.maxEntries = maxEntries
	return s
}

func TestEvictionRespectsBound(t *testing.T) {
	const max = 64 // 4 per shard
	s := boundedStore(max)
	b := newBudget()
	for i := 0; i < 10*max; i++ {
		s.Put(b, fmt.Sprintf("key-%d", i), []byte("v"))
	}
	if n := s.Len(); n > max {
		t.Fatalf("store holds %d entries, bound is %d", n, max)
	}
	if b.Count(engine.DiskEvictions) == 0 {
		t.Fatal("evictions must be charged to the budget")
	}
	// Overwrites of a live key must not evict.
	before := s.Len()
	evBefore := b.Count(engine.DiskEvictions)
	s.Put(b, "key-1", []byte("v2"))
	s.Put(b, "key-1", []byte("v3"))
	if s.Len() > before+1 || b.Count(engine.DiskEvictions) > evBefore+1 {
		t.Fatal("overwrites must not grow or evict beyond one insert")
	}
}

func TestEvictionPrefersLeastRecentlyAccessed(t *testing.T) {
	s := boundedStore(shards) // bound of 1 per shard
	b := newBudget()
	// Find two keys in the same shard.
	sh := s.shardFor("a0")
	var second string
	for i := 1; i < 1000; i++ {
		k := fmt.Sprintf("a%d", i)
		if s.shardFor(k) == sh {
			second = k
			break
		}
	}
	if second == "" {
		t.Fatal("no shard collision found")
	}
	s.Put(b, "a0", []byte("old"))
	s.Put(b, second, []byte("new")) // evicts a0, the only other resident
	if _, ok := s.Get(b, "a0"); ok {
		t.Fatal("least-recently-accessed key must be evicted")
	}
	if v, ok := s.Get(b, second); !ok || string(v) != "new" {
		t.Fatal("newest key must survive")
	}
}

func TestDoSingleflight(t *testing.T) {
	s := NewStoreSized("", 0, nil)
	b := newBudget()
	const workers = 16
	var computes int32
	var mu sync.Mutex
	release := make(chan struct{})
	var wg sync.WaitGroup
	results := make([]string, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, ok := s.Do(b, "shared", func() ([]byte, bool) {
				mu.Lock()
				computes++
				mu.Unlock()
				<-release
				return []byte("computed"), true
			})
			if !ok {
				t.Error("Do must succeed")
			}
			results[i] = string(v)
		}(i)
	}
	// Let every worker reach Do before releasing the one compute.
	for {
		mu.Lock()
		n := computes
		mu.Unlock()
		if n >= 1 {
			break
		}
	}
	close(release)
	wg.Wait()
	if computes != 1 {
		t.Fatalf("%d computes, want 1 (singleflight)", computes)
	}
	for _, r := range results {
		if r != "computed" {
			t.Fatalf("worker saw %q", r)
		}
	}
	if v, ok := s.Get(b, "shared"); !ok || string(v) != "computed" {
		t.Fatal("result must be cached")
	}
}

func TestDoNotCachedOnFailure(t *testing.T) {
	s := NewStoreSized("", 0, nil)
	b := newBudget()
	calls := 0
	for i := 0; i < 3; i++ {
		_, ok := s.Do(b, "k", func() ([]byte, bool) { calls++; return nil, false })
		if ok {
			t.Fatal("failed compute must report ok=false")
		}
	}
	if calls != 3 {
		t.Fatalf("failed computes must not cache: %d calls, want 3", calls)
	}
	if s.Len() != 0 {
		t.Fatal("store must stay empty")
	}
}

// TestDoWaiterLeavesOnCancel: a caller waiting on another caller's flight
// leaves as soon as its own budget's context ends, reporting not-ok; the
// leader finishes untouched, stores its result, and no flight is left.
func TestDoWaiterLeavesOnCancel(t *testing.T) {
	s := NewStoreSized("", 0, nil)
	release := make(chan struct{})
	entered := make(chan struct{})
	leader := make(chan string, 1)
	go func() {
		v, _ := s.Do(newBudget(), "k", func() ([]byte, bool) {
			close(entered)
			<-release
			return []byte("leader"), true
		})
		leader <- string(v)
	}()
	<-entered

	ctx, cancel := context.WithCancel(context.Background())
	waiter := make(chan bool, 1)
	go func() {
		_, ok := s.Do(engine.NewBudget(ctx, engine.Limits{}), "k", func() ([]byte, bool) {
			t.Error("a waiter must not compute while the flight runs")
			return nil, false
		})
		waiter <- ok
	}()
	cancel()
	select {
	case ok := <-waiter:
		if ok {
			t.Error("a cancelled waiter must report not-ok")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled waiter stayed parked on the flight")
	}

	close(release)
	if got := <-leader; got != "leader" {
		t.Fatalf("leader got %q", got)
	}
	if got := s.InFlight(); got != 0 {
		t.Fatalf("InFlight = %d after every caller returned, want 0", got)
	}
	if v, ok := s.Get(newBudget(), "k"); !ok || string(v) != "leader" {
		t.Fatal("the leader's result must be stored")
	}
}

// TestDoFaultTaintedNotStored: a result computed while a fault of the
// store's registry fired is returned but neither stored nor shared, and the
// next Do computes again.
func TestDoFaultTaintedNotStored(t *testing.T) {
	reg := faultpoint.New(faultpoint.Config{Seed: 1, Rates: map[faultpoint.Site]float64{faultpoint.CegisReject: 1}})
	s := NewStoreSized("", 0, reg)
	b := newBudget()
	v, ok := s.Do(b, "k", func() ([]byte, bool) {
		reg.Fire(faultpoint.CegisReject)
		return []byte("tainted"), true
	})
	if ok || string(v) != "tainted" {
		t.Fatalf("tainted compute: Do = %q, %v, want the live value, not-ok", v, ok)
	}
	if s.Len() != 0 {
		t.Fatal("a fault-tainted result must not be stored")
	}
	v, ok = s.Do(b, "k", func() ([]byte, bool) { return []byte("clean"), true })
	if !ok || string(v) != "clean" {
		t.Fatalf("clean recompute: Do = %q, %v", v, ok)
	}
	if v, ok := s.Get(b, "k"); !ok || string(v) != "clean" {
		t.Fatal("the fault-free result must be stored")
	}
}

// TestDoPanicReleasesFlight pins the recovery contract the supervised
// pipelines rely on: a panic inside fn must deregister the flight (so a
// retry of the same key computes instead of parking on a channel nobody
// closes) and release any waiters with a failed-compute result. The chaos
// soak found the original leak — an injected symex panic unwound past Do and
// the retry deadlocked.
func TestDoPanicReleasesFlight(t *testing.T) {
	s := NewStoreSized("", 0, nil)
	b := newBudget()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic must propagate out of Do")
			}
		}()
		s.Do(b, "k", func() ([]byte, bool) { panic("injected") })
	}()
	done := make(chan struct{})
	go func() {
		defer close(done)
		v, ok := s.Do(b, "k", func() ([]byte, bool) { return []byte("v"), true })
		if !ok || string(v) != "v" {
			t.Errorf("retry after panic: Do = %q, %v, want recompute", v, ok)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("retry of a panicked key deadlocked on the leaked flight")
	}
}

// TestFaultInjection exercises the DiskCacheIO site: a firing load is a cold
// start, a firing save leaves the previous snapshot untouched.
func TestFaultInjection(t *testing.T) {
	path := filepath.Join(t.TempDir(), "q.cache")
	b := newBudget()
	s := NewStoreSized(path, 0, nil)
	s.Put(b, "k", []byte("v"))
	if err := s.Save(); err != nil {
		t.Fatal(err)
	}

	always := faultpoint.New(faultpoint.Config{Seed: 1, Rates: map[faultpoint.Site]float64{faultpoint.DiskCacheIO: 1}})
	faulty := NewStoreSized(path, 0, always)
	faulty.Load()
	if faulty.Len() != 0 {
		t.Fatal("injected load fault must cold-start")
	}
	faulty.Put(b, "other", []byte("x"))
	if err := faulty.Save(); err != nil {
		t.Fatal(err)
	}
	// The save was skipped: the file still holds the original snapshot.
	fresh := NewStoreSized(path, 0, nil)
	fresh.Load()
	if v, ok := fresh.Get(b, "k"); !ok || string(v) != "v" {
		t.Fatal("skipped save must leave the previous snapshot intact")
	}
}

func TestTierOpenClose(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	b := newBudget()

	nilTier, err := OpenSized("", 0, nil)
	if err != nil || nilTier != nil {
		t.Fatalf("empty dir must be the disabled tier, got %v, %v", nilTier, err)
	}
	if nilTier.QueryStore() != nil || nilTier.MemoStore() != nil {
		t.Fatal("disabled tier hands out nil stores")
	}
	if err := nilTier.Close(); err != nil {
		t.Fatal(err)
	}

	tier, err := OpenSized(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	tier.QueryStore().Put(b, "q", []byte("qv"))
	tier.MemoStore().Put(b, "m", []byte("mv"))
	if err := tier.Close(); err != nil {
		t.Fatal(err)
	}

	warm, err := OpenSized(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := warm.QueryStore().Get(b, "q"); !ok || string(v) != "qv" {
		t.Fatal("query store must warm-start")
	}
	if v, ok := warm.MemoStore().Get(b, "m"); !ok || string(v) != "mv" {
		t.Fatal("memo store must warm-start")
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := boundedStore(1 << 10)
	b := newBudget()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("k%d", i%100)
				s.Put(b, k, []byte{byte(w)})
				s.Get(b, k)
			}
		}(w)
	}
	wg.Wait()
	if s.Len() > 100 {
		t.Fatalf("store holds %d entries, want <= 100", s.Len())
	}
}
