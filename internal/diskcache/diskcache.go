// Package diskcache is the persistent, cross-process cache tier of the
// solver stack: a content-addressed key/value store shared by every pipeline
// in a process and — through an on-disk snapshot — by every process pointed
// at the same -cache-dir. Two stores ride it: the counterexample query cache
// (canonical qcache group keys → solver verdicts) and the summary memo DB
// (canonical cir hashes → whole-pipeline results).
//
// The design follows KLEE's persistent query cache, adapted to this stack's
// discipline:
//
//   - Keys are content addresses (sha256 of a canonical, interner-independent
//     serialization), so any two processes — or two pipelines with different
//     interners in one process — that build the same structural query agree
//     on the key.
//   - The in-memory side is sharded (16 ways) with per-shard mutexes, so the
//     -j concurrent drivers share one store without a global lock, and Do
//     gives get-or-compute singleflight: concurrent identical computations
//     collapse to one.
//   - Persistence is atomic: Save writes a temp file in the cache directory
//     and renames it over the target, so a reader never observes a torn
//     file, and concurrent writers last-write-win a consistent snapshot.
//   - Recovery is corruption-tolerant: every record carries a CRC32, and
//     Load keeps the valid prefix of the file, stopping at the first bad
//     record. A truncated, corrupted, or half-written file means a cold
//     start — never a wrong answer and never an error surfaced to the
//     solver path.
//   - Eviction is bounded and LRU-ish: each shard holds at most
//     maxEntries/shards records and — when a byte budget is set — at most
//     maxBytes/shards of key+value payload; inserting past either bound
//     evicts least-recently-accessed records in that shard until both hold
//     (a global access clock orders recency across shards without
//     cross-shard coordination). A single record larger than a whole
//     shard's byte budget is not cached at all: evicting everything else
//     to make room for it would still not fit.
//
// Hits, misses and evictions are charged to the *engine.Budget passed at
// each call and mirrored into internal/obs, so run reports reconcile disk
// traffic exactly like the in-memory cache layers. All methods are safe on
// a nil *Store (the disabled tier): Get misses, Put discards, Do computes
// without caching.
package diskcache

import (
	"bufio"
	"encoding/base64"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"stringloops/internal/engine"
	"stringloops/internal/faultpoint"
)

const (
	// shards is the in-memory partition count; keys are sha256-derived, so
	// the first key byte distributes uniformly.
	shards = 16
	// maxStoreEntries bounds every store's record count.
	maxStoreEntries = 1 << 16
	// fileVersion guards the on-disk record format; a version bump reads as
	// a cold start, never a misparse.
	fileVersion = "dq1"
)

type entry struct {
	val []byte
	at  int64 // access-clock stamp for LRU-ish eviction
}

type shard struct {
	mu    sync.Mutex
	m     map[string]*entry
	bytes int64 // key+value payload bytes of the live records
}

// Store is one bounded, sharded, persistent key/value cache.
type Store struct {
	path       string
	maxEntries int   // maxStoreEntries; package tests set smaller bounds
	maxBytes   int64 // byte budget across shards; 0 = entry-count cap only
	readOnly   bool  // Save is a no-op: another process owns the snapshot
	faults     *faultpoint.Registry
	clock      atomic.Int64
	sh         [shards]shard

	flightMu sync.Mutex
	flight   map[string]*flight
}

type flight struct {
	done chan struct{}
	val  []byte
	ok   bool
}

// NewStoreSized builds a store backed by the given file path (empty path
// means memory-only: Save is a no-op and Load loads nothing), holding at most
// maxStoreEntries records. When maxBytes > 0, each shard also evicts down to
// maxBytes/shards of key+value payload on every insert; maxBytes <= 0 keeps
// the entry-count cap only. The store starts cold; call Load to warm it.
func NewStoreSized(path string, maxBytes int64, faults *faultpoint.Registry) *Store {
	if maxBytes < 0 {
		maxBytes = 0
	}
	s := &Store{path: path, maxEntries: maxStoreEntries, maxBytes: maxBytes, faults: faults, flight: map[string]*flight{}}
	for i := range s.sh {
		s.sh[i].m = map[string]*entry{}
	}
	return s
}

func (s *Store) shardFor(key string) *shard {
	if len(key) == 0 {
		return &s.sh[0]
	}
	// fnv-1a over the key; keys are hex hashes, so even a cheap mix spreads.
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	return &s.sh[h%shards]
}

// Get looks the key up, charging a disk hit or miss to b.
func (s *Store) Get(b *engine.Budget, key string) ([]byte, bool) {
	if s == nil {
		return nil, false
	}
	sh := s.shardFor(key)
	sh.mu.Lock()
	e, ok := sh.m[key]
	if ok {
		e.at = s.clock.Add(1)
	}
	sh.mu.Unlock()
	if !ok {
		b.Add(engine.DiskMisses, 1)
		return nil, false
	}
	b.Add(engine.DiskHits, 1)
	return e.val, true
}

// Put inserts or overwrites the key, evicting least-recently-accessed
// records of the shard while the per-shard entry bound or byte budget is
// exceeded (each eviction charged to b). A record alone bigger than the
// shard's whole byte budget is discarded instead of cached.
func (s *Store) Put(b *engine.Budget, key string, val []byte) {
	if s == nil {
		return
	}
	sh := s.shardFor(key)
	bound := s.maxEntries / shards
	if bound < 1 {
		bound = 1
	}
	var byteBound int64
	if s.maxBytes > 0 {
		byteBound = s.maxBytes / shards
		if byteBound < 1 {
			byteBound = 1
		}
	}
	sz := int64(len(key) + len(val))
	if byteBound > 0 && sz > byteBound {
		return
	}
	sh.mu.Lock()
	if old, exists := sh.m[key]; exists {
		sh.bytes -= int64(len(key) + len(old.val))
	}
	sh.m[key] = &entry{val: val, at: s.clock.Add(1)}
	sh.bytes += sz
	for len(sh.m) > bound || (byteBound > 0 && sh.bytes > byteBound) {
		var victim string
		var oldest int64
		for k, e := range sh.m {
			if k == key {
				continue // never evict the record being inserted
			}
			if victim == "" || e.at < oldest {
				victim, oldest = k, e.at
			}
		}
		if victim == "" {
			break
		}
		sh.bytes -= int64(len(victim) + len(sh.m[victim].val))
		delete(sh.m, victim)
		b.Add(engine.DiskEvictions, 1)
	}
	sh.mu.Unlock()
}

// Do is the get-or-compute singleflight path: a hit returns immediately;
// otherwise the first caller for the key runs fn while concurrent callers
// for the same key block and share its result. fn returning ok=false means
// "do not cache" (e.g. a budget-classified failure): the result is still
// shared with the waiters of this flight, but the next Do recomputes.
//
// Two rules keep a long-lived store honest. A result computed while any
// fault of the store's registry fired is neither stored nor shared: it may
// be an artefact of the injection (a rejected candidate, a forced unknown),
// and freezing it would hand every later caller a verdict no fault-free run
// gives. And a waiter leaves when its own budget's context ends, returning
// not-ok, so a cancelled or timed-out caller never outlives its deadline
// parked behind another caller's flight; the leader runs on untouched.
func (s *Store) Do(b *engine.Budget, key string, fn func() ([]byte, bool)) ([]byte, bool) {
	if s == nil {
		v, ok := fn()
		return v, ok
	}
	if v, ok := s.Get(b, key); ok {
		return v, true
	}
	s.flightMu.Lock()
	if f, ok := s.flight[key]; ok {
		s.flightMu.Unlock()
		select {
		case <-f.done:
		case <-b.Context().Done():
			return nil, false
		}
		if f.ok {
			b.Add(engine.DiskHits, 1)
		}
		return f.val, f.ok
	}
	f := &flight{done: make(chan struct{})}
	s.flight[key] = f
	s.flightMu.Unlock()

	// Deregister on the way out even if fn panics: the pipelines above this
	// layer recover injected and real panics and retry the same key, and a
	// leaked flight would park that retry on a channel nobody will ever
	// close. The panic unwinds past the deferred cleanup with f.ok false, so
	// waiters of the doomed flight see a failed compute and recompute.
	defer func() {
		s.flightMu.Lock()
		delete(s.flight, key)
		s.flightMu.Unlock()
		close(f.done)
	}()

	fired := s.faults.TotalFired()
	f.val, f.ok = fn()
	if f.ok && s.faults.TotalFired() != fired {
		// The registry is shared, so a firing in a concurrent computation
		// taints this one too: storing nothing is the safe side.
		f.ok = false
	}
	if f.ok {
		s.Put(b, key, f.val)
	}
	return f.val, f.ok
}

// Memo is the whole-result memo policy over Do, shared by every pipeline
// that memoizes a finished result: with no store, compute runs live;
// otherwise the result of compute is stored under key() when encode accepts
// it and no fault fired meanwhile, and a computed result is always returned
// live, never re-decoded. A cached entry is decoded; an entry decode
// rejects, a shared flight that failed, or a wait the caller's budget cut
// short, computes live (under an ended budget that unwinds at once). key is
// called only when the store is on, so a disabled tier pays no hashing.
func Memo[T any](s *Store, b *engine.Budget, key func() string,
	compute func() (T, error),
	encode func(T, error) ([]byte, bool),
	decode func([]byte) (T, error, bool),
) (T, error) {
	if s == nil {
		return compute()
	}
	var (
		computed bool
		v        T
		err      error
	)
	raw, cached := s.Do(b, key(), func() ([]byte, bool) {
		computed = true
		v, err = compute()
		return encode(v, err)
	})
	if computed {
		return v, err
	}
	if cached {
		if v, err, ok := decode(raw); ok {
			return v, err
		}
	}
	return compute()
}

// InFlight returns the number of singleflight computations currently
// registered. After every caller of Do has returned it must be zero —
// the daemon's cancellation tests use it to pin the flight-leak class.
func (s *Store) InFlight() int {
	if s == nil {
		return 0
	}
	s.flightMu.Lock()
	defer s.flightMu.Unlock()
	return len(s.flight)
}

// Len returns the number of live records.
func (s *Store) Len() int {
	if s == nil {
		return 0
	}
	n := 0
	for i := range s.sh {
		s.sh[i].mu.Lock()
		n += len(s.sh[i].m)
		s.sh[i].mu.Unlock()
	}
	return n
}

// Bytes returns the key+value payload bytes of the live records.
func (s *Store) Bytes() int64 {
	if s == nil {
		return 0
	}
	var n int64
	for i := range s.sh {
		s.sh[i].mu.Lock()
		n += s.sh[i].bytes
		s.sh[i].mu.Unlock()
	}
	return n
}

// Load warms the store from its file. Records are one per line:
//
//	dq1 <crc32 hex> <key> <base64 value>
//
// where the CRC covers "<key> <base64 value>". Loading stops at the first
// record that fails to parse or checksum — the valid prefix survives, the
// torn tail of a truncated or corrupted file is discarded — and never
// returns an error to the solver path: a bad file is a cold start. A
// DiskCacheIO fault firing forces the cold start outright.
func (s *Store) Load() {
	if s == nil || s.path == "" {
		return
	}
	if s.faults.Fire(faultpoint.DiskCacheIO) {
		return
	}
	f, err := os.Open(s.path)
	if err != nil {
		return
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		line := sc.Text()
		rest, ok := strings.CutPrefix(line, fileVersion+" ")
		if !ok {
			return
		}
		crcStr, payload, ok := strings.Cut(rest, " ")
		if !ok {
			return
		}
		want, err := strconv.ParseUint(crcStr, 16, 32)
		if err != nil || crc32.ChecksumIEEE([]byte(payload)) != uint32(want) {
			return
		}
		key, b64, ok := strings.Cut(payload, " ")
		if !ok {
			return
		}
		val, err := base64.StdEncoding.DecodeString(b64)
		if err != nil {
			return
		}
		// Nil budget: warm-start loads are not attributable to any pipeline.
		s.Put(nil, key, val)
	}
}

// Save snapshots the store to its file atomically: records are written to a
// temp file in the same directory and renamed over the target, so readers
// never observe a torn file and concurrent savers last-write-win a
// consistent snapshot. Records are sorted by key so identical contents
// produce identical files. A DiskCacheIO fault firing skips the save (the
// cache simply stays cold for the next process).
func (s *Store) Save() error {
	if s == nil || s.path == "" || s.readOnly {
		return nil
	}
	if s.faults.Fire(faultpoint.DiskCacheIO) {
		return nil
	}
	type rec struct {
		key string
		val []byte
	}
	var recs []rec
	for i := range s.sh {
		s.sh[i].mu.Lock()
		for k, e := range s.sh[i].m {
			recs = append(recs, rec{k, e.val})
		}
		s.sh[i].mu.Unlock()
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].key < recs[j].key })

	dir := filepath.Dir(s.path)
	tmp, err := os.CreateTemp(dir, filepath.Base(s.path)+".tmp*")
	if err != nil {
		return err
	}
	w := bufio.NewWriter(tmp)
	for _, r := range recs {
		payload := r.key + " " + base64.StdEncoding.EncodeToString(r.val)
		fmt.Fprintf(w, "%s %08x %s\n", fileVersion, crc32.ChecksumIEEE([]byte(payload)), payload)
	}
	if err := w.Flush(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), s.path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// Tier bundles the two persistent stores of a cache directory: the
// counterexample query cache and the whole-result summary memo DB. A nil
// *Tier is the disabled state; both stores are then nil, which every layer
// treats as a pass-through (so is a nil store on a non-nil Tier, which is
// how &Tier{} turns the daemon's default memo off).
type Tier struct {
	// Dir is the cache directory.
	Dir string
	// Queries holds canonical qcache group keys → encoded solver verdicts.
	Queries *Store
	// Memo holds canonical loop hashes → encoded pipeline results.
	Memo *Store
	// ReadOnly reports that another live process holds the directory's
	// advisory lock: this tier still warm-starts and serves reads, but
	// Close persists nothing (the owner's snapshots stay intact).
	ReadOnly bool
	ownsLock bool
}

// OpenSized creates (if needed) the cache directory and warm-starts both
// stores from it. An unreadable or corrupt file degrades to a cold store,
// but an unusable directory is a configuration error and is reported. Each
// store evicts past maxBytes of key+value payload (-cache-max-bytes), on top
// of the entry-count cap; maxBytes <= 0 keeps the entry-count cap only.
func OpenSized(dir string, maxBytes int64, faults *faultpoint.Registry) (*Tier, error) {
	if dir == "" {
		return nil, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("diskcache: %w", err)
	}
	owned, holder, err := acquireDirLock(dir)
	if err != nil {
		return nil, err
	}
	t := &Tier{
		Dir:      dir,
		Queries:  NewStoreSized(filepath.Join(dir, "queries.cache"), maxBytes, faults),
		Memo:     NewStoreSized(filepath.Join(dir, "memo.cache"), maxBytes, faults),
		ReadOnly: !owned,
		ownsLock: owned,
	}
	if !owned {
		// A live process owns the snapshots: degrade to read-only instead
		// of silently last-write-wins clobbering its files on Close.
		t.Queries.readOnly = true
		t.Memo.readOnly = true
		fmt.Fprintf(os.Stderr,
			"diskcache: %s is locked by pid %d; this process degrades to read-only (its results will not persist)\n",
			dir, holder)
	}
	t.Queries.Load()
	t.Memo.Load()
	return t, nil
}

// MemoryTier is a tier holding only a memory-only memo store, bounded by
// maxStoreEntries and tainted by faults (see Store.Do): the daemon's
// memo when no cache directory is given. It has no query store, so solver
// verdicts are not shared across the pipelines that ride it, and Close
// persists nothing.
func MemoryTier(faults *faultpoint.Registry) *Tier {
	return &Tier{Memo: NewStoreSized("", 0, faults)}
}

// QueryStore returns the query store (nil on a nil tier).
func (t *Tier) QueryStore() *Store {
	if t == nil {
		return nil
	}
	return t.Queries
}

// MemoStore returns the memo store (nil on a nil tier).
func (t *Tier) MemoStore() *Store {
	if t == nil {
		return nil
	}
	return t.Memo
}

// Close persists both stores and releases the directory's advisory lock
// (read-only tiers persist nothing and never touch the owner's lock).
// Safe on nil.
func (t *Tier) Close() error {
	if t == nil {
		return nil
	}
	if t.ownsLock {
		defer releaseDirLock(t.Dir)
	}
	if err := t.Queries.Save(); err != nil {
		return err
	}
	return t.Memo.Save()
}
