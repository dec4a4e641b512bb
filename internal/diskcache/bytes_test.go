package diskcache

import (
	"fmt"
	"strings"
	"testing"

	"stringloops/internal/engine"
)

func TestByteBudgetEviction(t *testing.T) {
	// byteBound = maxBytes/shards = 64 payload bytes per shard. Records are
	// 40 bytes each, so every shard holds at most one — inserting 200 must
	// evict, and the resident total must stay under the budget.
	s := NewStoreSized("", 16*64, nil)
	b := newBudget()
	val := []byte(strings.Repeat("v", 34))
	for i := 0; i < 200; i++ {
		s.Put(b, fmt.Sprintf("key%03d", i), val) // 6 + 34 = 40 bytes
	}
	if got := s.Bytes(); got > 16*64 {
		t.Fatalf("resident bytes = %d, exceeds the %d budget", got, 16*64)
	}
	if b.Count(engine.DiskEvictions) == 0 {
		t.Fatal("no evictions charged while inserting 8000 bytes into a 1024-byte store")
	}
	// The record just inserted is never the victim of its own insert.
	if _, ok := s.Get(b, "key199"); !ok {
		t.Fatal("most recent insert was evicted")
	}
}

func TestByteBudgetLRUOrder(t *testing.T) {
	// One shard effectively: keys chosen so recency, not insertion order,
	// decides the victim — touching the older record should save it.
	s := NewStoreSized("", 16*100, nil)
	b := newBudget()
	// Find three keys in the same shard so the per-shard budget arbitrates
	// between them.
	sh0 := s.shardFor("probe")
	var keys []string
	for i := 0; len(keys) < 3 && i < 10000; i++ {
		k := fmt.Sprintf("k%04d", i)
		if s.shardFor(k) == sh0 {
			keys = append(keys, k)
		}
	}
	if len(keys) < 3 {
		t.Fatal("could not find three same-shard keys")
	}
	val := []byte(strings.Repeat("v", 35)) // 5 + 35 = 40 bytes per record
	s.Put(b, keys[0], val)
	s.Put(b, keys[1], val)
	s.Get(b, keys[0]) // refresh the older record
	s.Put(b, keys[2], val)
	// Budget fits two records (100 bytes); the least recently used is
	// keys[1], not the older-but-refreshed keys[0].
	if _, ok := s.Get(b, keys[0]); !ok {
		t.Fatal("refreshed record was evicted; eviction is not access-ordered")
	}
	if _, ok := s.Get(b, keys[1]); ok {
		t.Fatal("least-recently-used record survived")
	}
}

func TestOversizeRecordNotCached(t *testing.T) {
	// A record bigger than a whole shard's byte budget is dropped up front:
	// caching it would immediately evict everything else for one entry.
	s := NewStoreSized("", 16*10, nil)
	b := newBudget()
	s.Put(b, "big", []byte(strings.Repeat("v", 64)))
	if s.Len() != 0 || s.Bytes() != 0 {
		t.Fatalf("oversize record cached: len=%d bytes=%d", s.Len(), s.Bytes())
	}
	if _, ok := s.Get(b, "big"); ok {
		t.Fatal("oversize record retrievable")
	}
	if b.Count(engine.DiskEvictions) != 0 {
		t.Fatal("discarding an oversize record must not charge evictions")
	}
	// A record that fits is unaffected.
	s.Put(b, "k", []byte("12345"))
	if _, ok := s.Get(b, "k"); !ok {
		t.Fatal("fitting record missing")
	}
}

func TestOverwriteByteAccounting(t *testing.T) {
	s := NewStoreSized("", 16*1024, nil)
	b := newBudget()
	s.Put(b, "k", []byte(strings.Repeat("a", 100)))
	if got := s.Bytes(); got != 101 {
		t.Fatalf("bytes after insert = %d, want 101", got)
	}
	// Overwriting must replace the old record's bytes, not add to them —
	// double counting would evict live records against phantom weight.
	s.Put(b, "k", []byte("bb"))
	if got := s.Bytes(); got != 3 {
		t.Fatalf("bytes after overwrite = %d, want 3", got)
	}
	s.Put(b, "k", []byte(strings.Repeat("c", 50)))
	if got := s.Bytes(); got != 51 {
		t.Fatalf("bytes after second overwrite = %d, want 51", got)
	}
	if s.Len() != 1 {
		t.Fatalf("len = %d, want 1", s.Len())
	}
}

func TestBytesNilAndUnbounded(t *testing.T) {
	var nilStore *Store
	if nilStore.Bytes() != 0 {
		t.Fatal("nil store must report zero bytes")
	}
	// maxBytes <= 0 keeps the entry-count cap only: bytes are still
	// tracked (Bytes is an observability surface) but never bound inserts.
	s := NewStoreSized("", 0, nil)
	b := newBudget()
	s.Put(b, "k", []byte(strings.Repeat("v", 4096)))
	if got := s.Bytes(); got != 4097 {
		t.Fatalf("unbounded store bytes = %d, want 4097", got)
	}
	if b.Count(engine.DiskEvictions) != 0 {
		t.Fatal("unbounded store evicted")
	}
}

func TestOpenSizedThreadsByteBudget(t *testing.T) {
	dir := t.TempDir()
	tier, err := OpenSized(dir, 16*10, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := newBudget()
	// Both stores must enforce the budget: an oversize record is skipped.
	tier.QueryStore().Put(b, "big", []byte(strings.Repeat("v", 64)))
	tier.MemoStore().Put(b, "big", []byte(strings.Repeat("v", 64)))
	if tier.QueryStore().Len() != 0 || tier.MemoStore().Len() != 0 {
		t.Fatal("OpenSized did not thread maxBytes into the stores")
	}
	// OpenSized with maxBytes 0 keeps the old unbounded behavior.
	tier2, err := OpenSized(t.TempDir(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	tier2.QueryStore().Put(b, "big", []byte(strings.Repeat("v", 64)))
	if tier2.QueryStore().Len() != 1 {
		t.Fatal("unsized OpenSized rejected a record")
	}
}
