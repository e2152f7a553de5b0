package provenance

import "testing"

// TestStoreCacheBytesProjected pins the reload LRU's byte accounting
// end to end, mirroring size_test.go's encoder/estimate contract at the
// store level: CacheBytes must charge each cached reload for its decoded
// columns only, so a projected read of a v2 layer costs a fraction of a
// full read of the same layer, widening a cached partial layer grows its
// charge in place, and eviction returns exactly what the evicted entry
// was charged.
func TestStoreCacheBytesProjected(t *testing.T) {
	s := NewStore(StoreConfig{SpillAll: true, SpillDir: t.TempDir()})
	defer s.Close()
	// One layer more than the cache holds, so the last reload evicts.
	for ss := 0; ss <= reloadCacheLayers; ss++ {
		if err := s.AppendLayer(wccLayer(ss, 500, 4)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := s.CacheBytes(); got != 0 {
		t.Fatalf("CacheBytes before any reload = %d, want 0", got)
	}

	// Core-only projected reload: the cache is charged for the partial
	// layer's decoded columns, not the full layer it could widen into.
	l0, err := s.LayerProjected(0, &LayerProjection{})
	if err != nil {
		t.Fatal(err)
	}
	partial := s.CacheBytes()
	if partial != l0.MemSize() {
		t.Fatalf("CacheBytes after projected reload = %d, want layer MemSize %d", partial, l0.MemSize())
	}

	// Full reload of an identically shaped layer must cost strictly more
	// than the core-only reload — the payload columns are the bulk.
	l1, err := s.Layer(1)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := s.CacheBytes(), partial+l1.MemSize(); got != want {
		t.Fatalf("CacheBytes after full reload = %d, want %d", got, want)
	}
	if partial >= l1.MemSize() {
		t.Fatalf("projected reload charged %d bytes, not less than full reload %d", partial, l1.MemSize())
	}

	// Asking for the full layer widens the cached partial entry in place
	// and re-charges it at its grown size.
	l0w, err := s.Layer(0)
	if err != nil {
		t.Fatal(err)
	}
	if l0w != l0 {
		t.Fatal("widening did not reuse the cached layer in place")
	}
	if got, want := s.CacheBytes(), l0.MemSize()+l1.MemSize(); got != want {
		t.Fatalf("CacheBytes after widening = %d, want %d", got, want)
	}
	if l0.MemSize() <= partial {
		t.Fatalf("widened layer MemSize %d did not grow past projected charge %d", l0.MemSize(), partial)
	}

	// The widening access made layer 0 more recently used than layer 1, so
	// filling the cache with layers 2 onward evicts layer 1 and refunds
	// exactly its charge.
	want := l0.MemSize()
	for ss := 2; ss <= reloadCacheLayers; ss++ {
		l, err := s.Layer(ss)
		if err != nil {
			t.Fatal(err)
		}
		want += l.MemSize()
	}
	if got := s.CacheBytes(); got != want {
		t.Fatalf("CacheBytes after eviction = %d, want %d", got, want)
	}
}
