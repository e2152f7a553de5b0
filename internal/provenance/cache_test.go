package provenance

import "testing"

// TestLayerCacheHitsAndEviction pins the spilled-layer reload cache: hits,
// LRU eviction at reloadCacheLayers, and invalidation on truncation.
func TestLayerCacheHitsAndEviction(t *testing.T) {
	dir := t.TempDir()
	s := NewStore(StoreConfig{SpillAll: true, SpillDir: dir})
	defer s.Close()
	const layers = reloadCacheLayers + 2
	for ss := 0; ss < layers; ss++ {
		if err := s.AppendLayer(sampleLayer(ss, 4)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}

	// A repeated read of a spilled layer is a cache hit: same object, no
	// second decode.
	l0a, err := s.Layer(0)
	if err != nil {
		t.Fatal(err)
	}
	l0b, err := s.Layer(0)
	if err != nil {
		t.Fatal(err)
	}
	if l0a != l0b {
		t.Error("second read of a spilled layer should come from the cache")
	}

	// Touching reloadCacheLayers-1 other layers keeps layer 0 cached; one
	// more evicts it (LRU).
	for ss := 1; ss < reloadCacheLayers; ss++ {
		if _, err := s.Layer(ss); err != nil {
			t.Fatal(err)
		}
	}
	if l, err := s.Layer(0); err != nil || l != l0a {
		t.Fatalf("layer 0 should still be cached with %d layers reloaded (err %v)", reloadCacheLayers, err)
	}
	for ss := 1; ss <= reloadCacheLayers; ss++ {
		if _, err := s.Layer(ss); err != nil {
			t.Fatal(err)
		}
	}
	l0c, err := s.Layer(0)
	if err != nil {
		t.Fatal(err)
	}
	if l0c == l0a {
		t.Errorf("layer 0 should have been evicted by %d newer reloads", reloadCacheLayers)
	}

	// Truncation invalidates the cache.
	l2a, err := s.Layer(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.TruncateLayers(layers - 1); err != nil {
		t.Fatal(err)
	}
	l2b, err := s.Layer(2)
	if err != nil {
		t.Fatal(err)
	}
	if l2a == l2b {
		t.Error("truncate must invalidate the reload cache")
	}
}
