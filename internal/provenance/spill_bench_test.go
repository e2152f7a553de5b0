package provenance

import (
	"os"
	"path/filepath"
	"testing"
)

// BenchmarkSpillPipeline compares writing spilled layers inline (the sync
// leg calls writeLayerFile from the benchmark loop, as a store without a
// writer goroutine would from AppendLayer) against the store's async
// writer-goroutine pipeline. Each iteration interleaves layer
// *construction* (standing in for a superstep's capture work, the way a
// real run builds the next layer while the previous one spills) with the
// write: the sync leg serializes build -> encode -> write, the async leg
// overlaps the writer goroutine's encode+write with the next layer's build.
// The sync/async time ratio is the regression metric archived by
// `make bench-micro`; an earlier version of this benchmark pre-built all
// layers outside the timed loop, which left the async leg nothing to
// overlap with and measured ~1.0x.
func BenchmarkSpillPipeline(b *testing.B) {
	const (
		layersPerRun = 12
		recsPerLayer = 2000
	)
	b.Run("sync", func(b *testing.B) {
		b.ReportAllocs()
		dir := b.TempDir()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// A resident store does the same per-layer bookkeeping as the
			// async leg's; only the write moves inline.
			s := NewStore(StoreConfig{})
			for ss := 0; ss < layersPerRun; ss++ {
				// The build is the "compute" the async writer hides behind.
				l := sampleLayer(ss, recsPerLayer)
				if err := s.AppendLayer(l); err != nil {
					b.Fatal(err)
				}
				if _, err := writeLayerFile(filepath.Join(dir, layerFileName(ss)), l, nil, nil); err != nil {
					b.Fatal(err)
				}
			}
			for ss := 0; ss < layersPerRun; ss++ {
				if err := os.Remove(filepath.Join(dir, layerFileName(ss))); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("async", func(b *testing.B) {
		b.ReportAllocs()
		dir := b.TempDir()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s := NewStore(StoreConfig{SpillAll: true, SpillDir: dir})
			for ss := 0; ss < layersPerRun; ss++ {
				l := sampleLayer(ss, recsPerLayer)
				if err := s.AppendLayer(l); err != nil {
					b.Fatal(err)
				}
			}
			if err := s.Sync(); err != nil {
				b.Fatal(err)
			}
			if err := s.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
