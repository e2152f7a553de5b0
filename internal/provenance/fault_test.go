package provenance

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"ariadne/internal/fault"
)

func listDir(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names
}

func TestSpillWriteRetriesTransientErrors(t *testing.T) {
	dir := t.TempDir()
	s := NewStore(StoreConfig{
		SpillAll: true,
		SpillDir: dir,
		Fault:    fault.NewInjector(fault.IOErrors(fault.SiteSpillWrite, 2)),
	})
	defer s.Close()
	if err := s.AppendLayer(sampleLayer(0, 5)); err != nil {
		t.Fatalf("transient spill errors should be retried: %v", err)
	}
	if err := s.Sync(); err != nil {
		t.Fatalf("transient spill errors should be retried: %v", err)
	}
	// The layer landed at the final path, readable, with no temp debris.
	if s.SpilledLayers() != 1 {
		t.Errorf("retried layer not spilled: %d spilled layers", s.SpilledLayers())
	}
	got, err := s.Layer(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != 5 {
		t.Errorf("reloaded layer has %d records, want 5", len(got.Records))
	}
	for _, name := range listDir(t, dir) {
		if filepath.Ext(name) == ".tmp" {
			t.Errorf("temp file %s left behind", name)
		}
	}
}

func TestSpillWriteExhaustedRetriesLeaveNoPartialFile(t *testing.T) {
	// Async pipeline (the default): the enqueue succeeds, the exhausted
	// write surfaces at Sync (or the next AppendLayer), and the failed
	// layer reverts to resident so its provenance is not lost.
	t.Run("async", func(t *testing.T) {
		dir := t.TempDir()
		s := NewStore(StoreConfig{
			SpillAll: true,
			SpillDir: dir,
			Fault:    fault.NewInjector(fault.IOErrors(fault.SiteSpillWrite, 100)),
		})
		defer s.Close()
		if err := s.AppendLayer(sampleLayer(0, 5)); err != nil && !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("append = %v, want nil or deferred ErrInjected", err)
		}
		if err := s.Sync(); err != nil && !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("Sync = %v, want ErrInjected (or already surfaced at append)", err)
		}
		// The failed layer reverted to resident: still readable, counted as
		// unspilled.
		if s.SpilledLayers() != 0 {
			t.Errorf("failed spill still counted: %d spilled layers", s.SpilledLayers())
		}
		l, err := s.Layer(0)
		if err != nil || len(l.Records) != 5 {
			t.Errorf("failed-spill layer unreadable: %v", err)
		}
		// Neither a partial layer file nor a temp file may exist.
		if names := listDir(t, dir); len(names) != 0 {
			t.Errorf("failed spill left files behind: %v", names)
		}
	})
	// Through Sync: the exhausted write surfaces exactly once — at the
	// append that drained its completion, or else at Sync — and a second
	// Sync reports nothing.
	t.Run("sync", func(t *testing.T) {
		dir := t.TempDir()
		s := NewStore(StoreConfig{
			SpillAll: true,
			SpillDir: dir,
			Fault:    fault.NewInjector(fault.IOErrors(fault.SiteSpillWrite, 100)),
		})
		defer s.Close()
		appendErr := s.AppendLayer(sampleLayer(0, 5))
		syncErr := s.Sync()
		if (appendErr == nil) == (syncErr == nil) {
			t.Fatalf("append = %v, Sync = %v; want the error from exactly one", appendErr, syncErr)
		}
		if err := errors.Join(appendErr, syncErr); !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("exhausted retries = %v, want ErrInjected", err)
		}
		if err := s.Sync(); err != nil {
			t.Fatalf("second Sync = %v, want the error cleared", err)
		}
		if names := listDir(t, dir); len(names) != 0 {
			t.Errorf("failed spill left files behind: %v", names)
		}
	})
}

// layerFileCases returns sampleLayer(0, 6) encoded in each layer file
// format: the committed v1 fixture and a fresh v2 write.
func layerFileCases(t *testing.T) []struct {
	name string
	raw  []byte
} {
	t.Helper()
	path := filepath.Join(t.TempDir(), "layer.prov")
	if _, err := writeLayerFile(path, sampleLayer(0, 6), nil, nil); err != nil {
		t.Fatal(err)
	}
	v2, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		name string
		raw  []byte
	}{{"v1", readV1Fixture(t, "sample-0-6.prov")}, {"v2", v2}}
}

// TestLayerTruncationNeverPanics reads a layer file truncated at every byte
// boundary, in both formats; each truncation must yield an error, never a
// panic. The v2 leg also exercises the projected decode path, whose footer
// seek reads the file back-to-front.
func TestLayerTruncationNeverPanics(t *testing.T) {
	for _, fc := range layerFileCases(t) {
		t.Run(fc.name, func(t *testing.T) {
			dir := t.TempDir()
			raw := fc.raw
			trunc := filepath.Join(dir, "trunc.prov")
			for cut := 0; cut < len(raw); cut++ {
				if err := os.WriteFile(trunc, raw[:cut], 0o644); err != nil {
					t.Fatal(err)
				}
				if _, err := readLayerFile(trunc); err == nil {
					t.Fatalf("truncation at byte %d of %d decoded without error", cut, len(raw))
				}
				if _, _, err := readLayerFileProjected(trunc, maskCore); err == nil {
					t.Fatalf("projected decode of truncation at byte %d of %d succeeded", cut, len(raw))
				}
			}
		})
	}
}

// TestLayerCorruptCountsNeverPanic flips bytes across the file (header
// counts, column footers, packed values) and checks decode errors out
// rather than over-allocating or panicking, in both formats.
func TestLayerCorruptCountsNeverPanic(t *testing.T) {
	for _, fc := range layerFileCases(t) {
		t.Run(fc.name, func(t *testing.T) {
			dir := t.TempDir()
			raw := fc.raw
			mut := filepath.Join(dir, "mut.prov")
			for pos := 5; pos < len(raw); pos++ {
				for _, bit := range []byte{0x80, 0xff} {
					b := append([]byte(nil), raw...)
					b[pos] ^= bit
					if err := os.WriteFile(mut, b, 0o644); err != nil {
						t.Fatal(err)
					}
					// Any outcome but a panic is acceptable: some flips still
					// decode (payload bytes), corrupt counts must error.
					readLayerFile(mut)
					readLayerFileProjected(mut, maskCore)
				}
			}
		})
	}
}

func TestTruncateLayers(t *testing.T) {
	s := NewStore(StoreConfig{})
	defer s.Close()
	for ss := 0; ss < 5; ss++ {
		if err := s.AppendLayer(sampleLayer(ss, 4)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.TruncateLayers(2); err != nil {
		t.Fatal(err)
	}
	if s.NumLayers() != 2 {
		t.Fatalf("layers = %d, want 2", s.NumLayers())
	}
	// Appending continues at the truncation point.
	if err := s.AppendLayer(sampleLayer(2, 4)); err != nil {
		t.Fatal(err)
	}
	if err := s.TruncateLayers(7); err == nil {
		t.Error("truncating beyond the layer count should fail")
	}
}

func TestReattachSpilledLayers(t *testing.T) {
	dir := t.TempDir()
	s := NewStore(StoreConfig{SpillAll: true, SpillDir: dir})
	for ss := 0; ss < 4; ss++ {
		if err := s.AppendLayer(sampleLayer(ss, 4)); err != nil {
			t.Fatal(err)
		}
	}
	wantTuples := s.TotalTuples()
	// The cross-process handoff point (a checkpoint) syncs the pipeline, so
	// every layer file is on disk before another process adopts them.
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}

	// A fresh store (a new process) adopts the on-disk layers.
	s2 := NewStore(StoreConfig{SpillAll: true, SpillDir: dir})
	if err := s2.Reattach(3); err != nil {
		t.Fatal(err)
	}
	if s2.NumLayers() != 3 {
		t.Fatalf("reattached layers = %d, want 3", s2.NumLayers())
	}
	if s2.TotalTuples() >= wantTuples {
		t.Errorf("3 reattached layers should hold fewer tuples than all 4")
	}
	l, err := s2.Layer(1)
	if err != nil {
		t.Fatal(err)
	}
	if l.Superstep != 1 || len(l.Records) != 4 {
		t.Errorf("reattached layer 1 = ss %d, %d records", l.Superstep, len(l.Records))
	}
	// The resumed run re-appends layer 3 (and may overwrite its old file).
	if err := s2.AppendLayer(sampleLayer(3, 4)); err != nil {
		t.Fatal(err)
	}
	if s2.TotalTuples() != wantTuples {
		t.Errorf("tuples after re-append = %d, want %d", s2.TotalTuples(), wantTuples)
	}
	// Drain the async writer before t.TempDir cleanup, or the re-appended
	// layer's spill file can appear mid-RemoveAll.
	if err := s2.Sync(); err != nil {
		t.Fatal(err)
	}
}
