package provenance

import (
	"bufio"
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// v1Fixtures are layer files in the row-oriented v1 format, committed under
// testdata/v1 as written by the v1 writer earlier builds spilled with. Only
// the v1 reader remains, so these bytes are what pins it: each file must
// decode to exactly the layer it was written from. The layer-00000N files
// form a spill directory a store can reattach.
var v1Fixtures = []struct {
	file string
	want func() *Layer
}{
	{"layer-000000.prov", func() *Layer { return sampleLayer(0, 12) }},
	{"layer-000001.prov", func() *Layer { return sampleLayer(1, 12) }},
	{"layer-000002.prov", func() *Layer { return sampleLayer(2, 12) }},
	{"layer-000003.prov", func() *Layer { return sampleLayer(3, 12) }},
	{"sample-0-6.prov", func() *Layer { return sampleLayer(0, 6) }},
	{"tricky-2.prov", func() *Layer { return trickyLayer(2) }},
}

// v1FixtureDir holds the committed v1 layer files.
var v1FixtureDir = filepath.Join("testdata", "v1")

// readV1Fixture returns the bytes of one committed v1 layer file.
func readV1Fixture(t testing.TB, file string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(v1FixtureDir, file))
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) < 5 || raw[4] != layerVersion {
		t.Fatalf("%s is not a v1 layer file", file)
	}
	return raw
}

// TestLayerCodecRoundTrip decodes every committed v1 fixture with the v1
// decoder and checks it against the layer the v1 writer was given.
func TestLayerCodecRoundTrip(t *testing.T) {
	for _, fx := range v1Fixtures {
		got, err := decodeLayer(bufio.NewReader(bytes.NewReader(readV1Fixture(t, fx.file))))
		if err != nil {
			t.Fatalf("%s: %v", fx.file, err)
		}
		assertLayersIdentical(t, fx.want(), got)
	}
}

func TestLayerCodecCorruption(t *testing.T) {
	if _, err := decodeLayer(bufio.NewReader(bytes.NewReader([]byte("XXXX")))); err == nil {
		t.Error("bad magic should fail")
	}
	full := readV1Fixture(t, "sample-0-6.prov")
	// Truncations anywhere must error, never panic.
	for cut := 1; cut < len(full); cut += 7 {
		if _, err := decodeLayer(bufio.NewReader(bytes.NewReader(full[:cut]))); err == nil {
			t.Errorf("truncation at %d should fail", cut)
		}
	}
	// Bad version byte.
	bad := append([]byte{}, full...)
	bad[4] = 99
	if _, err := decodeLayer(bufio.NewReader(bytes.NewReader(bad))); err == nil {
		t.Error("bad version should fail")
	}
}

// TestV1FilesRemainReadable reattaches a v1 spill directory (an earlier
// build's spill output) with a current store — the checkpoint/resume
// compatibility path. Every fixture must load identical to its source
// layer through the version-sniffing reader, and projected reads against
// v1 files must silently degrade to full materialization.
func TestV1FilesRemainReadable(t *testing.T) {
	for _, fx := range v1Fixtures {
		path := filepath.Join(v1FixtureDir, fx.file)
		full, err := readLayerFile(path)
		if err != nil {
			t.Fatalf("%s: %v", fx.file, err)
		}
		assertLayersIdentical(t, fx.want(), full)
		proj, got, err := readLayerFileProjected(path, maskCore)
		if err != nil {
			t.Fatalf("%s projected: %v", fx.file, err)
		}
		if got != maskAll {
			t.Errorf("%s: projected v1 read reports mask %09b, want every column", fx.file, got)
		}
		assertLayersIdentical(t, fx.want(), proj)
	}

	dir := t.TempDir()
	for ss := 0; ss < 4; ss++ {
		name := layerFileName(ss)
		if err := os.WriteFile(filepath.Join(dir, name), readV1Fixture(t, name), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s := NewStore(StoreConfig{SpillAll: true, SpillDir: dir})
	if err := s.Reattach(4); err != nil {
		t.Fatalf("reattaching v1 files: %v", err)
	}
	for ss := 0; ss < 4; ss++ {
		got, err := s.LayerProjected(ss, &LayerProjection{})
		if err != nil {
			t.Fatal(err)
		}
		// v1 files have no column blocks: the projected read returns the
		// full layer.
		assertLayersIdentical(t, sampleLayer(ss, 12), got)
	}
	// New layers appended by the resumed run spill as v2; both formats then
	// coexist in one store directory.
	if err := s.AppendLayer(sampleLayer(4, 12)); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, layerFileName(4)))
	if err != nil {
		t.Fatal(err)
	}
	if raw[4] != layerVersionColumnar {
		t.Fatalf("resumed store wrote version %d, want v2", raw[4])
	}
	got, err := s.Layer(4)
	if err != nil {
		t.Fatal(err)
	}
	assertLayersIdentical(t, sampleLayer(4, 12), got)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}
