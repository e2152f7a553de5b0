package provenance

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzLayerV2Decode drives the layer-file readers with arbitrary bytes and
// an arbitrary projection mask, generalizing TestLayerTruncationNeverPanics
// from every-byte truncations to every mutation the fuzzer can find. The
// corpus is seeded with real encodings of both formats — v2 encodings of
// the tricky-value layer (NaN, ±Inf, -0.0, extreme ints, non-ASCII strings,
// vectors), the WCC-shaped layer, and a small generic layer, plus the
// committed v1 fixtures — so mutations start from structurally valid files
// and dig into the dictionary, delta, and varint decoders rather than
// bouncing off the magic check. The invariant under
// test: decode never panics and never over-allocates; it either returns a
// layer or a clean error, for the full read and for every projected read.
//
// CI runs this as a 30s smoke via `go test -fuzz FuzzLayerV2Decode`; the
// committed corpus under testdata/fuzz replays as an ordinary test case.
func FuzzLayerV2Decode(f *testing.F) {
	fuzzMasks := []uint16{uint16(maskAll), uint16(maskCore), 0}
	seedLayers := []*Layer{
		trickyLayer(2),
		wccLayer(1, 40, 3),
		sampleLayer(3, 8),
		{Superstep: 0}, // no records: header+footer only
	}
	for _, l := range seedLayers {
		var v2 bytes.Buffer
		if err := encodeLayerColumnar(&v2, l); err != nil {
			f.Fatal(err)
		}
		for _, mask := range fuzzMasks {
			f.Add(v2.Bytes(), mask)
		}
		// A mid-file truncation seed steers mutations toward the footer
		// bounds checks (v2 reads the file back-to-front).
		f.Add(v2.Bytes()[:v2.Len()/2], uint16(maskAll))
	}
	for _, fx := range v1Fixtures {
		raw := readV1Fixture(f, fx.file)
		for _, mask := range fuzzMasks {
			f.Add(raw, mask)
		}
	}
	f.Add([]byte{}, uint16(maskAll))

	f.Fuzz(func(t *testing.T, data []byte, mask uint16) {
		path := filepath.Join(t.TempDir(), "layer.prov")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		full, err := readLayerFile(path)
		if err == nil && full == nil {
			t.Fatal("readLayerFile returned neither layer nor error")
		}
		proj, got, err := readLayerFileProjected(path, colMask(mask))
		if err != nil {
			return
		}
		if proj == nil {
			t.Fatal("readLayerFileProjected returned neither layer nor error")
		}
		// A successful projected decode must honor the superset contract:
		// at least the requested columns plus the always-on core set.
		want := (colMask(mask) | maskCore) & maskAll
		if got&want != want {
			t.Fatalf("projected decode materialized mask %04x, missing bits of %04x", got, want)
		}
		// A projected decode may succeed where the full decode errors (a
		// corrupt byte in a skipped column is invisible to it), but when
		// both succeed they must agree on the layer shape.
		if full != nil && (len(proj.Records) != len(full.Records) || proj.Superstep != full.Superstep) {
			t.Fatalf("projected decode shape (%d records, ss %d) != full (%d records, ss %d)",
				len(proj.Records), proj.Superstep, len(full.Records), full.Superstep)
		}
	})
}
