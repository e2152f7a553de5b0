package provenance

import (
	"bytes"
	"math"
	"path/filepath"
	"testing"

	"ariadne/internal/value"
)

// trickyLayer exercises every value representation the packed encoding
// distinguishes: negative ints, integral and fractional floats, -0.0, NaN,
// infinities, floats at the integral-encoding range boundary, empty and
// non-ASCII strings, integral and fractional vectors, repeated emitted
// table names, and records with no sends/recvs/value.
func trickyLayer(ss int) *Layer {
	vals := []value.Value{
		value.NullValue,
		value.NewBool(true),
		value.NewBool(false),
		value.NewInt(0),
		value.NewInt(-1),
		value.NewInt(math.MaxInt64),
		value.NewInt(math.MinInt64),
		value.NewFloat(0),
		value.NewFloat(math.Copysign(0, -1)), // -0.0 must not collapse to +0.0
		value.NewFloat(42),
		value.NewFloat(-1.5),
		value.NewFloat(math.NaN()),
		value.NewFloat(math.Inf(1)),
		value.NewFloat(math.Inf(-1)),
		value.NewFloat(1 << 62),
		value.NewFloat(-(1 << 62)),
		value.NewFloat(6755399441055744.5), // fractional, large
		value.NewString(""),
		value.NewString("héllo\x00world"),
		value.NewVector(nil),
		value.NewVector([]float64{1, -2, 3}),
		value.NewVector([]float64{0.5, -0.25, 1e300}),
	}
	l := &Layer{Superstep: ss}
	for i, v := range vals {
		r := Record{
			Vertex:     VertexID(i * 7),
			PrevActive: int32(ss - 1 - i%3),
			HasValue:   i%5 != 4,
			Value:      v,
			SentAny:    i%3 == 0,
		}
		if r.PrevActive < -1 {
			r.PrevActive = -1
		}
		if i%2 == 0 {
			// Peers deliberately out of order and below the vertex ID, so the
			// delta encoding sees negative deltas and order preservation is
			// observable.
			r.Sends = []MsgHalf{
				{Peer: VertexID(i + 9), Val: v},
				{Peer: VertexID(0), Val: value.NewInt(int64(i))},
				{Peer: VertexID(i + 1), Val: value.NullValue},
			}
		}
		if i%3 == 0 {
			r.Recvs = []MsgHalf{
				{Peer: VertexID(i + 2), Val: value.NewString("m")},
				{Peer: VertexID(1), Val: v},
			}
		}
		if i%4 == 0 {
			r.Emitted = []Fact{
				{Table: "prov_error", Args: []value.Value{value.NewInt(int64(i)), v}},
				{Table: "component_update", Args: nil},
				{Table: "prov_error", Args: []value.Value{value.NullValue}},
			}
		}
		l.Records = append(l.Records, r)
	}
	return l
}

// assertLayersIdentical is assertLayersEqual plus receive-message contents
// (the shared helper only checks counts there) — projection tests need to
// see exactly which columns materialized.
func assertLayersIdentical(t *testing.T, want, got *Layer) {
	t.Helper()
	assertLayersEqual(t, want, got)
	for i := range want.Records {
		ra, rb := &want.Records[i], &got.Records[i]
		for j := range ra.Recvs {
			if ra.Recvs[j].Peer != rb.Recvs[j].Peer || !ra.Recvs[j].Val.Equal(rb.Recvs[j].Val) {
				t.Fatalf("record %d recv %d differs: %+v vs %+v", i, j, ra.Recvs[j], rb.Recvs[j])
			}
		}
		if ra.HasValue && !ra.Value.Equal(rb.Value) {
			t.Fatalf("record %d value differs: %v vs %v", i, ra.Value, rb.Value)
		}
	}
}

func writeTempLayer(t *testing.T, l *Layer) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "layer.prov")
	if _, err := writeLayerFile(path, l, nil, nil); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestColumnarRoundTrip(t *testing.T) {
	for _, l := range []*Layer{trickyLayer(3), trickyLayer(0), {Superstep: 2}, sampleLayer(1, 50)} {
		path := writeTempLayer(t, l)
		got, err := readLayerFile(path)
		if err != nil {
			t.Fatal(err)
		}
		assertLayersIdentical(t, l, got)
	}
}

// TestColumnarFloatBitIdentity pins the packed float encoding to bit-exact
// round-trips: -0.0, NaN payload-default, and the int64-boundary values
// must come back with identical Float64bits.
func TestColumnarFloatBitIdentity(t *testing.T) {
	floats := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		1 << 62, -(1 << 62), 1<<63 - 1024, math.MaxFloat64, math.SmallestNonzeroFloat64, -1.5, 42}
	for _, f := range floats {
		buf := appendPackedValue(nil, value.NewFloat(f))
		c := bcursor{b: buf}
		got, err := c.packedValue()
		if err != nil {
			t.Fatalf("decode %v: %v", f, err)
		}
		if math.Float64bits(got.Float()) != math.Float64bits(f) {
			t.Errorf("float %v round-tripped to %v (bits %x vs %x)", f, got.Float(),
				math.Float64bits(f), math.Float64bits(got.Float()))
		}
	}
}

// TestColumnarVectorNaNBitIdentity covers NaN inside vectors, which
// value.Equal cannot compare (elementwise != is NaN-hostile): the packed
// encoding must still round-trip every element bit-exactly.
func TestColumnarVectorNaNBitIdentity(t *testing.T) {
	want := []float64{0.5, math.NaN(), math.Copysign(0, -1), math.Inf(-1)}
	buf := appendPackedValue(nil, value.NewVector(want))
	c := bcursor{b: buf}
	got, err := c.packedValue()
	if err != nil {
		t.Fatal(err)
	}
	vec := got.Vec()
	if len(vec) != len(want) {
		t.Fatalf("vector length %d, want %d", len(vec), len(want))
	}
	for i := range want {
		if math.Float64bits(vec[i]) != math.Float64bits(want[i]) {
			t.Errorf("element %d: %v round-tripped to %v", i, want[i], vec[i])
		}
	}
}

func TestIntegralFloat(t *testing.T) {
	if _, ok := integralFloat(math.Copysign(0, -1)); ok {
		t.Error("-0.0 must not encode as an integer (sign bit would be lost)")
	}
	if _, ok := integralFloat(math.NaN()); ok {
		t.Error("NaN must not encode as an integer")
	}
	if _, ok := integralFloat(1.5); ok {
		t.Error("fractional floats must not encode as integers")
	}
	if i, ok := integralFloat(42); !ok || i != 42 {
		t.Errorf("integralFloat(42) = %d, %v", i, ok)
	}
	if i, ok := integralFloat(-3); !ok || i != -3 {
		t.Errorf("integralFloat(-3) = %d, %v", i, ok)
	}
}

// TestColumnarProjection reads the same file under narrowing projections
// and checks exactly which columns materialize; then widens the partial
// layer with mergeLayerColumns back to full and checks identity.
func TestColumnarProjection(t *testing.T) {
	l := trickyLayer(4)
	path := writeTempLayer(t, l)

	// Core-only projection: topology present, payload columns absent.
	core, gotMask, err := readLayerFileProjected(path, (&LayerProjection{}).mask())
	if err != nil {
		t.Fatal(err)
	}
	if gotMask != maskCore {
		t.Fatalf("core projection materialized mask %09b, want %09b", gotMask, maskCore)
	}
	for i := range l.Records {
		ra, rb := &l.Records[i], &core.Records[i]
		if ra.Vertex != rb.Vertex || ra.PrevActive != rb.PrevActive ||
			ra.HasValue != rb.HasValue || ra.SentAny != rb.SentAny {
			t.Fatalf("core record %d differs: %+v vs %+v", i, ra, rb)
		}
		if len(ra.Sends) != len(rb.Sends) {
			t.Fatalf("core record %d send count %d, want %d", i, len(rb.Sends), len(ra.Sends))
		}
		for j := range ra.Sends {
			if ra.Sends[j].Peer != rb.Sends[j].Peer {
				t.Fatalf("core record %d send peer %d differs", i, j)
			}
			if !rb.Sends[j].Val.IsNull() {
				t.Fatalf("core record %d send %d has a value despite projection", i, j)
			}
		}
		if rb.Recvs != nil || rb.Emitted != nil || !rb.Value.IsNull() {
			t.Fatalf("core record %d materialized unprojected columns: %+v", i, rb)
		}
	}

	// RecvValues implies RecvPeers.
	rp, gotMask, err := readLayerFileProjected(path, (&LayerProjection{RecvValues: true}).mask())
	if err != nil {
		t.Fatal(err)
	}
	if !gotMask.has(colRecvPeers) || !gotMask.has(colRecvValues) {
		t.Fatalf("RecvValues projection mask %09b misses recv columns", gotMask)
	}
	for i := range l.Records {
		ra, rb := &l.Records[i], &rp.Records[i]
		if len(ra.Recvs) != len(rb.Recvs) {
			t.Fatalf("record %d recv count %d, want %d", i, len(rb.Recvs), len(ra.Recvs))
		}
		for j := range ra.Recvs {
			if ra.Recvs[j].Peer != rb.Recvs[j].Peer || !ra.Recvs[j].Val.Equal(rb.Recvs[j].Val) {
				t.Fatalf("record %d recv %d differs under projection", i, j)
			}
		}
	}

	// Widening the core layer column by column converges to the full layer.
	if err := mergeLayerColumns(path, core, maskAll&^maskCore); err != nil {
		t.Fatal(err)
	}
	assertLayersIdentical(t, l, core)
}

// TestProjectedLayerChargesLessMemory pins the satellite accounting
// contract: a partially materialized layer must have a strictly smaller
// MemSize than the full decode of the same file (decoded columns only).
func TestProjectedLayerChargesLessMemory(t *testing.T) {
	l := trickyLayer(4)
	path := writeTempLayer(t, l)
	full, _, err := readLayerFileProjected(path, maskAll)
	if err != nil {
		t.Fatal(err)
	}
	core, _, err := readLayerFileProjected(path, maskCore)
	if err != nil {
		t.Fatal(err)
	}
	if core.MemSize() >= full.MemSize() {
		t.Errorf("projected layer MemSize %d >= full %d", core.MemSize(), full.MemSize())
	}
}

// TestColumnarSmallerThanRowFormat is a sanity ceiling under the benchmark
// gate: on an int-valued message-heavy layer (the WCC shape), the columnar
// file must take at most 3 bytes per provenance tuple — about a third of
// what the v1 row file earlier builds wrote took.
func TestColumnarSmallerThanRowFormat(t *testing.T) {
	l := wccLayer(3, 2000, 4)
	n, err := writeLayerFile(filepath.Join(t.TempDir(), "v2.prov"), l, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if perTuple := float64(n) / float64(l.NumTuples()); perTuple > 3.0 {
		t.Errorf("v2 file %d bytes for %d tuples: %.3f B/tuple > 3.0", n, l.NumTuples(), perTuple)
	}
}

// wccLayer models a WCC-style custom capture: integer component labels,
// label messages to a few neighbors, and one emitted fact per converged
// record under a shared table name — the shape the paper's Table 3/4
// storage comparisons are about.
func wccLayer(ss, nrec, fanout int) *Layer {
	l := &Layer{Superstep: ss}
	for i := 0; i < nrec; i++ {
		label := int64(i % 97)
		r := Record{
			Vertex:     VertexID(i * 2),
			PrevActive: int32(ss - 1),
			HasValue:   true,
			Value:      value.NewInt(label),
			SentAny:    true,
		}
		for k := 0; k < fanout; k++ {
			r.Sends = append(r.Sends, MsgHalf{Peer: VertexID((i*2 + k + 1) % (nrec * 2)), Val: value.NewInt(label)})
			r.Recvs = append(r.Recvs, MsgHalf{Peer: VertexID((i*2 + 2*k + 3) % (nrec * 2)), Val: value.NewInt(label + 1)})
		}
		if i%4 == 0 {
			r.Emitted = []Fact{{Table: "component_update", Args: []value.Value{value.NewInt(label), value.NewInt(int64(ss))}}}
		}
		l.Records = append(l.Records, r)
	}
	return l
}

// TestColumnarBufferRoundTrip drives the encoder/decoder through an
// in-memory buffer (the fuzz target's transport) rather than a file.
func TestColumnarBufferRoundTrip(t *testing.T) {
	l := trickyLayer(2)
	got, err := columnarRoundTrip(l)
	if err != nil {
		t.Fatal(err)
	}
	assertLayersIdentical(t, l, got)
}

// columnarRoundTrip encodes l into memory and decodes every column back.
func columnarRoundTrip(l *Layer) (*Layer, error) {
	var buf bytes.Buffer
	if err := encodeLayerColumnar(&buf, l); err != nil {
		return nil, err
	}
	cl, err := openColumnar(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		return nil, err
	}
	got := &Layer{}
	if err := cl.decodeInto(got, maskAll); err != nil {
		return nil, err
	}
	return got, nil
}
