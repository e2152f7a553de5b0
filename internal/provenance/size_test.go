package provenance

import (
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"

	"ariadne/internal/value"
)

// rowBytes is the exact size of l in the v1 row layout documented in
// spill.go — the logical size EncodedSize estimates. TestEncodedSizeMatchesEncoding
// pins it to the committed v1 fixtures' file sizes.
func rowBytes(l *Layer) int64 {
	uv := func(x int) int64 { return int64(len(binary.AppendUvarint(nil, uint64(x)))) }
	msgs := func(ms []MsgHalf) int64 {
		n := uv(len(ms))
		for _, m := range ms {
			n += uv(int(m.Peer)) + int64(m.Val.EncodedSize())
		}
		return n
	}
	n := int64(len(layerMagic)+1) + uv(l.Superstep) + uv(len(l.Records))
	for i := range l.Records {
		r := &l.Records[i]
		n += uv(int(r.Vertex)) + uv(int(r.PrevActive)+1) + 1
		if r.HasValue {
			n += int64(r.Value.EncodedSize())
		}
		n += msgs(r.Sends) + msgs(r.Recvs) + uv(len(r.Emitted))
		for _, f := range r.Emitted {
			n += uv(len(f.Table)) + int64(len(f.Table)) + uv(len(f.Args))
			for _, a := range f.Args {
				n += int64(a.EncodedSize())
			}
		}
	}
	return n
}

// TestEncodedSizeMatchesEncoding checks that the analytic EncodedSize
// matches the byte length of the row layout, record by record, within the
// per-record varint slack the estimate allows.
func TestEncodedSizeMatchesEncoding(t *testing.T) {
	for _, fx := range v1Fixtures {
		if got, want := rowBytes(fx.want()), int64(len(readV1Fixture(t, fx.file))); got != want {
			t.Fatalf("%s: rowBytes %d, file holds %d bytes", fx.file, got, want)
		}
	}
	rng := rand.New(rand.NewSource(17))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		l := &Layer{Superstep: r.Intn(100)}
		for i := 0; i < 1+r.Intn(20); i++ {
			rec := Record{
				Vertex:     VertexID(r.Intn(1 << 16)),
				PrevActive: int32(r.Intn(12) - 1),
				HasValue:   r.Intn(4) != 0,
				SentAny:    r.Intn(2) == 0,
			}
			switch r.Intn(4) {
			case 0:
				rec.Value = value.NewFloat(r.NormFloat64())
			case 1:
				rec.Value = value.NewInt(r.Int63n(1 << 40))
			case 2:
				rec.Value = value.NewString("label-1234")
			default:
				vec := make([]float64, 1+r.Intn(8))
				for j := range vec {
					vec[j] = r.Float64()
				}
				rec.Value = value.NewVector(vec)
			}
			for j := 0; j < r.Intn(6); j++ {
				rec.Sends = append(rec.Sends, MsgHalf{Peer: VertexID(r.Intn(1 << 16)), Val: value.NewFloat(r.Float64())})
			}
			for j := 0; j < r.Intn(6); j++ {
				rec.Recvs = append(rec.Recvs, MsgHalf{Peer: VertexID(r.Intn(1 << 16)), Val: value.NewFloat(r.Float64())})
			}
			if r.Intn(3) == 0 {
				rec.Emitted = append(rec.Emitted, Fact{
					Table: "prov_error",
					Args:  []value.Value{value.NewInt(int64(r.Intn(100))), value.NewFloat(r.Float64())},
				})
			}
			l.Records = append(l.Records, rec)
		}
		actual := rowBytes(l)
		est := l.EncodedSize()
		// The estimate over-allocates varint headroom (up to ~12 bytes per
		// record plus message-peer slack); it must never undercount and
		// never exceed 2x.
		if est < actual {
			t.Logf("seed %d: estimate %d < actual %d", seed, est, actual)
			return false
		}
		return est <= 2*actual+64
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestValueEncodedSizeExact(t *testing.T) {
	vals := []value.Value{
		value.NullValue,
		value.NewBool(true),
		value.NewInt(-1),
		value.NewFloat(3.25),
		value.NewString(""),
		value.NewString("hello"),
		value.NewVector(nil),
		value.NewVector(make([]float64, 300)), // multi-byte uvarint length
	}
	for _, v := range vals {
		got := v.EncodedSize()
		actual := len(v.AppendBinary(nil))
		if got != actual {
			t.Errorf("%v (%v): EncodedSize %d, actual %d", v, v.Kind(), got, actual)
		}
	}
}
