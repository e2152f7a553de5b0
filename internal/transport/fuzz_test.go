package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"

	"ariadne/internal/engine"
	"ariadne/internal/obs"
	"ariadne/internal/value"
)

// FuzzExecRequestDecode drives the exec-request decoder — the first thing a
// worker runs on bytes from the network — with arbitrary payloads. The
// corpus is seeded with real encodings of a delta, a seed, and a traced
// request, so mutations start from structurally valid frames. The
// invariants: decode never panics and never over-allocates (every count is
// bounded by the bytes left); it returns a request or a clean error; and a
// decoded request re-encodes to bytes that decode to the same request.
// Equality is checked on the canonical re-encoding rather than with
// reflect.DeepEqual, which would reject NaN values that round-trip
// bit-exactly.
//
// CI runs this as a 30s smoke via `go test -fuzz FuzzExecRequestDecode`.
func FuzzExecRequestDecode(f *testing.F) {
	for _, req := range []*engine.ExecRequest{
		{Superstep: 4, Partition: 2, Mode: engine.ModeDelta, Observing: true, Combine: true,
			Active: []engine.VertexID{2, 6, 14},
			Route:  []string{"", ".", "10.0.0.2:9", "."},
			Agg:    map[string]float64{"mass": 0.75}},
		{Superstep: 5, Partition: 1, Mode: engine.ModeSeed,
			Active: []engine.VertexID{1, 9},
			Route:  []string{".", "", ".", "host:1"},
			AllValues: []value.Value{
				value.NewFloat(0.5), value.NewVector([]float64{1, 2}), value.NewString("s"),
			},
			AllActive: []int32{-1, 4, 0},
			Inbox: [][]engine.IncomingMessage{
				{{Src: 3, Val: value.NewFloat(0.25)}},
				nil,
			}},
		{Superstep: 2, Partition: 0, Mode: engine.ModeDelta,
			Active:  []engine.VertexID{3},
			TraceID: 0xdeadbeef, ParentSpan: 77},
	} {
		f.Add(encodeExecRequest(req))
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := decodeExecRequest(data)
		if err != nil {
			if req != nil {
				t.Fatal("decode returned both a request and an error")
			}
			return
		}
		if req.Mode != engine.ModeDelta && req.Mode != engine.ModeSeed {
			t.Fatalf("decode accepted mode %d", req.Mode)
		}
		enc := encodeExecRequest(req)
		again, err := decodeExecRequest(enc)
		if err != nil {
			t.Fatalf("re-encoded request does not decode: %v", err)
		}
		if !bytes.Equal(enc, encodeExecRequest(again)) {
			t.Fatalf("request changed across a re-encode round trip:\n  first  %+v\n  second %+v", req, again)
		}
	})
}

// wireDecoders are the reply, barrier and mesh decoders, each paired with
// its encoder so the fuzz target can check that a decoded value re-encodes
// stably.
var wireDecoders = []struct {
	name      string
	roundTrip func([]byte) ([]byte, error)
}{
	{"exec-result", reencode(decodeExecResult, encodeExecResult)},
	{"deliver-request", reencode(decodeDeliverRequest, encodeDeliverRequest)},
	{"deliver-result", reencode(decodeDeliverResult, encodeDeliverResult)},
	{"peer-frag", reencode(decodePeerFrag, encodePeerFrag)},
}

// errBothOrNeither marks a decoder that returned a value and an error
// together, or neither.
var errBothOrNeither = errors.New("decoder must return exactly one of a value or an error")

// reencode decodes p and encodes the result again.
func reencode[T any](decode func([]byte) (*T, error), encode func(*T) []byte) func([]byte) ([]byte, error) {
	return func(p []byte) ([]byte, error) {
		v, err := decode(p)
		if (v != nil) == (err != nil) {
			return nil, errBothOrNeither
		}
		if err != nil {
			return nil, err
		}
		return encode(v), nil
	}
}

// FuzzWireDecode feeds every input to all four remaining wire decoders —
// exec result, deliver request, deliver result, and peer fragment — which
// decode bytes from the master link or the worker mesh. The corpus is
// seeded with a real encoding of each message, so mutations start from
// structurally valid frames for every decoder. The invariants: no decoder
// panics or over-allocates (every count is bounded by the bytes left); each
// returns a value or a clean error; and a decoded value re-encodes to bytes
// that decode and re-encode unchanged.
//
// CI runs this as a 30s smoke via `go test -fuzz FuzzWireDecode`.
func FuzzWireDecode(f *testing.F) {
	vals := []value.Value{value.NewFloat(0.5), value.NewVector([]float64{1, 2}), value.NewString("s")}
	for _, seed := range [][]byte{
		encodeExecResult(&engine.ExecResult{
			Partition: 3,
			Outbox: [][]engine.OutMessage{
				{{Src: 1, Dst: 4, Val: vals[0]}, {Src: 2, Dst: 5, Val: vals[1]}},
				nil,
			},
			Records: []engine.VertexRecord{{
				ID: 7, Superstep: 2, PrevActive: 1, OldValue: vals[0], NewValue: vals[2],
				Received: []engine.IncomingMessage{{Src: 1, Val: vals[0]}},
				Sent:     []engine.SentMessage{{Dst: 9, Val: vals[1]}},
				Emitted:  []engine.ProvFact{{Table: "prov_error", Args: vals}},
			}},
			Sent: 2, CombinedSender: 1,
			Agg:       []engine.AggUpdate{{Name: "mass", Op: 1, Val: 0.75, N: 3}},
			DstCounts: []int64{1, 0, 4},
			Spans:     []obs.Span{{TraceID: 9, SpanID: 2, Proc: "w1", Name: "compute", Partition: 3, Dur: 40}},
		}),
		encodeExecResult(&engine.ExecResult{Partition: 1, Crash: &engine.RemoteCrash{
			Vertex: 5, Superstep: 3, Message: "boom", Panic: true}}),
		encodeExecResult(&engine.ExecResult{Partition: 2, StateMiss: true}),
		encodeDeliverRequest(&engine.DeliverRequest{
			Superstep: 4, Combine: true, Parts: []int{0, 2},
			Expected: [][]int64{{1, 0}, {2, 1}},
			MasterFrags: [][][]engine.OutMessage{
				{{{Src: 1, Dst: 2, Val: vals[0]}}, nil},
				{nil, {{Src: 3, Dst: 6, Val: vals[2]}}},
			},
			TraceID: 0xdeadbeef, ParentSpan: 7,
		}),
		encodeDeliverRequest(&engine.DeliverRequest{Superstep: 5, CollectOnly: true, Parts: []int{1}}),
		encodeDeliverResult(&engine.DeliverResult{Parts: []engine.DeliverPart{
			{Partition: 0, OK: true, Delivered: 3, Combined: 1, Dsts: []engine.VertexID{2, 4},
				Values: vals,
				Inbox:  []engine.InboxChunk{{Dst: 2, Msgs: []engine.IncomingMessage{{Src: 1, Val: vals[0]}}}}},
			{Partition: 1},
		}}),
		encodePeerFrag(&peerFrag{ss: 6, sp: 1, dp: 2, msgs: []engine.OutMessage{{Src: 3, Dst: 8, Val: vals[1]}}}),
	} {
		f.Add(seed)
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, d := range wireDecoders {
			enc, err := d.roundTrip(data)
			if errors.Is(err, errBothOrNeither) {
				t.Fatalf("%s: %v", d.name, err)
			}
			if err != nil {
				continue
			}
			again, err := d.roundTrip(enc)
			if err != nil {
				t.Fatalf("%s: re-encoded value does not decode: %v", d.name, err)
			}
			if !bytes.Equal(enc, again) {
				t.Fatalf("%s: value changed across a re-encode round trip", d.name)
			}
		}
	})
}

// TestWireDecodeHugeCountBounded feeds decodeExecResult a 7-byte payload —
// partition 0, no crash, no state miss — that claims 60M outbox columns. A
// count sized by the sanity cap alone would allocate ~1.4 GB before failing;
// bounded by the bytes left, it must fail without allocating more than a
// trivial amount.
func TestWireDecodeHugeCountBounded(t *testing.T) {
	payload := binary.AppendUvarint([]byte{0, 0, 0}, 60_000_000)
	if len(payload) != 7 {
		t.Fatalf("payload is %d bytes, want 7", len(payload))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := decodeExecResult(payload)
	runtime.ReadMemStats(&after)
	if err == nil || res != nil {
		t.Fatalf("decode = %+v, %v; want a clean error", res, err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("rejecting a 7-byte payload allocated %d bytes", grew)
	}
}
