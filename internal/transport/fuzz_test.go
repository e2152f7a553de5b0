package transport

import (
	"bytes"
	"testing"

	"ariadne/internal/engine"
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
