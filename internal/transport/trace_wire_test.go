package transport

import (
	"reflect"
	"testing"

	"ariadne/internal/engine"
	"ariadne/internal/obs"
	"ariadne/internal/value"
)

// Trace context rides in every ExecRequest, and worker-side spans
// piggyback on every ExecResult — including crash results, whose span
// section is simply empty.

func TestWireTraceContextRoundTrip(t *testing.T) {
	req := &engine.ExecRequest{
		Superstep: 2, Partition: 0, Mode: engine.ModeDelta,
		Active:  []engine.VertexID{3},
		TraceID: 0xdeadbeef, ParentSpan: 77,
	}
	rt, err := decodeExecRequest(encodeExecRequest(req))
	if err != nil {
		t.Fatal(err)
	}
	if rt.TraceID != req.TraceID || rt.ParentSpan != req.ParentSpan {
		t.Fatalf("trace context lost: got (%#x, %d), want (%#x, %d)",
			rt.TraceID, rt.ParentSpan, req.TraceID, req.ParentSpan)
	}
	if !reflect.DeepEqual(req, rt) {
		t.Fatalf("roundtrip mismatch:\n  in  %+v\n  out %+v", req, rt)
	}
}

func TestWireResultSpanRoundTrip(t *testing.T) {
	res := &engine.ExecResult{
		Partition: 1,
		Outbox:    [][]engine.OutMessage{nil, {{Src: 4, Dst: 1, Val: value.NewFloat(0.5)}}},
		DstCounts: []int64{0, 1},
		Spans: []obs.Span{
			{TraceID: 9, Parent: 4, Proc: "worker:a", Name: obs.SpanDecode,
				Superstep: 2, Partition: 1, Start: 12345, Dur: 10, Bytes: 99},
			{TraceID: 9, Parent: 4, Proc: "worker:a", Name: obs.SpanWorkerCompute,
				Superstep: 2, Partition: 1, Start: 12355, Dur: 20, Tuples: 1},
		},
	}
	rt, err := decodeExecResult(encodeExecResult(res))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, rt) {
		t.Fatalf("roundtrip mismatch:\n  in  %+v\n  out %+v", res, rt)
	}

	// Crash results carry an (empty) span section too — the decoder must not
	// trip over it.
	crash := &engine.ExecResult{Partition: 0, Crash: &engine.RemoteCrash{
		Vertex: 1, Superstep: 3, Message: "boom",
	}}
	rt, err = decodeExecResult(encodeExecResult(crash))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(crash, rt) {
		t.Fatalf("crash roundtrip mismatch:\n  in  %+v\n  out %+v", crash, rt)
	}

	// Untraced results must encode a zero-length span section, not omit it.
	plain := &engine.ExecResult{Partition: 0, Outbox: [][]engine.OutMessage{}}
	rt, err = decodeExecResult(encodeExecResult(plain))
	if err != nil {
		t.Fatal(err)
	}
	if len(rt.Spans) != 0 {
		t.Fatalf("untraced result grew spans: %+v", rt.Spans)
	}
}
