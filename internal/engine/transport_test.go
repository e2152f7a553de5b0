package engine

import (
	"context"
	"testing"

	"ariadne/internal/graph"
	"ariadne/internal/value"
)

// TestExecutorRejectsBadRequests feeds the executor one request of every
// malformed shape a corrupt or hostile frame could decode to. Each must be
// refused with an error instead of panicking or touching resident state:
// afterwards a fresh superstep-0 delta request still runs, which it could
// not if a rejected seed had moved the partition's ready superstep.
func TestExecutorRejectsBadRequests(t *testing.T) {
	g, err := graph.NewFromEdges(10, nil)
	if err != nil {
		t.Fatal(err)
	}
	const parts = 3 // partition 1 owns vertices 1, 4, 7: stride 3
	x, err := NewExecutor(g, probeProg{f: func(*Context) {}}, Config{Partitions: parts})
	if err != nil {
		t.Fatal(err)
	}
	seed := func(mut func(*ExecRequest)) *ExecRequest {
		req := &ExecRequest{
			Superstep: 5, Partition: 1, Mode: ModeSeed,
			Active:    []VertexID{1, 7},
			AllValues: []value.Value{value.NewInt(0), value.NewInt(0), value.NewInt(0)},
			AllActive: []int32{-1, -1, -1},
			Inbox:     [][]IncomingMessage{nil, nil},
		}
		mut(req)
		return req
	}
	delta := func(mut func(*ExecRequest)) *ExecRequest {
		req := &ExecRequest{Superstep: 0, Partition: 1, Mode: ModeDelta, Active: []VertexID{1, 4, 7}}
		mut(req)
		return req
	}
	for name, req := range map[string]*ExecRequest{
		"zero mode":             delta(func(r *ExecRequest) { r.Mode = 0 }),
		"unknown mode":          delta(func(r *ExecRequest) { r.Mode = ModeSeed + 1 }),
		"partition negative":    delta(func(r *ExecRequest) { r.Partition = -1 }),
		"partition too large":   delta(func(r *ExecRequest) { r.Partition = parts }),
		"negative superstep":    delta(func(r *ExecRequest) { r.Superstep = -1 }),
		"active out of range":   delta(func(r *ExecRequest) { r.Active = []VertexID{1, 4, 10} }),
		"active not owned":      delta(func(r *ExecRequest) { r.Active = []VertexID{1, 5} }),
		"active descending":     delta(func(r *ExecRequest) { r.Active = []VertexID{7, 4} }),
		"active duplicate":      delta(func(r *ExecRequest) { r.Active = []VertexID{4, 4} }),
		"seed values short":     seed(func(r *ExecRequest) { r.AllValues = r.AllValues[:2] }),
		"seed marks long":       seed(func(r *ExecRequest) { r.AllActive = append(r.AllActive, -1) }),
		"seed inbox misaligned": seed(func(r *ExecRequest) { r.Inbox = r.Inbox[:1] }),
	} {
		t.Run(name, func(t *testing.T) {
			res, err := x.Exec(context.Background(), req)
			if err == nil {
				t.Fatalf("accepted a malformed request: %+v", res)
			}
			ok, err := x.Exec(context.Background(), delta(func(*ExecRequest) {}))
			if err != nil || ok.StateMiss || ok.Crash != nil {
				t.Fatalf("valid request after the rejection: res %+v, err %v", ok, err)
			}
		})
	}
}

// TestExecutorRefusesMalformedDeliver pins the delivery-round guards: a
// partition out of range, or expected counts and fragments not sized to
// the partition count, come back not OK instead of indexing out of range.
func TestExecutorRefusesMalformedDeliver(t *testing.T) {
	g, err := graph.NewFromEdges(6, nil)
	if err != nil {
		t.Fatal(err)
	}
	x, err := NewExecutor(g, probeProg{f: func(*Context) {}}, Config{Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	two := make([]int64, 2)
	frags := make([][]OutMessage, 2)
	for name, dp := range map[string]*DeliverPart{
		"assemble partition negative":  x.Assemble(0, -1, false, two, frags),
		"assemble partition too large": x.Assemble(0, 2, false, two, frags),
		"assemble expected too long":   x.Assemble(0, 0, false, make([]int64, 3), frags),
		"assemble frags too short":     x.Assemble(0, 0, false, two, frags[:1]),
		"collect partition too large":  x.Collect(0, 2),
	} {
		if dp.OK {
			t.Errorf("%s: served a malformed round", name)
		}
	}
	if dp := x.Collect(0, 1); !dp.OK || len(dp.Values) != 3 {
		t.Errorf("valid collect after the refusals: %+v", dp)
	}
}
