package eval

import (
	"testing"

	"ariadne/internal/graph"
	"ariadne/internal/pql/analysis"
	"ariadne/internal/queries"
	"ariadne/internal/value"
)

// allocLayers is testGraphAndLayers plus a prov_error and a
// prov_prediction fact per received message, so Query 7's emitted-table
// join has matches to probe, and a vertex 8 without in-edges that receives
// a message every superstep, so Query 4's check fires.
func allocLayers() (*fakeGraph, [][]RecordView) {
	sg, layers := testGraphAndLayers(3)
	sg.n = 9
	for ss := range layers {
		layers[ss] = append(layers[ss], RecordView{
			Vertex: 8, Superstep: int64(ss), HasValue: true, Value: value.NewFloat(1), PrevActive: -1,
			Recvs: []MsgView{{Peer: 0, Val: value.NewFloat(0.5)}},
		})
		for i := range layers[ss] {
			rv := &layers[ss][i]
			for _, m := range rv.Recvs {
				peer := value.NewInt(m.Peer)
				rv.Emitted = append(rv.Emitted,
					FactView{Table: "prov_error", Args: []value.Value{peer, m.Val}},
					FactView{Table: "prov_prediction", Args: []value.Value{peer, value.NewFloat(m.Val.Float()*8 - 2)}})
			}
		}
	}
	return sg, layers
}

// replay evaluates every layer — in descending superstep order for
// backward queries, as layered replay does.
func replay(c *Compiled, layers [][]RecordView) error {
	for i := range layers {
		if c.q.Class == analysis.Backward {
			i = len(layers) - 1 - i
		}
		if err := c.Layer(layers[i]); err != nil {
			return err
		}
	}
	return nil
}

// warmCompiled compiles def and replays the layers once, so a second
// replay derives nothing new. Every query must have derived a result
// tuple, so the second replay re-emits known heads.
func warmCompiled(tb testing.TB, def queries.Definition, sg StaticGraph, layers [][]RecordView) *Compiled {
	tb.Helper()
	c, err := Compile(def.MustBuild(), NewDatabase(), sg)
	if err != nil {
		tb.Fatal(err)
	}
	if err := replay(c, layers); err != nil {
		tb.Fatal(err)
	}
	if err := c.FinishRun(); err != nil {
		tb.Fatal(err)
	}
	results := 0
	for _, pred := range def.ResultPreds {
		results += c.db.Get(pred).Len()
	}
	if results == 0 {
		tb.Fatalf("%s: no result tuples; a replay would not exercise the heads", def.Name)
	}
	return c
}

// allocQueries are the queries whose second replay must not allocate:
// Query 4, Query 7, and Query 10 traced from a vertex of the last layer.
func allocQueries(layers [][]RecordView) []queries.Definition {
	last := layers[len(layers)-1]
	return []queries.Definition{
		queries.PageRankCheck(), queries.ALSRangeCheck(),
		queries.BackwardTrace(graph.VertexID(last[0].Vertex), len(layers)-1),
	}
}

// TestCompiledLayerZeroAllocs pins the compiled record driver's allocation
// contract: re-evaluating layers whose tuples are all known allocates
// nothing (head tuples are allocated only when new), except inside UDFs.
func TestCompiledLayerZeroAllocs(t *testing.T) {
	sg, layers := allocLayers()
	for _, def := range allocQueries(layers) {
		c := warmCompiled(t, def, sg, layers)
		before := c.DerivedTuples()
		if n := testing.AllocsPerRun(20, func() {
			if err := replay(c, layers); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s: %.1f allocs per second replay, want 0", def.Name, n)
		}
		if c.DerivedTuples() != before {
			t.Errorf("%s: second replay derived %d new tuples", def.Name, c.DerivedTuples()-before)
		}
	}

	// apt calls udf_diff once per (value, evolution) match; the UDF may
	// allocate, the program around it may not.
	calls := 0
	diff := func(a, b value.Value) (float64, error) {
		calls++
		return value.AbsDiff(a, b)
	}
	c := warmCompiled(t, queries.Apt(0.5, diff), sg, layers)
	calls = 0
	allocs := testing.AllocsPerRun(20, func() {
		if err := replay(c, layers); err != nil {
			t.Fatal(err)
		}
	})
	perRun := float64(calls) / 21 // AllocsPerRun adds one warm-up run
	if calls == 0 || allocs > perRun {
		t.Errorf("apt: %.1f allocs per second replay, %.1f UDF calls", allocs, perRun)
	}
}

var benchDerived int64

// BenchmarkCompiledLayer replays fully known layers of Query 4, Query 7
// and Query 10 per op; cmd/benchjson gates its allocs/op at 0
// (compiled_layer_allocs).
func BenchmarkCompiledLayer(b *testing.B) {
	sg, layers := allocLayers()
	var cs []*Compiled
	for _, def := range allocQueries(layers) {
		cs = append(cs, warmCompiled(b, def, sg, layers))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range cs {
			if err := replay(c, layers); err != nil {
				b.Fatal(err)
			}
			benchDerived += c.DerivedTuples()
		}
	}
}
