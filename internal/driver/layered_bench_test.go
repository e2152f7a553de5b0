package driver

import (
	"testing"

	"ariadne/internal/capture"
	"ariadne/internal/engine"
	"ariadne/internal/gen"
	"ariadne/internal/graph"
	"ariadne/internal/provenance"
	"ariadne/internal/queries"
)

// benchCapture runs SSSP under full capture on a spilling store, so the
// layered legs pay the real decode cost the prefetcher hides.
func benchCapture(b *testing.B, scale int) (*graph.Graph, *provenance.Store) {
	b.Helper()
	g, err := gen.RMAT(gen.DefaultRMAT(scale, 6, 7))
	if err != nil {
		b.Fatal(err)
	}
	store := provenance.NewStore(provenance.StoreConfig{SpillDir: b.TempDir(), SpillAll: true})
	obs := capture.NewObserver(capture.FullPolicy(), store)
	e, err := engine.New(g, ssspProg{}, engine.Config{Observers: []engine.Observer{obs}})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		b.Fatal(err)
	}
	return g, store
}

// BenchmarkLayeredEval compares the layered driver's full run (decode +
// replay + evaluation) between the seed sequential path and the pipelined
// shard-parallel path, on the interpretive evaluator. benchjson derives
// layered_run_speedup from the sequential/pipelined ns/op ratio.
func BenchmarkLayeredEval(b *testing.B) {
	g, store := benchCapture(b, 9)
	defer store.Close()
	def := queries.MonotoneCheck()
	run := func(b *testing.B, opts ...EvalOpt) {
		b.ReportAllocs()
		var facts int64
		for i := 0; i < b.N; i++ {
			q, err := def.Build()
			if err != nil {
				b.Fatal(err)
			}
			res, err := Layered(q, store, g, opts...)
			if err != nil {
				b.Fatal(err)
			}
			facts = res.Facts
		}
		b.ReportMetric(float64(facts)*float64(b.N)/b.Elapsed().Seconds(), "facts/s")
	}
	b.Run("sequential", func(b *testing.B) { run(b, EvalWorkers(1), NoPrefetch(), Interpretive()) })
	b.Run("pipelined", func(b *testing.B) { run(b, EvalWorkers(8), Interpretive()) })
}
