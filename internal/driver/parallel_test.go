package driver

import (
	"fmt"
	"sort"
	"testing"

	"ariadne/internal/capture"
	"ariadne/internal/engine"
	"ariadne/internal/gen"
	"ariadne/internal/graph"
	"ariadne/internal/provenance"
	"ariadne/internal/queries"
	"ariadne/internal/value"
)

// emitProg is SSSP plus per-message analytics facts, so the ALS monitoring
// queries (prov_error / prov_prediction) have data to chew on.
type emitProg struct{ ssspProg }

func (p emitProg) Compute(ctx *engine.Context, msgs []engine.IncomingMessage) error {
	for _, m := range msgs {
		peer := value.NewInt(int64(m.Src))
		e := m.Val.Float()
		ctx.EmitProv("prov_error", peer, value.NewFloat(e))
		ctx.EmitProv("prov_prediction", peer, value.NewFloat(e+4))
	}
	return p.ssspProg.Compute(ctx, msgs)
}

// captureEmitting runs the emitting SSSP under full capture.
func captureEmitting(t *testing.T, scale int) (*graph.Graph, *provenance.Store) {
	t.Helper()
	g, err := gen.RMAT(gen.DefaultRMAT(scale, 4, 23))
	if err != nil {
		t.Fatal(err)
	}
	store := provenance.NewStore(provenance.StoreConfig{})
	obs := capture.NewObserver(capture.FullPolicy(), store)
	e, err := engine.New(g, emitProg{}, engine.Config{Observers: []engine.Observer{obs}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return g, store
}

// resultSig maps each IDB relation to its sorted canonical tuple keys.
func resultSig(res *Result) map[string][]string {
	sig := map[string][]string{}
	for name := range res.q.IDBs {
		rel := res.Relation(name)
		if rel == nil {
			sig[name] = nil
			continue
		}
		keys := make([]string, 0, rel.Len())
		for _, t := range rel.All() {
			keys = append(keys, t.Key())
		}
		sort.Strings(keys)
		sig[name] = keys
	}
	return sig
}

func requireSameSig(t *testing.T, label string, want, got map[string][]string) {
	t.Helper()
	for name, w := range want {
		g := got[name]
		if len(w) != len(g) {
			t.Errorf("%s: %s: %d tuples vs reference %d", label, name, len(g), len(w))
			continue
		}
		for i := range w {
			if w[i] != g[i] {
				t.Errorf("%s: %s: tuple %d differs: %q vs %q", label, name, i, g[i], w[i])
				break
			}
		}
	}
}

// differentialQueries are the paper queries the shard-parallel evaluator
// must reproduce exactly.
func differentialQueries() []queries.Definition {
	return []queries.Definition{
		queries.CaptureForwardLineage(0),
		queries.BackwardTrace(0, 2),
		queries.PageRankCheck(),
		queries.SilentChange(),
		queries.MonotoneCheck(),
		queries.ALSRangeCheck(),
		queries.ALSErrorIncrease(0.01),
	}
}

// TestParallelEvalDifferential pins parallel evaluation (1, 2, and 8
// workers) against the sequential reference leg for the paper queries, in
// both layered and online mode, on the interpretive path the parallel
// rounds apply to. Every derived relation must be tuple-identical.
func TestParallelEvalDifferential(t *testing.T) {
	g, store := captureEmitting(t, 7)
	workerCounts := []int{1, 2, 8}
	var sawParallel bool

	for _, def := range differentialQueries() {
		def := def
		t.Run("layered/"+def.Name, func(t *testing.T) {
			q, err := def.Build()
			if err != nil {
				t.Fatal(err)
			}
			if !q.Class.LayeredEvaluable() {
				t.Skipf("%s is %v, not layered-evaluable", def.Name, q.Class)
			}
			ref, err := Layered(q, store, g, EvalWorkers(1), NoPrefetch(), Interpretive())
			if err != nil {
				t.Fatal(err)
			}
			refSig := resultSig(ref)
			for _, w := range workerCounts {
				q2, err := def.Build()
				if err != nil {
					t.Fatal(err)
				}
				res, err := Layered(q2, store, g, EvalWorkers(w), Interpretive())
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				requireSameSig(t, fmt.Sprintf("workers=%d", w), refSig, resultSig(res))
				if res.Facts != ref.Facts {
					t.Errorf("workers=%d: fed %d facts vs reference %d", w, res.Facts, ref.Facts)
				}
				if s := res.EvalStats(); s.ParallelRounds > 0 {
					sawParallel = true
				}
			}
			// The default leg (compiled when possible, prefetch on) must
			// agree on the answer predicates.
			q3, err := def.Build()
			if err != nil {
				t.Fatal(err)
			}
			res, err := Layered(q3, store, g)
			if err != nil {
				t.Fatal(err)
			}
			defSig := resultSig(res)
			for _, pred := range def.ResultPreds {
				requireSameSig(t, "default-leg", map[string][]string{pred: refSig[pred]}, defSig)
			}
		})

		t.Run("online/"+def.Name, func(t *testing.T) {
			q, err := def.Build()
			if err != nil {
				t.Fatal(err)
			}
			if !q.Class.OnlineEvaluable() {
				t.Skipf("%s is %v, not online-evaluable", def.Name, q.Class)
			}
			runOnline := func(opts ...EvalOpt) *Result {
				t.Helper()
				oq, err := def.Build()
				if err != nil {
					t.Fatal(err)
				}
				o, err := NewOnline(oq, g, opts...)
				if err != nil {
					t.Fatal(err)
				}
				e, err := engine.New(g, emitProg{}, engine.Config{Observers: []engine.Observer{o}})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := e.Run(); err != nil {
					t.Fatal(err)
				}
				return o.Result()
			}
			refSig := resultSig(runOnline(EvalWorkers(1), NoPrefetch(), Interpretive()))
			for _, w := range workerCounts {
				res := runOnline(EvalWorkers(w), Interpretive())
				requireSameSig(t, fmt.Sprintf("workers=%d", w), refSig, resultSig(res))
				if s := res.EvalStats(); s.ParallelRounds > 0 {
					sawParallel = true
				}
			}
		})
	}

	if !sawParallel {
		t.Error("no query ran any parallel rounds — the differential never exercised the parallel path")
	}
}

// TestParallelSelfDeterminismLayered pins the canonical-merge guarantee at
// the driver level: two identical parallel layered runs produce relations
// in identical insertion order, not just identical sets.
func TestParallelSelfDeterminismLayered(t *testing.T) {
	g, store := captureEmitting(t, 6)
	run := func() *Result {
		q, err := queries.CaptureForwardLineage(0).Build()
		if err != nil {
			t.Fatal(err)
		}
		res, err := Layered(q, store, g, EvalWorkers(4), Interpretive())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	for name := range a.q.IDBs {
		ra, rb := a.Relation(name), b.Relation(name)
		ta, tb := ra.All(), rb.All()
		if len(ta) != len(tb) {
			t.Fatalf("%s: %d vs %d tuples", name, len(ta), len(tb))
		}
		for i := range ta {
			if ta[i].Key() != tb[i].Key() {
				t.Errorf("%s: insertion order diverges at %d: %q vs %q", name, i, ta[i].Key(), tb[i].Key())
				break
			}
		}
	}
}

// TestPrefetchDisabledMatches pins NoPrefetch (synchronous layer loading)
// against the pipelined default.
func TestPrefetchDisabledMatches(t *testing.T) {
	g, store := captureEmitting(t, 6)
	build := func() *Result {
		q, err := queries.MonotoneCheck().Build()
		if err != nil {
			t.Fatal(err)
		}
		res, err := Layered(q, store, g, Interpretive())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	q2, err := queries.MonotoneCheck().Build()
	if err != nil {
		t.Fatal(err)
	}
	noPre, err := Layered(q2, store, g, Interpretive(), NoPrefetch())
	if err != nil {
		t.Fatal(err)
	}
	requireSameSig(t, "no-prefetch", resultSig(build()), resultSig(noPre))
}
