package ariadne_test

import (
	"reflect"
	"testing"

	"ariadne"
	"ariadne/internal/analytics"
	"ariadne/internal/engine"
	"ariadne/internal/provenance"
	"ariadne/internal/queries"
)

// TestStoreFormatDifferential is the non-interference check for the
// columnar spill path and projection pushdown: for each paper monitoring
// query, the same analytic run captured under full policy into a resident
// (unspilled) store and into a store that spills every layer as columnar
// files must produce identical online results, identical analytic values,
// the same layers tuple for tuple, zero capture gaps, and — replayed
// layered with projection pushdown on and off — identical offline results
// across all four store × projection legs. Run under -race in CI, which
// also exercises the prefetch pipeline's projected reloads for data races.
func TestStoreFormatDifferential(t *testing.T) {
	cases := []struct {
		name    string
		prog    engine.Program
		steps   int
		online  []queries.Definition
		offline []queries.Definition
	}{
		{"pagerank", &analytics.PageRank{Iterations: 8}, 9,
			[]queries.Definition{queries.PageRankCheck()},
			[]queries.Definition{queries.PageRankCheck(), queries.BackwardTrace(3, 6)}},
		{"sssp", &analytics.SSSP{Source: 0}, 30,
			[]queries.Definition{queries.MonotoneCheck()},
			[]queries.Definition{queries.MonotoneCheck()}},
		{"wcc", analytics.WCC{}, 30,
			[]queries.Definition{queries.SilentChange()},
			[]queries.Definition{queries.SilentChange()}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := testGraph(t, 7, 5, 9)
			run := func(leg string, cfg ariadne.StoreConfig) *ariadne.Result {
				opts := []ariadne.Option{
					ariadne.WithMaxSupersteps(tc.steps),
					ariadne.WithCaptureQuery(queries.CaptureFull(), cfg),
				}
				for _, d := range tc.online {
					opts = append(opts, ariadne.WithOnlineQuery(d))
				}
				res, err := ariadne.Run(g, tc.prog, opts...)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { res.Provenance.Close() })
				if len(res.CaptureGaps) != 0 {
					t.Fatalf("%s store: capture gaps %v on an undisturbed run", leg, res.CaptureGaps)
				}
				return res
			}
			mem := run("resident", ariadne.StoreConfig{})
			disk := run("spilled", ariadne.StoreConfig{SpillAll: true, SpillDir: t.TempDir()})
			if mem.Provenance.SpilledLayers() != 0 || disk.Provenance.SpilledLayers() != disk.Provenance.NumLayers() {
				t.Fatalf("spilled layers: resident store %d, spilling store %d of %d",
					mem.Provenance.SpilledLayers(), disk.Provenance.SpilledLayers(), disk.Provenance.NumLayers())
			}

			// Spilling must not touch the analytic: values bit-identical.
			for v := range mem.Values {
				if !bitIdentical(mem.Values[v], disk.Values[v]) {
					t.Fatalf("vertex %d value %v (resident run) != %v (spilled run)", v, mem.Values[v], disk.Values[v])
				}
			}
			// Nor the capture: both stores hold the same layers tuple for tuple.
			assertSameLayers(t, mem.Provenance, disk.Provenance)

			// Online results agree across stores.
			for _, d := range tc.online {
				assertSameQueryResult(t, "online/"+d.Name,
					mem.Query(d.Name), disk.Query(d.Name))
			}

			// Offline layered replay: the resident store without projection
			// is the reference leg; the resident store projected, and the
			// spilled store unprojected and projected (column-level partial
			// reads) must all agree with it.
			for _, d := range tc.offline {
				ref, err := ariadne.QueryOffline(d, mem.Provenance, g, ariadne.ModeLayered, 0,
					ariadne.NoProjection())
				if err != nil {
					t.Fatal(err)
				}
				legs := []struct {
					name  string
					store *ariadne.Store
					opts  []ariadne.EvalOption
				}{
					{"resident/projected", mem.Provenance, nil},
					{"spilled/unprojected", disk.Provenance, []ariadne.EvalOption{ariadne.NoProjection()}},
					{"spilled/projected", disk.Provenance, nil},
				}
				for _, leg := range legs {
					got, err := ariadne.QueryOffline(d, leg.store, g, ariadne.ModeLayered, 0, leg.opts...)
					if err != nil {
						t.Fatalf("%s/%s: %v", d.Name, leg.name, err)
					}
					assertSameQueryResult(t, d.Name+"/"+leg.name, ref, got)
				}
			}
		})
	}
}

// assertSameLayers checks two stores hold the same layers, record for
// record and value bit for value bit. An empty and an absent message, fact
// or argument list are the same provenance: a resident layer keeps the
// slices capture built, a reloaded one those the file decoder made.
func assertSameLayers(t *testing.T, want, got *ariadne.Store) {
	t.Helper()
	if want.NumLayers() != got.NumLayers() || want.TotalTuples() != got.TotalTuples() {
		t.Fatalf("stores hold %d layers / %d tuples vs %d / %d",
			got.NumLayers(), got.TotalTuples(), want.NumLayers(), want.TotalTuples())
	}
	for i := 0; i < want.NumLayers(); i++ {
		lw, err := want.Layer(i)
		if err != nil {
			t.Fatal(err)
		}
		lg, err := got.Layer(i)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(canonicalLayer(lw), canonicalLayer(lg)) {
			t.Fatalf("provenance layer %d differs between stores", i)
		}
	}
}

// canonicalLayer copies l with every empty list replaced by nil.
func canonicalLayer(l *provenance.Layer) *provenance.Layer {
	out := &provenance.Layer{Superstep: l.Superstep, Records: make([]provenance.Record, len(l.Records))}
	for i, r := range l.Records {
		r.Sends = nilIfEmpty(r.Sends)
		r.Recvs = nilIfEmpty(r.Recvs)
		var facts []provenance.Fact
		for _, f := range r.Emitted {
			f.Args = nilIfEmpty(f.Args)
			facts = append(facts, f)
		}
		r.Emitted = facts
		out.Records[i] = r
	}
	return out
}

func nilIfEmpty[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return s
}

// assertSameQueryResult checks got derives exactly the same relations as
// ref, tuple for tuple.
func assertSameQueryResult(t *testing.T, leg string, ref, got *ariadne.QueryResult) {
	t.Helper()
	if ref == nil || got == nil {
		t.Errorf("%s: missing query result (ref %v, got %v)", leg, ref != nil, got != nil)
		return
	}
	refRels, gotRels := ref.DerivedRelations(), got.DerivedRelations()
	if !reflect.DeepEqual(refRels, gotRels) {
		t.Errorf("%s: derived relations %v != %v", leg, gotRels, refRels)
		return
	}
	for _, ri := range refRels {
		r, g := ref.Relation(ri.Name), got.Relation(ri.Name)
		for _, tup := range r.All() {
			if !g.Contains(tup) {
				t.Errorf("%s: %s tuple %v missing", leg, ri.Name, tup)
			}
		}
	}
}
