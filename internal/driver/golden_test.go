package driver

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"sort"
	"testing"

	"ariadne/internal/analytics"
	"ariadne/internal/capture"
	"ariadne/internal/engine"
	"ariadne/internal/gen"
	"ariadne/internal/graph"
	"ariadne/internal/provenance"
	"ariadne/internal/queries"
	"ariadne/internal/value"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/compiled_golden.json from this build")

const goldenPath = "../../testdata/compiled_golden.json"

// goldenRel pins one result relation: its size and a hash of its tuples'
// canonical keys in insertion order (Relation.All()).
type goldenRel struct {
	Len  int    `json:"len"`
	Hash string `json:"hash"`
}

// goldenCase pins one compiled evaluation: every IDB relation, the
// compiled counters, and the compiled SaveState bytes (drive cursors).
type goldenCase struct {
	Relations map[string]goldenRel `json:"relations"`
	Derived   int64                `json:"derived"`
	Records   int64                `json:"records"`
	State     string               `json:"state"`
}

func goldenOf(t *testing.T, res *Result) goldenCase {
	t.Helper()
	if res.compiled == nil {
		t.Fatal("query did not run on the compiled path")
	}
	gc := goldenCase{Relations: map[string]goldenRel{}}
	names := make([]string, 0, len(res.q.IDBs))
	for name := range res.q.IDBs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		rel := res.Relation(name)
		h := sha256.New()
		n := 0
		if rel != nil {
			for _, tup := range rel.All() {
				k := tup.Key()
				var lenBuf [4]byte
				binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(k)))
				h.Write(lenBuf[:])
				h.Write([]byte(k))
			}
			n = rel.Len()
		}
		gc.Relations[name] = goldenRel{Len: n, Hash: hex.EncodeToString(h.Sum(nil))[:16]}
	}
	gc.Derived = res.compiled.DerivedTuples()
	gc.Records = res.compiled.Records()
	w := value.NewBlob()
	res.compiled.SaveState(w)
	gc.State = hex.EncodeToString(w.Bytes())
	return gc
}

// chaosProg is a deliberately misbehaving analytic: values jump up and down
// without messages, some messages are negative or go to vertices that have
// no in-edges, and emitted errors/predictions leave the rating range. It
// makes every monitoring query's failure rules derive tuples, which the
// well-behaved analytics never do.
type chaosProg struct{}

func (chaosProg) InitialValue(_ *graph.Graph, v engine.VertexID) value.Value {
	return value.NewFloat(float64(v % 5))
}

func (chaosProg) Compute(ctx *engine.Context, msgs []engine.IncomingMessage) error {
	h := uint64(ctx.ID())*2654435761 + uint64(ctx.Superstep())*40503
	h ^= h >> 13
	if h%3 != 0 {
		ctx.SetValue(value.NewFloat(float64(h%7) - 2))
	}
	dst, _ := ctx.OutNeighbors()
	for i, d := range dst {
		if (h>>uint(i%16))&1 == 0 {
			ctx.SendMessage(d, value.NewFloat(float64(h%5)-1))
			ctx.EmitProv("prov_error", value.NewInt(int64(d)), value.NewFloat(float64(h%9)-2))
		}
	}
	if h%4 == 0 {
		ctx.SendMessage(engine.VertexID(h%uint64(ctx.NumVertices())), value.NewFloat(1))
	}
	for _, m := range msgs {
		ctx.EmitProv("prov_prediction", value.NewInt(int64(m.Src)), value.NewFloat(m.Val.Float()*3))
		ctx.EmitProv("prov_error", value.NewInt(int64(m.Src)), m.Val)
	}
	return nil
}

// runGoldenAnalytic runs prog once under full capture with the online
// observers attached and returns the captured store.
// activeAt, when set, forces vertices to compute without messages.
func runGoldenAnalytic(t *testing.T, g *graph.Graph, prog engine.Program, steps int, activeAt func(int) []engine.VertexID, online []*Online) *provenance.Store {
	t.Helper()
	store := provenance.NewStore(provenance.StoreConfig{})
	observers := []engine.Observer{capture.NewObserver(capture.FullPolicy(), store)}
	for _, o := range online {
		observers = append(observers, o)
	}
	e, err := engine.New(g, prog, engine.Config{MaxSupersteps: steps, Partitions: 4, ActiveAt: activeAt, Observers: observers})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return store
}

// TestCompiledGolden pins the compiled query vertex programs' observable
// output — result relations in insertion order, DerivedTuples, Records and
// the SaveState drive cursors — for every canned query that compiles, online
// and layered over a full capture, against committed golden values.
func TestCompiledGolden(t *testing.T) {
	web, err := gen.RMAT(gen.DefaultRMAT(7, 6, 5))
	if err != nil {
		t.Fatal(err)
	}
	web.BuildInEdges()
	ratings, err := gen.Bipartite(gen.DefaultBipartite(60, 20, 5, 3))
	if err != nil {
		t.Fatal(err)
	}
	ratings.Graph.BuildInEdges()
	// The chaos graph is unconnected (some vertices have no in-edges) and
	// its weights leave the [0, 5] rating range.
	sparse, err := gen.RMAT(gen.RMATConfig{Scale: 7, EdgesPer: 2, A: 0.57, B: 0.19, C: 0.19, Seed: 9, MinWeight: -2, MaxWeight: 7})
	if err != nil {
		t.Fatal(err)
	}
	sparse.BuildInEdges()
	everyOther := func(ss int) []engine.VertexID {
		if ss%2 == 1 {
			return nil
		}
		all := make([]engine.VertexID, sparse.NumVertices())
		for i := range all {
			all[i] = engine.VertexID(i)
		}
		return all
	}

	type analytic struct {
		name  string
		g     *graph.Graph
		prog  func() engine.Program
		steps int
		// activeAt forces activations (chaos only); nil leaves the
		// analytic's own message-driven schedule.
		activeAt func(int) []engine.VertexID
		defs     []queries.Definition
	}
	analyticsUnderTest := []analytic{
		{"pagerank", web, func() engine.Program { return &analytics.PageRank{Iterations: 8} }, 9, nil,
			[]queries.Definition{queries.Apt(0.01, nil), queries.PageRankCheck()}},
		{"sssp", web, func() engine.Program { return &analytics.SSSP{} }, 30, nil,
			[]queries.Definition{queries.CaptureForwardLineage(0), queries.MonotoneCheck()}},
		{"wcc", web, func() engine.Program { return analytics.WCC{} }, 30, nil,
			[]queries.Definition{queries.SilentChange()}},
		{"als", ratings.Graph, func() engine.Program {
			return &analytics.ALS{NumUsers: ratings.NumUsers, Features: 3, Tol: -1, Seed: 7}
		}, 6, nil, []queries.Definition{queries.ALSRangeCheck()}},
		{"chaos", sparse, func() engine.Program { return chaosProg{} }, 8, everyOther, []queries.Definition{
			queries.Apt(0.5, nil), queries.CaptureForwardLineage(0), queries.PageRankCheck(),
			queries.MonotoneCheck(), queries.SilentChange(), queries.ALSRangeCheck(),
		}},
	}

	got := map[string]goldenCase{}
	for _, a := range analyticsUnderTest {
		var online []*Online
		for _, def := range a.defs {
			o, err := NewOnline(def.MustBuild(), a.g)
			if err != nil {
				t.Fatal(err)
			}
			online = append(online, o)
		}
		store := runGoldenAnalytic(t, a.g, a.prog(), a.steps, a.activeAt, online)
		for i, def := range a.defs {
			got[a.name+"/"+def.Name+"/online"] = goldenOf(t, online[i].Result())
			res, err := Layered(def.MustBuild(), store, a.g)
			if err != nil {
				t.Fatal(err)
			}
			got[a.name+"/"+def.Name+"/layered"] = goldenOf(t, res)
		}
		if a.name == "pagerank" || a.name == "chaos" {
			// Query 10 is backward: layered only, from a vertex of the last
			// non-empty layer.
			alpha, sigma := lastLayerVertex(t, store)
			res, err := Layered(queries.BackwardTrace(alpha, sigma).MustBuild(), store, a.g)
			if err != nil {
				t.Fatal(err)
			}
			got[a.name+"/q10-backward-trace/layered"] = goldenOf(t, res)
		}
	}

	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-golden)", err)
	}
	want := map[string]goldenCase{}
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden has %d cases, run produced %d", len(want), len(got))
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Errorf("%s: missing from run", name)
			continue
		}
		for rel, wr := range w.Relations {
			if gr := g.Relations[rel]; gr != wr {
				t.Errorf("%s: relation %s = %+v, golden %+v", name, rel, gr, wr)
			}
		}
		if len(g.Relations) != len(w.Relations) {
			t.Errorf("%s: %d relations, golden %d", name, len(g.Relations), len(w.Relations))
		}
		if g.Derived != w.Derived || g.Records != w.Records || g.State != w.State {
			t.Errorf("%s: derived/records/state = %d/%d/%s, golden %d/%d/%s",
				name, g.Derived, g.Records, g.State, w.Derived, w.Records, w.State)
		}
	}
}

// lastLayerVertex returns the first vertex of the store's last non-empty
// layer and that layer's index.
func lastLayerVertex(t *testing.T, store *provenance.Store) (graph.VertexID, int) {
	t.Helper()
	for i := store.NumLayers() - 1; i >= 0; i-- {
		l, err := store.Layer(i)
		if err != nil {
			t.Fatal(err)
		}
		if len(l.Records) > 0 {
			return l.Records[0].Vertex, i
		}
	}
	t.Fatal("empty store")
	return 0, 0
}
