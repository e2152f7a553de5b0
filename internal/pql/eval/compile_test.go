package eval

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"ariadne/internal/pql"
	"ariadne/internal/pql/analysis"
	"ariadne/internal/queries"
	"ariadne/internal/value"
)

// fakeGraph is a tiny StaticGraph for compiler tests.
type fakeGraph struct {
	n    int
	out  map[int64][]int64
	outW map[int64][]float64
	w    map[[2]int64]float64
	in   map[int64][]int64
}

func newFakeGraph(n int, edges [][2]int64) *fakeGraph {
	f := &fakeGraph{n: n, out: map[int64][]int64{}, outW: map[int64][]float64{}, w: map[[2]int64]float64{}, in: map[int64][]int64{}}
	for _, e := range edges {
		f.out[e[0]] = append(f.out[e[0]], e[1])
		f.outW[e[0]] = append(f.outW[e[0]], 1)
		f.in[e[1]] = append(f.in[e[1]], e[0])
		f.w[e] = 1
	}
	return f
}

func (f *fakeGraph) NumVertices() int { return f.n }
func (f *fakeGraph) OutNeighbors(v int64) ([]int64, []float64) {
	return f.out[v], f.outW[v]
}
func (f *fakeGraph) InNeighbors(v int64) []int64 { return f.in[v] }
func (f *fakeGraph) EdgeWeight(src, dst int64) (float64, bool) {
	w, ok := f.w[[2]int64{src, dst}]
	return w, ok
}

// runBothPaths evaluates the query over the record stream on the compiled
// path and the interpretive path and asserts every IDB relation matches.
func runBothPaths(t *testing.T, src string, env *analysis.Env, sg StaticGraph, layers [][]RecordView) {
	t.Helper()
	build := func() *analysis.Query {
		prog, err := pql.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		q, err := analysis.Analyze(prog, env.Clone())
		if err != nil {
			t.Fatal(err)
		}
		return q
	}

	// Compiled path.
	qc := build()
	cdb := NewDatabase()
	comp, err := Compile(qc, cdb, sg)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	for _, l := range layers {
		if err := comp.Layer(l); err != nil {
			t.Fatal(err)
		}
	}
	if err := comp.FinishRun(); err != nil {
		t.Fatal(err)
	}

	// Interpretive path.
	qi := build()
	idb := NewDatabase()
	ev, err := NewEvaluator(qi, idb)
	if err != nil {
		t.Fatal(err)
	}
	// Static edges.
	for v := 0; v < sg.NumVertices(); v++ {
		dst, _ := sg.OutNeighbors(int64(v))
		for _, d := range dst {
			ev.AddFact("edge", Tuple{value.NewInt(int64(v)), value.NewInt(d)})
		}
	}
	for _, l := range layers {
		for i := range l {
			feedViewInterpretive(ev, sg, &l[i])
		}
		if err := ev.Fixpoint(); err != nil {
			t.Fatal(err)
		}
	}

	for name := range qc.IDBs {
		c, it := cdb.Get(name), idb.Get(name)
		cl, il := 0, 0
		if c != nil {
			cl = c.Len()
		}
		if it != nil {
			il = it.Len()
		}
		if cl != il {
			t.Errorf("%s: compiled %d tuples vs interpretive %d\ncompiled: %v\ninterp:  %v",
				name, cl, il, rows(c), rows(it))
			continue
		}
		if c == nil {
			continue
		}
		for _, tup := range c.All() {
			if !it.Contains(tup) {
				t.Errorf("%s: compiled tuple %v missing from interpretive result", name, tup)
			}
		}
	}
}

func rows(r *Relation) []Tuple {
	if r == nil {
		return nil
	}
	return r.Sorted()
}

// feedViewInterpretive mirrors the driver's feeder for RecordViews.
func feedViewInterpretive(ev *Evaluator, sg StaticGraph, rv *RecordView) {
	x := value.NewInt(rv.Vertex)
	i := value.NewInt(rv.Superstep)
	ev.AddFact("superstep", Tuple{x, i})
	if rv.HasValue {
		ev.AddFact("value", Tuple{x, rv.Value, i})
	}
	if rv.PrevActive >= 0 {
		j := value.NewInt(rv.PrevActive)
		ev.AddFact("evolution", Tuple{x, j, i})
		if rv.HasPrevValue {
			ev.AddFact("value", Tuple{x, rv.PrevValue, j})
		}
	}
	for _, m := range rv.Sends {
		ev.AddFact("send_message", Tuple{x, value.NewInt(m.Peer), m.Val, i})
	}
	for _, m := range rv.Recvs {
		ev.AddFact("receive_message", Tuple{x, value.NewInt(m.Peer), m.Val, i})
	}
	if rv.SentAny || len(rv.Sends) > 0 {
		ev.AddFact("prov_send", Tuple{x, i})
	}
	dst, ws := sg.OutNeighbors(rv.Vertex)
	for k, d := range dst {
		ev.AddFact("edge_value", Tuple{x, value.NewInt(d), value.NewFloat(ws[k]), value.NewInt(0)})
	}
	for _, f := range rv.Emitted {
		t := make(Tuple, 0, len(f.Args)+2)
		t = append(t, x)
		t = append(t, f.Args...)
		t = append(t, i)
		ev.AddFact(f.Table, t)
	}
}

// randomLayers generates a deterministic pseudo-random record stream over a
// small graph: values evolve, messages follow edges (plus a few strays).
func randomLayers(seed int64, sg *fakeGraph, nLayers int) [][]RecordView {
	rng := rand.New(rand.NewSource(seed))
	type vstate struct {
		lastSS  int64
		lastVal value.Value
	}
	states := map[int64]*vstate{}
	var layers [][]RecordView
	for ss := 0; ss < nLayers; ss++ {
		var recs []RecordView
		for v := int64(0); v < int64(sg.n); v++ {
			if ss > 0 && rng.Intn(2) == 0 {
				continue // inactive this superstep
			}
			val := value.NewFloat(float64(rng.Intn(8)) / 2)
			rv := RecordView{
				Vertex: v, Superstep: int64(ss),
				HasValue: true, Value: val,
				PrevActive: -1,
			}
			if st, ok := states[v]; ok {
				rv.PrevActive = st.lastSS
				rv.PrevValue = st.lastVal
				rv.HasPrevValue = true
			}
			for _, d := range sg.out[v] {
				if rng.Intn(2) == 0 {
					rv.Sends = append(rv.Sends, MsgView{Peer: d, Val: val})
				}
			}
			rv.SentAny = len(rv.Sends) > 0
			for _, s := range sg.in[v] {
				if rng.Intn(2) == 0 {
					rv.Recvs = append(rv.Recvs, MsgView{Peer: s, Val: value.NewFloat(rng.Float64())})
				}
			}
			rv.Emitted = []FactView{{Table: "prov_error", Args: []value.Value{value.NewInt(v % 3), value.NewFloat(rng.Float64()*8 - 1)}}}
			states[v] = &vstate{lastSS: int64(ss), lastVal: val}
			recs = append(recs, rv)
		}
		layers = append(layers, recs)
	}
	return layers
}

func testGraphAndLayers(seed int64) (*fakeGraph, [][]RecordView) {
	sg := newFakeGraph(8, [][2]int64{
		{0, 1}, {1, 2}, {2, 3}, {3, 0}, {1, 4}, {4, 5}, {5, 6}, {6, 7}, {7, 4}, {2, 6},
	})
	return sg, randomLayers(seed, sg, 6)
}

func TestCompiledMatchesInterpretiveApt(t *testing.T) {
	env := analysis.NewEnv()
	env.SetParam("eps", value.NewFloat(0.5))
	src := `
change(X, I) :- value(X, D1, I), value(X, D2, J),
                evolution(X, J, I), udf_diff(D1, D2, $eps).
neighbor_change(X, I) :- receive_message(X, Y, M, I),
                         !change(Y, J), J = I - 1.
no_execute(X, I) :- !neighbor_change(X, I), superstep(X, I).
safe(X, I) :- no_execute(X, I), change(X, I).
unsafe(X, I) :- no_execute(X, I), !change(X, I).
`
	for seed := int64(1); seed <= 5; seed++ {
		sg, layers := testGraphAndLayers(seed)
		runBothPaths(t, src, env, sg, layers)
	}
}

func TestCompiledMatchesInterpretiveMonitoring(t *testing.T) {
	env := analysis.NewEnv()
	src := `
check_failed(X, I) :- value(X, D1, I), value(X, D2, J), evolution(X, J, I),
                      receive_message(X, Y, M, I), D1 > D2.
check_failed(X, I) :- receive_message(X, Y, M, I), M < 0.
neighbor_got(X, I) :- receive_message(X, Y, M, I).
silent(X, I) :- value(X, D1, I), value(X, D2, J), evolution(X, J, I),
                !neighbor_got(X, I), D1 != D2.
`
	for seed := int64(1); seed <= 5; seed++ {
		sg, layers := testGraphAndLayers(seed)
		runBothPaths(t, src, env, sg, layers)
	}
}

func TestCompiledMatchesInterpretiveEdgeRules(t *testing.T) {
	env := analysis.NewEnv()
	env.DeclareEDB("prov_error", 4)
	src := `
has_in(X) :- edge(Y, X).
stray(X, Y, I) :- receive_message(X, Y, M, I), !has_in(X).
ranged(X, Y, I) :- prov_error(X, Y, E, I), edge_value(X, Y, W, _), E > 5.
sent_flag(X, I) :- prov_send(X, I).
`
	for seed := int64(1); seed <= 5; seed++ {
		sg, layers := testGraphAndLayers(seed)
		runBothPaths(t, src, env, sg, layers)
	}
}

func TestCompiledMatchesInterpretiveRecursive(t *testing.T) {
	env := analysis.NewEnv()
	env.SetParam("alpha", value.NewInt(0))
	// Recursive forward rules need the temporal guard J < I for the three
	// evaluation modes to agree: without it, pure Datalog over the full
	// provenance admits retroactive derivations (influence flowing
	// backwards in time) that online/layered evaluation — and any causal
	// reading of "influence" — cannot produce. The paper's Query 3 has the
	// same property; see the package documentation.
	src := `
fwd(X, I) :- superstep(X, I), X = $alpha, I = 0.
fwd(X, I) :- receive_message(X, Y, M, I), fwd(Y, J), J < I, superstep(X, I).
`
	for seed := int64(1); seed <= 5; seed++ {
		sg, layers := testGraphAndLayers(seed)
		runBothPaths(t, src, env, sg, layers)
	}
}

func TestCompileRejections(t *testing.T) {
	env := analysis.NewEnv()
	sg := newFakeGraph(2, [][2]int64{{0, 1}})
	cases := []string{
		// Aggregates need the interpretive path.
		`deg(X, COUNT(Y)) :- receive_message(X, Y, M, I).`,
		// Record rule consuming a global head.
		`g(X, I) :- q(X, I), q(X, J).
q(X, I) :- superstep(X, I).
bad(X, I) :- receive_message(X, Y, M, I), g(X, I).`,
	}
	for _, src := range cases {
		prog, err := pql.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		q, err := analysis.Analyze(prog, env.Clone())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Compile(q, NewDatabase(), sg); !errors.Is(err, ErrNotCompilable) {
			t.Errorf("Compile(%q) = %v, want ErrNotCompilable", src, err)
		}
	}
}

func TestCompiledFinishRunCatchesLateJoins(t *testing.T) {
	// A global rule joining tuples derived in different layers: the
	// incremental passes see only the driving delta; FinishRun must catch
	// pairs completed later.
	env := analysis.NewEnv()
	src := `
seen(X, I) :- superstep(X, I).
pair(X, I, J) :- seen(X, I), seen(X, J), I < J.
`
	sg := newFakeGraph(2, nil)
	layers := [][]RecordView{
		{{Vertex: 0, Superstep: 0, HasValue: true, Value: value.NewFloat(1), PrevActive: -1}},
		{{Vertex: 0, Superstep: 1, HasValue: true, Value: value.NewFloat(2), PrevActive: 0, PrevValue: value.NewFloat(1), HasPrevValue: true}},
		{{Vertex: 0, Superstep: 2, HasValue: true, Value: value.NewFloat(3), PrevActive: 1, PrevValue: value.NewFloat(2), HasPrevValue: true}},
	}
	runBothPaths(t, src, env, sg, layers)
}

// TestCannedQueriesCompile pins which canned queries run as compiled query
// vertex programs (and each rule's driver), and why the others fall back:
// the set that compiles must not shrink.
func TestCannedQueriesCompile(t *testing.T) {
	sg := newFakeGraph(2, nil)
	cases := []struct {
		def   queries.Definition
		kinds string // rule drivers in stratum order, or the fallback reason
	}{
		{queries.Apt(0.01, nil), "record record record global global"},
		{queries.CaptureFull(), "record record record"},
		{queries.CaptureForwardLineage(0), "record record"},
		{queries.PageRankCheck(), "static record"},
		{queries.MonotoneCheck(), "record record"},
		{queries.SilentChange(), "record record"},
		{queries.ALSRangeCheck(), "record record record record"},
		{queries.ALSErrorIncrease(0.5), "2:1: aggregates require the interpretive evaluator"},
		{queries.BackwardTrace(0, 3), "record record record"},
		{queries.CaptureBackwardCustom(), "record record"},
		{queries.NetGap(), "2:25: EDB net_rpc is not record-local"},
		{queries.BackwardTraceCustom(0, 3), "record record record"},
	}
	for _, tc := range cases {
		c, err := Compile(tc.def.MustBuild(), NewDatabase(), sg)
		var got string
		if err != nil {
			var re *RuleError
			if !errors.Is(err, ErrNotCompilable) || !errors.As(err, &re) {
				t.Errorf("%s: %v is not a RuleError wrapping ErrNotCompilable", tc.def.Name, err)
				continue
			}
			got = strings.TrimPrefix(err.Error(), ErrNotCompilable.Error()+": ")
		} else {
			var kinds []string
			for _, r := range c.Rules() {
				kinds = append(kinds, r.Kind.String())
			}
			got = strings.Join(kinds, " ")
		}
		if got != tc.kinds {
			t.Errorf("%s: %q, want %q", tc.def.Name, got, tc.kinds)
		}
	}
}

// TestCompiledGlobalRuleBindOrder covers global rules whose schedule puts
// steps ahead of the driving literal (a binder, an in-edge enumeration): at
// runtime the delta scan runs first, so those steps must compare against
// the variables it bound instead of rebinding them.
func TestCompiledGlobalRuleBindOrder(t *testing.T) {
	env := analysis.NewEnv()
	src := `
seen(X, I) :- superstep(X, I).
at_two(X) :- I = 2, seen(X, I).
into_four(X, I) :- seen(X, I), edge(X, 4).
`
	for seed := int64(1); seed <= 3; seed++ {
		sg, layers := testGraphAndLayers(seed)
		runBothPaths(t, src, env, sg, layers)
	}
}
