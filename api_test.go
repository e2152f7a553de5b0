package ariadne_test

import (
	"testing"

	"ariadne"
	"ariadne/internal/analytics"
	"ariadne/internal/queries"
	"ariadne/internal/value"
)

func TestTuplesAndCountNilSafety(t *testing.T) {
	g := testGraph(t, 6, 4, 31)
	res, err := ariadne.Run(g, &analytics.SSSP{Source: 0},
		ariadne.WithOnlineQuery(queries.MonotoneCheck()))
	if err != nil {
		t.Fatal(err)
	}
	qr := res.Query("q5-monotone-check")
	if rows := ariadne.Tuples(qr, "no_such_relation"); rows != nil {
		t.Errorf("missing relation should yield nil, got %v", rows)
	}
	if n := ariadne.Count(qr, "no_such_relation"); n != 0 {
		t.Errorf("missing relation count = %d", n)
	}
	if res.Query("no-such-query") != nil {
		t.Error("unknown query name should be nil")
	}
}

func TestRunRejectsBrokenQueries(t *testing.T) {
	g := testGraph(t, 5, 3, 32)
	broken := ariadne.QueryDef{Name: "broken", Source: `p(X) :- nosuch(X).`}
	if _, err := ariadne.Run(g, &analytics.PageRank{}, ariadne.WithOnlineQuery(broken)); err == nil {
		t.Error("broken online query should fail Run")
	}
	if _, err := ariadne.Run(g, &analytics.PageRank{},
		ariadne.WithCaptureQuery(broken, ariadne.StoreConfig{})); err == nil {
		t.Error("broken capture query should fail Run")
	}
	if _, _, err := ariadne.Classify(broken); err == nil {
		t.Error("broken query should fail Classify")
	}
}

func TestMultipleOnlineQueriesShareARun(t *testing.T) {
	g := testGraph(t, 7, 5, 33)
	res, err := ariadne.Run(g, &analytics.SSSP{Source: 0},
		ariadne.WithOnlineQuery(queries.MonotoneCheck()),
		ariadne.WithOnlineQuery(queries.SilentChange()),
		ariadne.WithOnlineQuery(queries.Apt(0.1, nil)))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"q5-monotone-check", "q6-silent-change", "apt"} {
		if res.Query(name) == nil {
			t.Errorf("query %s result missing", name)
		}
	}
}

// The apt query generalizes beyond the paper's four analytics: BFS and
// KCore are monotone-decreasing, so the same query applies unchanged.
func TestAptOnLibraryExtensions(t *testing.T) {
	g := testGraph(t, 7, 5, 34)

	bfs, err := ariadne.Run(g, &analytics.BFS{Source: 0},
		ariadne.WithOnlineQuery(queries.Apt(0.5, nil)))
	if err != nil {
		t.Fatal(err)
	}
	if bfs.Query("apt") == nil {
		t.Fatal("apt over BFS missing")
	}

	u := g.Undirected()
	kc, err := ariadne.Run(u, analytics.KCore{},
		ariadne.WithOnlineQuery(queries.Apt(0.5, value.EuclideanDist)))
	if err != nil {
		t.Fatal(err)
	}
	if kc.Query("apt") == nil {
		t.Fatal("apt over KCore missing")
	}
	// Coreness values are meaningful at the end.
	cores := analytics.Coreness(kc.Values)
	if len(cores) != u.NumVertices() {
		t.Errorf("coreness arity %d", len(cores))
	}
}

func TestMonotoneCheckOnKCore(t *testing.T) {
	// KCore bounds only decrease: Query 5's monotone invariant must hold.
	// KCore values are vectors, whose first component is the bound; the
	// value comparison D1 > D2 compares vectors lexicographically, so a
	// bound increase would trip it.
	g := testGraph(t, 7, 4, 35).Undirected()
	res, err := ariadne.Run(g, analytics.KCore{},
		ariadne.WithOnlineQuery(queries.MonotoneCheck()))
	if err != nil {
		t.Fatal(err)
	}
	// The neighbor-bound table grows lexicographically *after* the first
	// component in ways that may trip D1 > D2 benignly, so we only require
	// the query to run; the strict invariant is asserted on the scalar
	// bound by analytics.TestKCoreMonitorableOnline.
	if res.Query("q5-monotone-check") == nil {
		t.Fatal("monitoring result missing")
	}
}

func TestCaptureWithExplicitPolicy(t *testing.T) {
	g := testGraph(t, 6, 4, 36)
	res, err := ariadne.Run(g, &analytics.SSSP{Source: 0},
		ariadne.WithCapture(ariadne.CapturePolicy{Values: true}, ariadne.StoreConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	store := res.Provenance
	if store.TotalTuples() == 0 {
		t.Fatal("nothing captured")
	}
	// Values-only provenance still answers value-only queries offline.
	def := ariadne.QueryDef{
		Name: "final-values",
		Source: `
final(X, D, I) :- value(X, D, I).
`,
		Env: nil,
	}
	def.Env = queries.Apt(0.1, nil).Env // reuse a default env
	qr, err := ariadne.QueryOffline(def, store, g, ariadne.Auto, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ariadne.Count(qr, "final") == 0 {
		t.Error("no value tuples found offline")
	}
}

// TestEvalOptionsThroughAPI drives the shard-parallel evaluation options
// end to end: online via Run options, offline via QueryOffline options, and
// checks the one-worker leg agrees with the eight-worker one.
func TestEvalOptionsThroughAPI(t *testing.T) {
	g := testGraph(t, 7, 5, 35)
	run := func(opts ...ariadne.Option) *ariadne.QueryResult {
		t.Helper()
		res, err := ariadne.Run(g, &analytics.SSSP{Source: 0},
			append(opts, ariadne.WithOnlineQuery(queries.MonotoneCheck()))...)
		if err != nil {
			t.Fatal(err)
		}
		return res.Query("q5-monotone-check")
	}
	seq := run(ariadne.WithEvalWorkers(1))
	par := run(ariadne.WithEvalWorkers(8))
	if a, b := ariadne.Count(seq, "check_failed"), ariadne.Count(par, "check_failed"); a != b {
		t.Errorf("online sequential %d tuples vs parallel %d", a, b)
	}

	res, err := ariadne.Run(g, &analytics.SSSP{Source: 0},
		ariadne.WithCaptureQuery(queries.CaptureFull(), ariadne.StoreConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	def := queries.MonotoneCheck()
	offSeq, err := ariadne.QueryOffline(def, res.Provenance, g, ariadne.ModeLayered, 0,
		ariadne.EvalWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	offPar, err := ariadne.QueryOffline(def, res.Provenance, g, ariadne.ModeLayered, 0,
		ariadne.EvalWorkers(8))
	if err != nil {
		t.Fatal(err)
	}
	if a, b := ariadne.Count(offSeq, "check_failed"), ariadne.Count(offPar, "check_failed"); a != b {
		t.Errorf("offline sequential %d tuples vs parallel %d", a, b)
	}
}
