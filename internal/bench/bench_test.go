package bench

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"
)

// tiny returns a runner over only the smallest dataset at minimum size, so
// the experiment logic is exercised quickly; the full sweep belongs to
// cmd/ariadne-bench and the root benchmarks.
func tiny(t *testing.T) (*Runner, *bytes.Buffer) {
	t.Helper()
	var buf bytes.Buffer
	return NewRunner(Config{
		SizeFactor: -1,
		Supersteps: 10,
		Datasets:   []string{"IN-04"},
		Out:        &buf,
	}), &buf
}

func TestTable2(t *testing.T) {
	r, buf := tiny(t)
	rows, err := r.Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 { // IN-04 + ML-20
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Name != "IN-04" || rows[0].V == 0 || rows[0].AvgDegree < 10 {
		t.Errorf("IN-04 row = %+v", rows[0])
	}
	if !strings.Contains(buf.String(), "Table 2") {
		t.Error("report missing header")
	}
}

func TestTable3And4Shapes(t *testing.T) {
	r, _ := tiny(t)
	full, err := r.Table3()
	if err != nil {
		t.Fatal(err)
	}
	cust, err := r.Table4()
	if err != nil {
		t.Fatal(err)
	}
	for _, analytic := range []string{"PageRank", "SSSP", "WCC"} {
		// Paper shape: full provenance much larger than the input graph;
		// custom provenance below the full one and a fraction of the ratio.
		if full[0].Ratio[analytic] < 1.5 {
			t.Errorf("%s full ratio %.2f should exceed input", analytic, full[0].Ratio[analytic])
		}
		if cust[0].Bytes[analytic] >= full[0].Bytes[analytic] {
			t.Errorf("%s custom %d should be below full %d", analytic, cust[0].Bytes[analytic], full[0].Bytes[analytic])
		}
		// Table 4: lineage covers a large share of vertices.
		if cust[0].Coverage[analytic] < 0.5 {
			t.Errorf("%s lineage coverage %.2f too small", analytic, cust[0].Coverage[analytic])
		}
	}
	// PageRank touches every vertex every superstep: its provenance should
	// be the largest, as in Table 3.
	if full[0].Bytes["PageRank"] < full[0].Bytes["WCC"] {
		t.Errorf("PageRank provenance should exceed WCC's: %v", full[0].Bytes)
	}
}

func TestFig7Shape(t *testing.T) {
	r, buf := tiny(t)
	// One ~10 ms run per leg is at the mercy of whatever else loads the
	// machine; Fig7 measures CPU time over interleaved rounds, and five
	// rounds, trimmed, keep one slow run from deciding the row.
	r.cfg.Repeat = 5
	rows, err := r.Fig7()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, row := range rows {
		if row.FullX < row.CustomX*0.8 {
			t.Errorf("%s: full capture (%.2fx) should not be much cheaper than custom (%.2fx)\n%s", row.Analytic, row.FullX, row.CustomX, buf)
		}
		if row.Baseline <= 0 {
			t.Errorf("%s: baseline not measured", row.Analytic)
		}
	}
}

func TestFig8Shape(t *testing.T) {
	r, _ := tiny(t)
	rows, err := r.Fig8()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 { // 1 (PR) + 2 (SSSP) + 2 (WCC)
		t.Fatalf("rows = %d", len(rows))
	}
	for _, row := range rows {
		// Paper shape: online cheapest, naive most expensive.
		if !row.NaiveDNF && row.OnlineX > row.NaiveX*1.5 {
			t.Errorf("%s/%s: online %.2fx should not dwarf naive %.2fx", row.Query, row.Analytic, row.OnlineX, row.NaiveX)
		}
		if math.IsNaN(row.OnlineX) || math.IsNaN(row.LayeredX) {
			t.Errorf("%s/%s: missing overheads", row.Query, row.Analytic)
		}
	}
}

func TestFig9Shape(t *testing.T) {
	r, _ := tiny(t)
	rows, err := r.Fig9()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 { // 3 feature counts x 2 queries
		t.Fatalf("rows = %d", len(rows))
	}
	for _, row := range rows {
		if row.OnlineX <= 0 || math.IsNaN(row.OnlineX) {
			t.Errorf("%s %s: overhead %v", row.Variant, row.Query, row.OnlineX)
		}
	}
}

func TestTables5And6Shapes(t *testing.T) {
	r, _ := tiny(t)
	t5, err := r.Table5()
	if err != nil {
		t.Fatal(err)
	}
	if len(t5) != 1 {
		t.Fatalf("t5 rows = %d", len(t5))
	}
	// Optimized PageRank loses a little rank mass: MedianB <= MedianA, and
	// the relative error stays small.
	if t5[0].MedianB > t5[0].MedianA+1e-9 {
		t.Errorf("PageRank medians: B %.4f should be <= A %.4f", t5[0].MedianB, t5[0].MedianA)
	}
	if t5[0].Error > 0.3 {
		t.Errorf("PageRank relative error %.3f too large", t5[0].Error)
	}
	t6, err := r.Table6()
	if err != nil {
		t.Fatal(err)
	}
	// SSSP approximation can only lengthen paths: MedianB >= MedianA.
	if t6[0].MedianB < t6[0].MedianA-1e-9 {
		t.Errorf("SSSP medians: B %.4f should be >= A %.4f", t6[0].MedianB, t6[0].MedianA)
	}
	if t6[0].Error > 0.2 {
		t.Errorf("SSSP relative error %.3f too large", t6[0].Error)
	}
	wcc, err := r.Fig10WCC()
	if err != nil {
		t.Fatal(err)
	}
	// The paper reports 0.9 label disagreement on its web crawls. The
	// effect depends on crawl-order ID locality dominating connectivity:
	// our scaled-down stand-ins are much denser (hub shortcuts repair the
	// suppressed updates), so here we only assert the measurement ran; the
	// deterministic demonstration of the unsafe optimization lives in
	// analytics.TestApproximateWCCUnsafe (chain topology), and the
	// discrepancy is recorded in EXPERIMENTS.md.
	if wcc[0].Error < 0 || wcc[0].Error > 1 {
		t.Errorf("WCC disagreement %.2f out of range", wcc[0].Error)
	}
}

func TestFig11And12Shapes(t *testing.T) {
	r, _ := tiny(t)
	f11, err := r.Fig11()
	if err != nil {
		t.Fatal(err)
	}
	if len(f11) != 3 {
		t.Fatalf("fig11 rows = %d", len(f11))
	}
	// As for Figure 7: interleaved CPU-time rounds, five of them, so one
	// slow trace does not decide the row.
	r.cfg.Repeat = 5
	f12, err := r.Fig12()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range f12 {
		if row.TraceSize == 0 {
			t.Errorf("%s/%s: empty backward trace", row.Dataset, row.Analytic)
		}
		// Paper shape: custom-provenance tracing beats full-provenance tracing.
		if row.CustomX > row.FullX*1.2 {
			t.Errorf("%s/%s: custom %.2fx should not exceed full %.2fx", row.Dataset, row.Analytic, row.CustomX, row.FullX)
		}
	}
}

func TestALSCapture(t *testing.T) {
	r, _ := tiny(t)
	res, err := r.ALSCapture(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if !res.FailedNoSpill {
		t.Error("ALS full capture should exceed the tight budget without spill")
	}
	if res.SpilledLayers == 0 {
		t.Error("ALS capture with spill should offload layers")
	}
}

func TestHelpers(t *testing.T) {
	if got := trimmedMean([]time.Duration{10, 100, 1000}); got != 100 {
		t.Errorf("trimmedMean = %v", got)
	}
	if got := trimmedMean([]time.Duration{10, 30}); got != 20 {
		t.Errorf("mean of two = %v", got)
	}
	if gbLike(2<<30) != "2.0GB" || gbLike(5<<20) != "5.0MB" || gbLike(512) != "0.5KB" {
		t.Errorf("gbLike wrong: %s %s %s", gbLike(2<<30), gbLike(5<<20), gbLike(512))
	}
	if !math.IsNaN(overhead(time.Second, 0)) {
		t.Error("overhead of zero baseline should be NaN")
	}
}
