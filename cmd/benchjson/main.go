// benchjson converts `go test -bench` output on stdin into a machine-readable
// JSON report and enforces the hardware-independent regression ratios for the
// barrier, spill, and query-evaluation microbenchmarks:
//
//	go test -run '^$' -bench 'Barrier|SpillPipeline|ParallelEval|LayeredEval' ./internal/... | \
//	    go run ./cmd/benchjson -out BENCH_micro.json -min-barrier-speedup 1.2
//
// Absolute ns/op is meaningless across CI runners, so the regression checks
// compare legs of the same run: the sequential/parallel barrier-phase ratio
// and the sync/async spill ratio. Exit status 1 means a ratio fell below its
// threshold (or an expected benchmark is missing).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// Bench is one parsed benchmark result line. Metrics maps unit → value for
// every "value unit" pair after the iteration count (ns/op, B/op, allocs/op,
// and custom b.ReportMetric units like barrier-ns/op).
type Bench struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Report is the BENCH_micro.json schema.
type Report struct {
	Benchmarks []Bench            `json:"benchmarks"`
	Ratios     map[string]float64 `json:"ratios"`
	Failures   []string           `json:"failures,omitempty"`
}

var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+(.*)$`)

func parse(lines []string) []Bench {
	var out []Bench
	for _, line := range lines {
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		iters, _ := strconv.ParseInt(m[2], 10, 64)
		b := Bench{Name: m[1], Iterations: iters, Metrics: map[string]float64{}}
		fields := strings.Fields(m[3])
		for i := 0; i+1 < len(fields); i += 2 {
			if v, err := strconv.ParseFloat(fields[i], 64); err == nil {
				b.Metrics[fields[i+1]] = v
			}
		}
		out = append(out, b)
	}
	return out
}

func metric(benches []Bench, name, unit string) (float64, bool) {
	for _, b := range benches {
		if b.Name == name {
			v, ok := b.Metrics[unit]
			return v, ok
		}
	}
	return 0, false
}

// ratio computes num/den for a named check; a missing benchmark or metric is
// reported as a failure so CI can't silently skip a check.
func ratio(r *Report, benches []Bench, key, numName, denName, unit string) float64 {
	num, okN := metric(benches, numName, unit)
	den, okD := metric(benches, denName, unit)
	if !okN || !okD || den == 0 {
		r.Failures = append(r.Failures, fmt.Sprintf("%s: missing %s for %s or %s", key, unit, numName, denName))
		return 0
	}
	v := num / den
	r.Ratios[key] = v
	return v
}

func main() {
	out := flag.String("out", "BENCH_micro.json", "output JSON path")
	minBarrier := flag.Float64("min-barrier-speedup", 1.2,
		"minimum sequential/parallel barrier-phase time ratio (uncombined leg)")
	minSpill := flag.Float64("min-spill-speedup", 0.7,
		"minimum sync/async spill pipeline time ratio. The benchmark now "+
			"interleaves layer construction with appends (the shape a real run "+
			"has), so on multi-core hardware the async leg overlaps encode+write "+
			"with the next layer's build and the ratio exceeds 1; on a "+
			"single-core runner no overlap is possible and the async leg pays "+
			"its per-layer scheduling handoffs (~0.9 observed), so the guard "+
			"only rejects async being materially slower than sync")
	minEval := flag.Float64("min-eval-speedup", 1.5,
		"minimum sequential/parallel8 eval-phase time ratio (the parallel leg "+
			"wins even on one core via the slot-compiled join path)")
	minLayered := flag.Float64("min-layered-speedup", 0.9,
		"minimum sequential/pipelined layered full-run time ratio")
	maxTransport := flag.Float64("max-transport-overhead", 10,
		"maximum tcp-loopback/in-process full-run time ratio (the transport "+
			"seam's serialization + framing cost; worker-resident state keeps "+
			"it well under 1.5x on a loopback container)")
	maxWireBytes := flag.Float64("max-wire-bytes-per-superstep", 10100,
		"maximum wire bytes per superstep of the 1-worker TCP-loopback "+
			"PageRank run (master link plus worker mesh; the delta exchange "+
			"moved ~10.0k, the full-frontier exchange it replaced ~103k)")
	maxTrace := flag.Float64("max-trace-overhead", 1.05,
		"maximum traced/untraced full-run time ratio over TCP loopback "+
			"(span tracing must cost at most 5% on an instrumented run)")
	maxBytesPerTuple := flag.Float64("max-bytes-per-tuple", 3.0,
		"maximum on-disk bytes per provenance tuple on BenchmarkStoreFormat's "+
			"WCC-shaped capture (the columnar layer format stores ~2.96; the "+
			"v1 row format it replaced took ~9.3)")
	minReplayProj := flag.Float64("min-replay-projection-speedup", 1.3,
		"minimum projected/unprojected facts-per-second ratio on the layered "+
			"replay of a vector-valued capture (what projection pushdown "+
			"saves when the query never reads the payload columns)")
	expect := flag.String("expect", "all",
		"comma-separated gate keys to enforce, or \"all\"; a gate not listed "+
			"is skipped entirely, so partial benchmark runs (make bench-store) "+
			"can reuse this binary without tripping missing-benchmark failures")
	flag.Parse()

	wanted := map[string]bool{}
	for _, k := range strings.Split(*expect, ",") {
		if k = strings.TrimSpace(k); k != "" {
			wanted[k] = true
		}
	}
	wants := func(key string) bool { return wanted["all"] || wanted[key] }

	var lines []string
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		fmt.Println(sc.Text()) // pass through so the raw log stays visible
		lines = append(lines, sc.Text())
	}
	benches := parse(lines)
	rep := &Report{Benchmarks: benches, Ratios: map[string]float64{}}

	if wants("barrier_phase_speedup") {
		if v := ratio(rep, benches, "barrier_phase_speedup",
			"BenchmarkBarrier/sequential/nocombine",
			"BenchmarkBarrier/parallel/nocombine", "barrier-ns/op"); v > 0 && v < *minBarrier {
			rep.Failures = append(rep.Failures,
				fmt.Sprintf("barrier_phase_speedup %.2f < %.2f", v, *minBarrier))
		}
		ratio(rep, benches, "barrier_run_speedup",
			"BenchmarkBarrier/sequential/nocombine",
			"BenchmarkBarrier/parallel/nocombine", "ns/op")
		ratio(rep, benches, "combine_barrier_speedup",
			"BenchmarkBarrier/sequential/combine",
			"BenchmarkBarrier/parallel/combine", "barrier-ns/op")
	}
	if wants("spill_async_speedup") {
		if v := ratio(rep, benches, "spill_async_speedup",
			"BenchmarkSpillPipeline/sync",
			"BenchmarkSpillPipeline/async", "ns/op"); v > 0 && v < *minSpill {
			rep.Failures = append(rep.Failures,
				fmt.Sprintf("spill_async_speedup %.2f < %.2f", v, *minSpill))
		}
	}
	if wants("eval_phase_speedup") {
		if v := ratio(rep, benches, "eval_phase_speedup",
			"BenchmarkParallelEval/sequential",
			"BenchmarkParallelEval/parallel8", "ns/op"); v > 0 && v < *minEval {
			rep.Failures = append(rep.Failures,
				fmt.Sprintf("eval_phase_speedup %.2f < %.2f", v, *minEval))
		}
		// Informational: throughput ratio of the same legs.
		if seq, ok := metric(benches, "BenchmarkParallelEval/sequential", "tuples/s"); ok {
			if par, ok := metric(benches, "BenchmarkParallelEval/parallel8", "tuples/s"); ok && seq > 0 {
				rep.Ratios["eval_tuples_speedup"] = par / seq
			}
		}
	}
	// transport_overhead is a ceiling, not a floor: the TCP leg is allowed
	// to cost more than in-process, but not unboundedly more.
	if wants("transport_overhead") {
		if v := ratio(rep, benches, "transport_overhead",
			"BenchmarkTransportRun/tcp",
			"BenchmarkTransportRun/inproc", "ns/op"); v > *maxTransport {
			rep.Failures = append(rep.Failures,
				fmt.Sprintf("transport_overhead %.2f > %.2f", v, *maxTransport))
		}
	}
	// wire_bytes_per_superstep is an absolute ceiling on what the delta
	// exchange moves per superstep: the bytes are deterministic up to the
	// frames' sequence-number varints, so it is hardware-independent.
	if wants("wire_bytes_per_superstep") {
		if v, ok := metric(benches, "BenchmarkTransportRun/tcp", "wire-B/ss"); !ok {
			rep.Failures = append(rep.Failures, "wire_bytes_per_superstep: missing wire-B/ss for BenchmarkTransportRun/tcp")
		} else {
			rep.Ratios["wire_bytes_per_superstep"] = v
			if v > *maxWireBytes {
				rep.Failures = append(rep.Failures,
					fmt.Sprintf("wire_bytes_per_superstep %.0f > %.0f", v, *maxWireBytes))
			}
		}
	}
	// Assembling and writing a wire frame must not allocate: the pooled
	// single-buffer encode is what lets delta exchanges pipeline without
	// GC pressure (the PR 9 invariant, like span_disabled_allocs for PR 2).
	if wants("wire_frame_allocs") {
		if v, ok := metric(benches, "BenchmarkWireFrame/write", "allocs/op"); !ok {
			rep.Failures = append(rep.Failures, "wire_frame_allocs: missing BenchmarkWireFrame/write")
		} else {
			rep.Ratios["wire_frame_allocs"] = v
			if v != 0 {
				rep.Failures = append(rep.Failures,
					fmt.Sprintf("wire_frame_allocs %.1f != 0 (frame write path allocates)", v))
			}
		}
	}
	// trace_overhead compares two TCP-loopback legs of the same run, one
	// with spans enabled. Like transport_overhead it is a ceiling.
	if wants("trace_overhead") {
		if v := ratio(rep, benches, "trace_overhead",
			"BenchmarkTraceRun/traced",
			"BenchmarkTraceRun/untraced", "ns/op"); v > *maxTrace {
			rep.Failures = append(rep.Failures,
				fmt.Sprintf("trace_overhead %.2f > %.2f", v, *maxTrace))
		}
	}
	// The disabled span path must be literally free: zero allocations per
	// RecordSpan call when no sink is installed (the PR 2 invariant).
	if wants("span_disabled_allocs") {
		if v, ok := metric(benches, "BenchmarkSpanDisabled", "allocs/op"); !ok {
			rep.Failures = append(rep.Failures, "span_disabled_allocs: missing BenchmarkSpanDisabled")
		} else {
			rep.Ratios["span_disabled_allocs"] = v
			if v != 0 {
				rep.Failures = append(rep.Failures,
					fmt.Sprintf("span_disabled_allocs %.1f != 0 (disabled span path allocates)", v))
			}
		}
	}
	// A compiled query vertex program re-evaluating a layer whose tuples it
	// has all derived must not allocate: slots, key and UDF-argument
	// buffers and the emitted-fact index are reused scratch, and a head
	// tuple is allocated only when it is new.
	if wants("compiled_layer_allocs") {
		if v, ok := metric(benches, "BenchmarkCompiledLayer", "allocs/op"); !ok {
			rep.Failures = append(rep.Failures, "compiled_layer_allocs: missing BenchmarkCompiledLayer")
		} else {
			rep.Ratios["compiled_layer_allocs"] = v
			if v != 0 {
				rep.Failures = append(rep.Failures,
					fmt.Sprintf("compiled_layer_allocs %.1f != 0 (compiled record driver allocates)", v))
			}
		}
	}
	if wants("layered_run_speedup") {
		if v := ratio(rep, benches, "layered_run_speedup",
			"BenchmarkLayeredEval/sequential",
			"BenchmarkLayeredEval/pipelined", "ns/op"); v > 0 && v < *minLayered {
			rep.Failures = append(rep.Failures,
				fmt.Sprintf("layered_run_speedup %.2f < %.2f", v, *minLayered))
		}
	}
	// bytes_per_tuple is an absolute ceiling on storage density: the
	// WCC-shaped capture's on-disk bytes per provenance tuple. The encoding
	// is deterministic, so the figure is hardware-independent.
	if wants("bytes_per_tuple") {
		if v, ok := metric(benches, "BenchmarkStoreFormat", "B/tuple"); !ok {
			rep.Failures = append(rep.Failures, "bytes_per_tuple: missing B/tuple for BenchmarkStoreFormat")
		} else {
			rep.Ratios["bytes_per_tuple"] = v
			if v > *maxBytesPerTuple {
				rep.Failures = append(rep.Failures,
					fmt.Sprintf("bytes_per_tuple %.3f > %.3f", v, *maxBytesPerTuple))
			}
		}
	}
	// layered_replay_facts_s is a floor on projection pushdown: replaying a
	// vector-valued capture for a query that never touches the payload
	// columns must be materially faster when the store only materializes the
	// columns the query asked for.
	if wants("layered_replay_facts_s") {
		if v := ratio(rep, benches, "layered_replay_facts_s",
			"BenchmarkLayeredReplay/projected",
			"BenchmarkLayeredReplay/unprojected", "facts/s"); v > 0 && v < *minReplayProj {
			rep.Failures = append(rep.Failures,
				fmt.Sprintf("layered_replay_facts_s %.2f < %.2f", v, *minReplayProj))
		}
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(2)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(2)
	}
	if len(rep.Failures) > 0 {
		for _, f := range rep.Failures {
			fmt.Fprintln(os.Stderr, "benchjson: FAIL:", f)
		}
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %s (%d benchmarks, %d ratios)\n",
		*out, len(benches), len(rep.Ratios))
}
