// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload from a seed, checks every output, and prints the metrics that
// BENCHMARK.json declares: the end-to-end ones, or with -trace 1 the
// per-layer ones. Run it from the repository root through run.sh:
//
//	bash perfbench/run.sh --workload web-monitor --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The command exits 1 when any
// output check fails or any call into the program returns an error.
package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"ariadne"
	"ariadne/internal/graph"
	"ariadne/internal/value"
)

// workDir holds everything a run writes, relative to the repository root.
const workDir = ".bench_build"

func main() { os.Exit(run()) }

func run() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "web-monitor, als-monitor, capture-replay or tcp-monitor")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Int("seconds", 25, "how long to measure, in seconds")
	trace := fs.Int("trace", 0, "1 for the traced run, which prints the per-layer metrics")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>")
		return 2
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}

	// One process, at most two Ps: the load every figure is measured under.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	// A hung exchange must not hang the caller past its limit.
	time.AfterFunc(170*time.Second, func() {
		fmt.Fprintln(os.Stderr, "perfbench: run did not finish in time")
		os.Exit(3)
	})

	b := &bench{traced: *trace == 1, e2e: samples{}, layer: samples{}}
	if b.traced {
		b.rec = newRecorder()
	}
	b.spill = filepath.Join(workDir, "spill", fmt.Sprintf("%s-%d", w.name, os.Getpid()))
	if err := os.MkdirAll(b.spill, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(b.spill)

	cycles, err := b.measure(w, *seed, time.Duration(*seconds)*time.Second)
	if b.in != nil {
		b.in.close()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if b.traced {
		if err := b.rec.writeChrome(filepath.Join(workDir, "spans", fmt.Sprintf("%s-seed%d.json", w.name, *seed))); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
	}
	values, err := b.metrics()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	declared := spec.EndToEnd
	if b.traced {
		declared = spec.PerLayer
	}
	out, err := spec.pick(values, b.traced)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}

	fmt.Printf("workload %s seed %d: %s, %d cycles in %ds, GOMAXPROCS %d, %d partitions\n",
		w.name, *seed, b.in.shape, cycles, *seconds, runtime.GOMAXPROCS(0), partitions)
	for _, d := range declared {
		xs := append(append([]float64(nil), b.e2e[d.Name]...), b.layer[d.Name]...)
		fmt.Printf("  %-40s %14.6g %-8s", d.Name, out[d.Name].Value, d.Unit)
		if len(xs) > 1 {
			sort.Float64s(xs)
			fmt.Printf(" median of %d, min %.6g, max %.6g", len(xs), xs[0], xs[len(xs)-1])
		}
		fmt.Println()
	}
	if !b.traced {
		fmt.Printf("  %-40s %14.6g %-8s (wall, not gated)\n", "analytic_s", values["analytic_s"], "s")
		for _, r := range ratios {
			fmt.Printf("  %-40s %14.6g %-8s (wall, not gated)\n", r.over, values[r.over], "s")
			fmt.Printf("  %-40s %14.6g %-8s (not gated)\n", r.name, values[r.name], "x")
		}
	}
	fmt.Printf("  %-40s %14.6g %-8s (%d of %d operations)\n", "fail_rate", float64(b.failed)/float64(b.attempted), "1", b.failed, b.attempted)

	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{b.failed == 0, b.attempted, b.failed, out})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if b.failed > 0 {
		return 1
	}
	return 0
}

// measure sets up, then runs cycles until the next one would end past
// budget, and returns the number of cycles run.
func (b *bench) measure(w workload, seed int64, budget time.Duration) (int, error) {
	if err := b.setup(w, seed); err != nil {
		return 0, err
	}
	start := time.Now()
	for n := 1; ; n++ {
		if b.rec != nil {
			b.rec.setCycle(n)
		}
		if err := b.cycle(); err != nil {
			return n, err
		}
		if el := time.Since(start); el+el/time.Duration(n) > budget {
			return n, nil
		}
	}
}

// ratios are the paper's overheads, each over the bare analytic. They are
// printed but not gated: an engine speed-up shrinks analytic_s and would
// make every gated ratio look worse.
var ratios = []struct{ name, over string }{
	{"ratio.online_x", "online_s"},
	{"ratio.capture_x", "capture_s"},
	{"ratio.layered_fwd_x", "layered_fwd_s"},
	{"ratio.layered_back_x", "layered_back_s"},
}

// metrics reduces the samples to one value per metric: the median of
// each timing and counter, the peak RSS, and the derived ratios.
func (b *bench) metrics() (map[string]float64, error) {
	v := map[string]float64{}
	for name, xs := range b.e2e {
		v[name] = median(xs)
	}
	if b.traced {
		for name, xs := range b.layer {
			v[name] = median(xs)
		}
		v["obs.trace_overhead_x"] = median(b.onlineTraced) / v["online_s"]
	}
	for _, r := range ratios {
		v[r.name] = v[r.over] / v["analytic_s"]
	}
	rss, err := peakRSS()
	if err != nil {
		return nil, err
	}
	v["peak_rss_mb"] = rss
	return v, nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type declaredMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type spec struct {
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// pick returns exactly the metrics the run reports: the end-to-end ones,
// or in the traced run the per-layer ones. An end-to-end metric must have
// been measured; a per-layer metric of a layer the workload bypasses reads
// 0. A value that BENCHMARK.json does not declare is an error, so a
// misspelt name cannot vanish from the output.
func (s *spec) pick(values map[string]float64, traced bool) (map[string]metric, error) {
	declared := map[string]bool{}
	for _, d := range append(s.EndToEnd, s.PerLayer...) {
		declared[d.Name] = true
	}
	for name := range values {
		if !declared[name] {
			return nil, fmt.Errorf("metric %s is not declared in BENCHMARK.json", name)
		}
	}
	list := s.EndToEnd
	if traced {
		list = s.PerLayer
	}
	out := make(map[string]metric, len(list))
	for _, d := range list {
		x, ok := values[d.Name]
		if !ok && !traced {
			return nil, fmt.Errorf("end-to-end metric %s was not measured", d.Name)
		}
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, x)
		}
		out[d.Name] = metric{Value: x, Unit: d.Unit}
	}
	return out, nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// peakRSS reads the process's resident-set high-water mark (VmHWM) in MB.
func peakRSS() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

func hashValue(h hash.Hash64, v value.Value) {
	var buf [9]byte
	buf[0] = byte(v.Kind())
	switch v.Kind() {
	case value.Bool:
		if v.Bool() {
			buf[1] = 1
		}
		h.Write(buf[:2])
	case value.Int:
		binary.LittleEndian.PutUint64(buf[1:], uint64(v.Int()))
		h.Write(buf[:])
	case value.Float:
		binary.LittleEndian.PutUint64(buf[1:], math.Float64bits(v.Float()))
		h.Write(buf[:])
	case value.String:
		h.Write(buf[:1])
		h.Write([]byte(v.Str()))
	case value.Vector:
		h.Write(buf[:1])
		for _, f := range v.Vec() {
			binary.LittleEndian.PutUint64(buf[1:], math.Float64bits(f))
			h.Write(buf[1:])
		}
	default:
		h.Write(buf[:1])
	}
}

func digestValues(vs []ariadne.Value) digest {
	h := fnv.New64a()
	for _, v := range vs {
		hashValue(h, v)
	}
	return digest{h.Sum64(), len(vs)}
}

// digestResult fingerprints the query's answer relations, sorted.
func digestResult(r *ariadne.QueryResult, preds []string) digest {
	h := fnv.New64a()
	n := 0
	for _, p := range preds {
		h.Write([]byte(p))
		for _, t := range ariadne.Tuples(r, p) {
			for _, v := range t {
				hashValue(h, v)
			}
			n++
		}
	}
	return digest{h.Sum64(), n}
}

func digestGraph(g *ariadne.Graph) digest {
	h := fnv.New64a()
	var buf [8]byte
	for v := 0; v < g.NumVertices(); v++ {
		dst, w := g.OutNeighbors(graph.VertexID(v))
		for i := range dst {
			binary.LittleEndian.PutUint32(buf[:4], uint32(v))
			binary.LittleEndian.PutUint32(buf[4:], uint32(dst[i]))
			h.Write(buf[:])
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(w[i]))
			h.Write(buf[:])
		}
	}
	return digest{h.Sum64(), g.NumEdges()}
}
