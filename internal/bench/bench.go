// Package bench regenerates the paper's evaluation (§6): every table and
// figure has a runner that executes the corresponding workloads on the
// scaled-down stand-in datasets and prints rows in the paper's shape.
// Absolute numbers differ from the paper's 7-node cluster — the shapes
// (who wins, rough factors, crossovers) are the reproduction target
// (see EXPERIMENTS.md).
package bench

import (
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"

	"ariadne"
	"ariadne/internal/analytics"
	"ariadne/internal/gen"
	"ariadne/internal/graph"
	"ariadne/internal/value"
)

// Config controls experiment scale and output.
type Config struct {
	// SizeFactor scales the stand-in datasets; 0 is the default benchmark
	// size (2^8..2^11 vertices), each +1 doubles every dataset.
	SizeFactor int
	// Supersteps bounds PageRank iterations (default 20, as in the paper).
	Supersteps int
	// Repeat runs each timed configuration this many times and keeps the
	// trimmed mean (the paper uses 5 runs, trimmed); default 1.
	Repeat int
	// NaiveBudget bounds the naive mode's database bytes; beyond it the
	// run reports DNF like the paper's "Naive was not able to scale".
	// Default 256 MiB.
	NaiveBudget int64
	// Datasets restricts execution to the named datasets (nil = all).
	Datasets []string
	// Out receives the report (default os.Stdout).
	Out io.Writer
}

func (c Config) out() io.Writer {
	if c.Out == nil {
		return os.Stdout
	}
	return c.Out
}

func (c Config) supersteps() int {
	if c.Supersteps <= 0 {
		return 20
	}
	return c.Supersteps
}

func (c Config) repeat() int {
	if c.Repeat <= 0 {
		return 1
	}
	return c.Repeat
}

func (c Config) naiveBudget() int64 {
	if c.NaiveBudget == 0 {
		return 256 << 20
	}
	return c.NaiveBudget
}

// webScaleOffset maps SizeFactor to gen.WebDatasets' scale parameter so
// that SizeFactor 0 yields 2^8..2^11 vertices.
const webScaleOffset = -4

// Runner executes experiments, caching generated datasets.
type Runner struct {
	cfg    Config
	graphs map[string]*graph.Graph
	undirs map[string]*graph.Graph
}

// NewRunner creates a Runner.
func NewRunner(cfg Config) *Runner {
	return &Runner{cfg: cfg, graphs: map[string]*graph.Graph{}, undirs: map[string]*graph.Graph{}}
}

func (r *Runner) datasets() []gen.Dataset {
	all := gen.WebDatasets(r.cfg.SizeFactor + webScaleOffset)
	if len(r.cfg.Datasets) == 0 {
		return all
	}
	var out []gen.Dataset
	for _, want := range r.cfg.Datasets {
		for _, d := range all {
			if d.Name == want {
				out = append(out, d)
			}
		}
	}
	return out
}

func (r *Runner) graph(d gen.Dataset) (*graph.Graph, error) {
	if g, ok := r.graphs[d.Name]; ok {
		return g, nil
	}
	g, err := d.Build()
	if err != nil {
		return nil, err
	}
	g.BuildInEdges()
	r.graphs[d.Name] = g
	return g, nil
}

func (r *Runner) undirected(d gen.Dataset) (*graph.Graph, error) {
	if g, ok := r.undirs[d.Name]; ok {
		return g, nil
	}
	dg, err := r.graph(d)
	if err != nil {
		return nil, err
	}
	u := dg.Undirected()
	r.undirs[d.Name] = u
	return u, nil
}

// analyticSpec names one of the paper's analytics over one dataset.
type analyticSpec struct {
	name string
	prog func() ariadne.Program
	g    *graph.Graph
	opts []ariadne.Option
}

// analyticsFor builds the PageRank/SSSP/WCC specs for a dataset.
func (r *Runner) analyticsFor(d gen.Dataset) ([]analyticSpec, error) {
	g, err := r.graph(d)
	if err != nil {
		return nil, err
	}
	u, err := r.undirected(d)
	if err != nil {
		return nil, err
	}
	n := r.cfg.supersteps()
	return []analyticSpec{
		{
			name: "PageRank",
			prog: func() ariadne.Program { return &analytics.PageRank{Iterations: n} },
			g:    g,
			opts: []ariadne.Option{ariadne.WithMaxSupersteps(n + 1)},
		},
		{
			name: "SSSP",
			prog: func() ariadne.Program { return &analytics.SSSP{Source: 0} },
			g:    g,
		},
		{
			name: "WCC",
			prog: func() ariadne.Program { return analytics.WCC{} },
			g:    u,
		},
	}, nil
}

// timeRun measures one Run configuration with trimmed-mean repetition.
func (r *Runner) timeRun(g *graph.Graph, prog func() ariadne.Program, opts ...ariadne.Option) (time.Duration, *ariadne.Result, error) {
	times := make([]time.Duration, 0, r.cfg.repeat())
	var last *ariadne.Result
	for i := 0; i < r.cfg.repeat(); i++ {
		res, err := ariadne.Run(g, prog(), opts...)
		if err != nil {
			return 0, nil, err
		}
		times = append(times, res.Duration)
		last = res
	}
	return trimmedMean(times), last, nil
}

// cpuInterleaved measures legs by process CPU time, in rounds: each round
// runs every leg once, in order, after a forced GC so no leg pays for the
// previous one's garbage, and each leg keeps the trimmed mean of its
// rounds. CPU time does not count the time the process waits for a core,
// and interleaving spreads whatever load remains over all legs, so
// experiments that compare legs of one row (Figure 7's full vs. custom
// capture, Figure 12's full vs. custom trace) keep their shape on a busy
// machine.
func (r *Runner) cpuInterleaved(legs ...func() error) ([]time.Duration, error) {
	times := make([][]time.Duration, len(legs))
	for i := 0; i < r.cfg.repeat(); i++ {
		for l, leg := range legs {
			runtime.GC()
			start := cpuTime()
			if err := leg(); err != nil {
				return nil, err
			}
			times[l] = append(times[l], cpuTime()-start)
		}
	}
	out := make([]time.Duration, len(legs))
	for l := range legs {
		out[l] = trimmedMean(times[l])
	}
	return out, nil
}

// cpuTime returns the user plus system CPU time of the whole process.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func trimmedMean(ts []time.Duration) time.Duration {
	if len(ts) <= 2 {
		var sum time.Duration
		for _, t := range ts {
			sum += t
		}
		return sum / time.Duration(len(ts))
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	ts = ts[1 : len(ts)-1]
	var sum time.Duration
	for _, t := range ts {
		sum += t
	}
	return sum / time.Duration(len(ts))
}

func overhead(t, baseline time.Duration) float64 {
	if baseline <= 0 {
		return math.NaN()
	}
	return float64(t) / float64(baseline)
}

func gbLike(bytes int64) string {
	switch {
	case bytes >= 1<<30:
		return fmt.Sprintf("%.1fGB", float64(bytes)/(1<<30))
	case bytes >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(bytes)/(1<<20))
	default:
		return fmt.Sprintf("%.1fKB", float64(bytes)/(1<<10))
	}
}

// medianFloat returns the median of vertex values (used by Tables 5 and 6).
func medianFloat(vals []value.Value, skipInf bool) float64 {
	fs := make([]float64, 0, len(vals))
	for _, v := range vals {
		f := v.Float()
		if skipInf && math.IsInf(f, 0) {
			continue
		}
		fs = append(fs, f)
	}
	if len(fs) == 0 {
		return math.NaN()
	}
	sort.Float64s(fs)
	return fs[len(fs)/2]
}

// lpRelativeError is the paper's normalized error: Lp(r0-r1)/Lp(r0), with
// non-finite entries (unreached SSSP vertices) skipped pairwise.
func lpRelativeError(r0, r1 []value.Value, p float64) float64 {
	var num, den float64
	for i := range r0 {
		a, b := r0[i].Float(), r1[i].Float()
		if math.IsInf(a, 0) || math.IsInf(b, 0) || math.IsNaN(a) || math.IsNaN(b) {
			continue
		}
		num += math.Pow(math.Abs(a-b), p)
		den += math.Pow(math.Abs(a), p)
	}
	if den == 0 {
		return 0
	}
	return math.Pow(num, 1/p) / math.Pow(den, 1/p)
}

// labelDisagreement is the WCC analog of relative error: the fraction of
// vertices whose component label differs.
func labelDisagreement(r0, r1 []value.Value) float64 {
	if len(r0) == 0 {
		return 0
	}
	diff := 0
	for i := range r0 {
		if !r0[i].Equal(r1[i]) {
			diff++
		}
	}
	return float64(diff) / float64(len(r0))
}
