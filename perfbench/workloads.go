package main

import (
	"fmt"

	"ariadne"
	"ariadne/internal/analytics"
	"ariadne/internal/engine"
	"ariadne/internal/gen"
	"ariadne/internal/obs"
	"ariadne/internal/queries"
	"ariadne/internal/transport"
)

// Sizes. The web graph has UK-05's average degree (paper Table 2) at 2^9
// vertices, a quarter of the ariadne-bench UK-05 stand-in; the ratings graph
// is ML-20 shaped (10 ratings per user, 5 users per item) at 1200 vertices,
// a quarter of the 4800 vertices gen.MLDataset(1) builds. At these sizes one cycle of
// every leg takes 2-4 s on two cores, so a 25 s run collects 5-8 cycles.
const (
	webScale    = 9
	webAvgDeg   = 23.73
	prIters     = 20
	partitions  = 4
	alsUsers    = 1000
	alsItems    = 200
	alsPerUser  = 10
	alsFeatures = 10
	alsSteps    = 10
	tcpWorkers  = 2
)

// namedQuery is an online query with the short name its metrics carry.
type namedQuery struct {
	short string
	def   queries.Definition
}

// workload names one set of inputs and how to build them from a seed. The
// reason each workload exists is its `why` in BENCHMARK.json.
type workload struct {
	name  string
	build func(seed int64) (*input, error)
}

// input is what a workload's set-up produces: the graph, the analytic, the
// in-process run options, and the workload's online queries.
type input struct {
	g      *ariadne.Graph
	prog   func() ariadne.Program
	opts   []ariadne.Option
	online []namedQuery
	shape  string
	tcp    *cluster // TCP-loopback workers; nil for in-process workloads
}

// runOpts returns the options of one run: the input's own, then extra,
// then the workload's transport if it has one.
func (in *input) runOpts(extra ...ariadne.Option) []ariadne.Option {
	opts := append(append([]ariadne.Option(nil), in.opts...), extra...)
	if in.tcp != nil {
		opts = append(opts, ariadne.WithTransport(in.tcp.tr))
	}
	return opts
}

func (in *input) close() {
	if in.tcp != nil {
		in.tcp.close()
	}
}

var workloads = []workload{
	{name: "web-monitor", build: func(seed int64) (*input, error) {
		return webInput(seed, namedQuery{"q4", queries.PageRankCheck()}, namedQuery{"apt", queries.Apt(0.01, nil)})
	}},
	{name: "als-monitor", build: alsInput},
	{name: "capture-replay", build: func(seed int64) (*input, error) {
		return webInput(seed, namedQuery{"q4", queries.PageRankCheck()})
	}},
	{name: "tcp-monitor", build: func(seed int64) (*input, error) {
		in, err := webInput(seed, namedQuery{"q4", queries.PageRankCheck()})
		if err != nil {
			return nil, err
		}
		in.tcp, err = startCluster(in)
		if err != nil {
			return nil, err
		}
		in.shape += fmt.Sprintf(", %d TCP-loopback workers", tcpWorkers)
		return in, nil
	}},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func webInput(seed int64, online ...namedQuery) (*input, error) {
	g, err := gen.RMAT(gen.DefaultRMAT(webScale, webAvgDeg, seed))
	if err != nil {
		return nil, err
	}
	g.BuildInEdges()
	return &input{
		g:      g,
		prog:   func() ariadne.Program { return &analytics.PageRank{Iterations: prIters} },
		opts:   []ariadne.Option{ariadne.WithMaxSupersteps(prIters + 1), ariadne.WithPartitions(partitions)},
		online: online,
		shape:  fmt.Sprintf("PageRank x%d on R-MAT %dv/%de", prIters, g.NumVertices(), g.NumEdges()),
	}, nil
}

func alsInput(seed int64) (*input, error) {
	r, err := gen.Bipartite(gen.DefaultBipartite(alsUsers, alsItems, alsPerUser, seed))
	if err != nil {
		return nil, err
	}
	r.Graph.BuildInEdges()
	return &input{
		g: r.Graph,
		// A negative tolerance never halts early, so every seed runs all
		// alsSteps supersteps and the work does not depend on convergence.
		prog: func() ariadne.Program {
			return &analytics.ALS{NumUsers: r.NumUsers, Features: alsFeatures, Tol: -1, Seed: 7}
		},
		opts:   []ariadne.Option{ariadne.WithMaxSupersteps(alsSteps), ariadne.WithPartitions(partitions)},
		online: []namedQuery{{"q7", queries.ALSRangeCheck()}, {"q8", queries.ALSErrorIncrease(0.5)}},
		shape:  fmt.Sprintf("ALS k=%d on ratings %dv/%de", alsFeatures, r.Graph.NumVertices(), r.Graph.NumEdges()),
	}, nil
}

// cluster is a set of in-process TCP-loopback workers and the client
// connected to them.
type cluster struct {
	workers []*transport.Worker
	served  []chan struct{}
	tr      *transport.TCP
	fp      transport.Fingerprint
	// wm counts the worker side of the wire (worker-to-worker fragments).
	wm *obs.Metrics
}

func startCluster(in *input) (*cluster, error) {
	c := &cluster{
		fp: transport.Fingerprint{Partitions: partitions, NumVertices: in.g.NumVertices(), NumEdges: in.g.NumEdges()},
		wm: obs.New(),
	}
	for i := 0; i < tcpWorkers; i++ {
		x, err := engine.NewExecutor(in.g, in.prog(), engine.Config{Partitions: partitions})
		if err != nil {
			c.close()
			return nil, err
		}
		w, err := transport.NewWorker(x, "127.0.0.1:0", c.wm)
		if err != nil {
			c.close()
			return nil, err
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			w.Serve()
		}()
		c.workers = append(c.workers, w)
		c.served = append(c.served, done)
	}
	tr, err := c.dial(nil)
	if err != nil {
		c.close()
		return nil, err
	}
	c.tr = tr
	return c, nil
}

// dial opens another client to the workers, reporting into m.
func (c *cluster) dial(m *obs.Metrics) (*transport.TCP, error) {
	addrs := make([]string, len(c.workers))
	for i, w := range c.workers {
		addrs[i] = w.Addr()
	}
	return transport.DialTCP(transport.TCPConfig{Addrs: addrs, Fingerprint: c.fp, Metrics: m})
}

// close stops the client and every worker, and waits for the workers'
// accept loops to return.
func (c *cluster) close() {
	if c.tr != nil {
		c.tr.Close()
	}
	for _, w := range c.workers {
		w.Close()
	}
	for _, done := range c.served {
		<-done
	}
}
