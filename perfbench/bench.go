package main

import (
	"fmt"
	"os"
	"runtime"
	"syscall"
	"time"

	"ariadne"
	"ariadne/internal/capture"
	"ariadne/internal/driver"
	"ariadne/internal/graph"
	"ariadne/internal/obs"
	"ariadne/internal/provenance"
	"ariadne/internal/queries"
)

const (
	// minSetup and minSetupReps bound how long set-up is repeated; set-up
	// takes milliseconds, so one sample would be mostly noise.
	minSetup     = 500 * time.Millisecond
	minSetupReps = 5
	// minLeg is how long each leg repeats in one cycle. The analytic is the
	// shortest leg and the one every ratio divides by.
	minLeg = 300 * time.Millisecond
)

// samples collects one value per measured call, by metric name.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

// digest fingerprints an output so legs and repetitions can be compared
// bit for bit.
type digest struct {
	sum uint64
	n   int
}

// bench runs one workload: set-up, then cycles of every leg until the
// time is up. A cycle runs the analytic, the analytic with the workload's
// online queries, a full capture spilled to disk, and the layered forward
// (q4) and backward (q10) queries over that capture. The traced run adds
// the same legs again with spans and program counters after each cycle.
type bench struct {
	in     *input
	traced bool
	rec    *recorder
	spill  string // directory the capture legs spill under

	e2e          samples // set-up and untraced leg timings
	layer        samples // per-layer values from traced calls
	onlineTraced []float64

	attempted, failed int

	// References every later output is compared with: the analytic values
	// of an in-process run, the first result of each query, the q10 start
	// (vertex, superstep) and the captured tuple count.
	values uint64
	refs   map[string]digest
	start  *[2]int
	tuples int64
}

// check collects the problems found in one operation's output.
type check struct {
	name string
	bad  []string
}

func (c *check) expect(ok bool, format string, args ...any) {
	if !ok {
		c.bad = append(c.bad, fmt.Sprintf(format, args...))
	}
}

// done counts one operation: a timed call together with its output check.
func (b *bench) done(c *check) {
	b.attempted++
	if len(c.bad) > 0 {
		b.failed++
		for _, s := range c.bad {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", c.name, s)
		}
	}
}

// same records d as the reference under key on first sight and otherwise
// expects d to equal it.
func same(c *check, refs map[string]digest, key string, d digest) {
	if ref, ok := refs[key]; ok {
		c.expect(d == ref, "%s differs from its first result (%d vs %d tuples)", key, d.n, ref.n)
		return
	}
	refs[key] = d
}

// clock runs f after a garbage collection, so that no leg pays for the
// previous leg's garbage. It records the leg's wall time (<leg>_s), the CPU
// time of every thread of the process (<leg>_cpu_s), and the allocation
// and GC-cycle deltas, and returns the wall time in seconds.
func (b *bench) clock(leg string, f func() error) (float64, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0, err := cpuTime()
	if err != nil {
		return 0, err
	}
	t := time.Now()
	err = f()
	d := time.Since(t).Seconds()
	c1, cerr := cpuTime()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return 0, err
	}
	if cerr != nil {
		return 0, cerr
	}
	b.e2e.add(leg+"_s", d)
	b.e2e.add(leg+"_cpu_s", c1-c0)
	b.layer.add("runtime.alloc_mb."+leg, float64(m1.TotalAlloc-m0.TotalAlloc)/1e6)
	b.layer.add("runtime.gc_cycles."+leg, float64(m1.NumGC-m0.NumGC))
	return d, nil
}

// cpuTime returns the user and system CPU time of the whole process.
func cpuTime() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9, nil
}

// setup builds the workload's input repeatedly and keeps the last one;
// every build must give the same graph.
func (b *bench) setup(w workload, seed int64) error {
	var first digest
	start := time.Now()
	for reps := 0; reps < minSetupReps || time.Since(start) < minSetup; reps++ {
		if b.in != nil {
			b.in.close()
		}
		t := time.Now()
		in, err := w.build(seed)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		b.e2e.add("setup_s", time.Since(t).Seconds())
		b.in = in
		c := &check{name: "set-up"}
		d := digestGraph(in.g)
		if reps == 0 {
			first = d
		}
		c.expect(d == first, "graph differs between builds from one seed")
		b.done(c)
	}
	// The reference values come from an untimed in-process run, so the
	// TCP workload is checked against the in-process engine.
	res, err := ariadne.Run(b.in.g, b.in.prog(), b.in.opts...)
	if err != nil {
		return fmt.Errorf("reference run: %w", err)
	}
	b.values = digestValues(res.Values).sum
	b.refs = map[string]digest{}
	return nil
}

// repeat runs leg until its calls have taken minLeg together, so that a
// short leg contributes several samples to each cycle.
func repeat(leg func() (float64, error)) error {
	for spent := 0.0; spent < minLeg.Seconds(); {
		d, err := leg()
		if err != nil {
			return err
		}
		spent += d
	}
	return nil
}

func (b *bench) cycle() error {
	if err := repeat(b.analytic); err != nil {
		return err
	}
	if err := repeat(b.onlineLeg); err != nil {
		return err
	}
	if err := b.captureReplay(); err != nil {
		return err
	}
	if b.traced {
		return b.tracedCycle()
	}
	return nil
}

func (b *bench) analytic() (float64, error) {
	var res *ariadne.Result
	d, err := b.clock("analytic", func() (err error) {
		res, err = ariadne.Run(b.in.g, b.in.prog(), b.in.runOpts()...)
		return err
	})
	if err != nil {
		return 0, fmt.Errorf("analytic: %w", err)
	}
	c := &check{name: "analytic"}
	c.expect(digestValues(res.Values).sum == b.values, "values differ from the in-process reference run")
	b.done(c)
	return d, nil
}

func (b *bench) onlineLeg() (float64, error) {
	var opts []ariadne.Option
	for _, q := range b.in.online {
		opts = append(opts, ariadne.WithOnlineQuery(q.def))
	}
	var res *ariadne.Result
	d, err := b.clock("online", func() (err error) {
		res, err = ariadne.Run(b.in.g, b.in.prog(), b.in.runOpts(opts...)...)
		return err
	})
	if err != nil {
		return 0, fmt.Errorf("online: %w", err)
	}
	c := &check{name: "online"}
	c.expect(digestValues(res.Values).sum == b.values, "values differ from the bare analytic (Theorem 5.4)")
	for _, q := range b.in.online {
		same(c, b.refs, q.short, digestResult(res.Query(q.def.Name), q.def.ResultPreds))
	}
	b.done(c)
	return d, nil
}

// captureReplay repeats the capture leg, then each layered leg over the
// store the last capture left.
func (b *bench) captureReplay() error {
	var store *ariadne.Store
	defer func() {
		if store != nil {
			store.Close()
		}
	}()
	err := repeat(func() (float64, error) {
		if store != nil {
			store.Close()
		}
		var d float64
		var err error
		d, store, err = b.capture()
		return d, err
	})
	if err != nil {
		return err
	}
	if err := repeat(func() (float64, error) { return b.layeredFwd(store) }); err != nil {
		return err
	}
	alpha, sigma, err := lastActive(store)
	if err != nil {
		return err
	}
	return repeat(func() (float64, error) { return b.layeredBack(store, alpha, sigma) })
}

// capture runs the analytic with full capture (Query 2) spilled to disk,
// timed through Store.Sync. The spill directory is reused: closing a
// store removes its files.
func (b *bench) capture() (float64, *ariadne.Store, error) {
	var res *ariadne.Result
	d, err := b.clock("capture", func() (err error) {
		res, err = ariadne.Run(b.in.g, b.in.prog(), b.in.runOpts(ariadne.WithCaptureQuery(queries.CaptureFull(),
			ariadne.StoreConfig{SpillDir: b.spill, SpillAll: true}))...)
		if err != nil {
			return err
		}
		return res.Provenance.Sync()
	})
	if err != nil {
		return 0, nil, fmt.Errorf("capture: %w", err)
	}
	store := res.Provenance
	b.e2e.add("disk_bytes_per_tuple", float64(store.DiskBytes())/float64(store.TotalTuples()))
	c := &check{name: "capture"}
	c.expect(digestValues(res.Values).sum == b.values, "values differ from the bare analytic (Theorem 5.4)")
	c.expect(store.TotalTuples() > 0 && store.SpilledLayers() == store.NumLayers(), "capture did not spill every layer")
	c.expect(len(res.CaptureGaps) == 0, "capture has gaps")
	if b.tuples == 0 {
		b.tuples = store.TotalTuples()
	}
	c.expect(store.TotalTuples() == b.tuples, "capture holds %d tuples, first capture %d", store.TotalTuples(), b.tuples)
	b.done(c)
	return d, store, nil
}

func (b *bench) layeredFwd(store *ariadne.Store) (float64, error) {
	fwd := queries.PageRankCheck()
	var r *ariadne.QueryResult
	d, err := b.clock("layered_fwd", func() (err error) {
		r, err = ariadne.QueryOffline(fwd, store, b.in.g, ariadne.ModeLayered, 0)
		return err
	})
	if err != nil {
		return 0, fmt.Errorf("layered q4: %w", err)
	}
	c := &check{name: "layered q4"}
	got := digestResult(r, fwd.ResultPreds)
	if on, ok := b.refs["q4"]; ok {
		c.expect(got == on, "layered q4 differs from online q4 (Lemma 5.3): %d vs %d tuples", got.n, on.n)
	}
	same(c, b.refs, "q4_layered", got)
	b.done(c)
	return d, nil
}

func (b *bench) layeredBack(store *ariadne.Store, alpha graph.VertexID, sigma int) (float64, error) {
	back := queries.BackwardTrace(alpha, sigma)
	var r *ariadne.QueryResult
	d, err := b.clock("layered_back", func() (err error) {
		r, err = ariadne.QueryOffline(back, store, b.in.g, ariadne.ModeLayered, 0)
		return err
	})
	if err != nil {
		return 0, fmt.Errorf("layered q10: %w", err)
	}
	c := &check{name: "layered q10"}
	c.expect(ariadne.Count(r, "back_trace") > 0, "backward trace from vertex %d at superstep %d is empty", alpha, sigma)
	if b.start == nil {
		b.start = &[2]int{int(alpha), sigma}
	}
	c.expect(*b.start == [2]int{int(alpha), sigma}, "q10 start moved to vertex %d at superstep %d", alpha, sigma)
	same(c, b.refs, "q10", digestResult(r, back.ResultPreds))
	b.done(c)
	return d, nil
}

// lastActive derives the q10 start from the capture: the first vertex of
// the last layer in which any vertex computed.
func lastActive(store *ariadne.Store) (graph.VertexID, int, error) {
	for i := store.NumLayers() - 1; i >= 0; i-- {
		l, err := store.Layer(i)
		if err != nil {
			return 0, 0, err
		}
		if len(l.Records) > 0 {
			return l.Records[0].Vertex, l.Superstep, nil
		}
	}
	return 0, 0, fmt.Errorf("capture holds no active vertex")
}

// tracedCycle runs every leg again with its layers timed from outside and
// the program's own counters on, and checks that the traced outputs equal
// the untraced ones.
func (b *bench) tracedCycle() error {
	if err := b.tracedAnalytic(); err != nil {
		return err
	}
	if err := b.tracedOnline(); err != nil {
		return err
	}
	return b.tracedCapture()
}

// span runs f in a span after a garbage collection, like clock.
func (b *bench) span(name string, f func() error) (float64, error) {
	runtime.GC()
	return b.rec.timed(name, f)
}

func (b *bench) tracedAnalytic() error {
	m := ariadne.NewMetrics()
	opts := append(append([]ariadne.Option(nil), b.in.opts...), ariadne.WithMetrics(m))
	var peer0 int64
	if b.in.tcp != nil {
		// A client of its own reports the wire into this run's registry;
		// spans give the transport buckets.
		tr, err := b.in.tcp.dial(m)
		if err != nil {
			return fmt.Errorf("traced analytic: %w", err)
		}
		defer tr.Close()
		opts = append(opts, ariadne.WithTransport(tr), ariadne.WithSpanTrace())
		peer0 = b.in.tcp.wm.Counter(obs.MetricNetPeerBytes).Value()
	}
	var res *ariadne.Result
	if _, err := b.span("ariadne.Run/analytic", func() (err error) {
		res, err = ariadne.Run(b.in.g, b.in.prog(), opts...)
		return err
	}); err != nil {
		return fmt.Errorf("traced analytic: %w", err)
	}
	c := &check{name: "traced analytic"}
	c.expect(digestValues(res.Values).sum == b.values, "traced values differ from the untraced run")
	b.done(c)

	var compute, barrier int64
	for _, p := range res.Profile {
		compute += p.ComputeNS
		barrier += p.BarrierNS
	}
	b.layer.add("engine.compute_s", float64(compute)/1e9)
	b.layer.add("engine.barrier_s", float64(barrier)/1e9)
	b.layer.add("engine.messages", float64(res.Stats.MessagesSent))
	b.layer.add("engine.supersteps", float64(res.Stats.Supersteps))
	if b.in.tcp != nil {
		net := res.NetStats
		wire := net[obs.MetricNetBytesSent] + net[obs.MetricNetBytesRecv] +
			b.in.tcp.wm.Counter(obs.MetricNetPeerBytes).Value() - peer0
		b.layer.add("transport.wire_bytes_per_superstep", float64(wire)/float64(res.Stats.Supersteps))
		b.layer.add("transport.retransmits", float64(net[obs.MetricNetRetransmits]))
		buckets := m.TransportBuckets()
		for _, k := range []string{"serialize", "wire", "worker_compute", "retry"} {
			b.layer.add("transport."+k+"_s", float64(buckets[k])/1e9)
		}
	}
	return nil
}

func (b *bench) tracedOnline() error {
	m := ariadne.NewMetrics()
	opts := []ariadne.Option{ariadne.WithMetrics(m)}
	onlines := make([]*driver.Online, len(b.in.online))
	timers := make([]*timedObserver, len(b.in.online))
	for i, nq := range b.in.online {
		q, err := nq.def.Build()
		if err != nil {
			return err
		}
		o, err := driver.NewOnline(q, b.in.g, driver.WithEvalObs(m))
		if err != nil {
			return err
		}
		o.SetMetrics(m, nq.def.Name)
		w, t := wrap(o, "driver.ObserveSuperstep/"+nq.short, b.rec)
		onlines[i], timers[i] = o, t
		opts = append(opts, ariadne.WithObserver(w))
	}
	var res *ariadne.Result
	d, err := b.span("ariadne.Run/online", func() (err error) {
		res, err = ariadne.Run(b.in.g, b.in.prog(), b.in.runOpts(opts...)...)
		return err
	})
	if err != nil {
		return fmt.Errorf("traced online: %w", err)
	}
	b.onlineTraced = append(b.onlineTraced, d)
	c := &check{name: "traced online"}
	c.expect(digestValues(res.Values).sum == b.values, "traced values differ from the untraced run")
	var observe int64
	for _, p := range res.Profile {
		observe += p.ObserveNS
	}
	b.layer.add("engine.observe_s", float64(observe)/1e9)
	for i, nq := range b.in.online {
		r := onlines[i].Result()
		same(c, b.refs, nq.short, digestResult(r, nq.def.ResultPreds))
		st := r.EvalStats()
		b.layer.add("driver.observe_s."+nq.short, timers[i].busy.Seconds())
		b.layer.add("driver.piggyback_tuples."+nq.short, float64(onlines[i].PiggybackTuples))
		b.layer.add("eval.derivations."+nq.short, float64(st.Derivations))
		b.layer.add("eval.rounds."+nq.short, float64(st.Rounds))
	}
	b.done(c)
	return nil
}

func (b *bench) tracedCapture() error {
	m := ariadne.NewMetrics()
	store := provenance.NewStore(provenance.StoreConfig{SpillDir: b.spill, SpillAll: true, Metrics: m})
	defer store.Close()
	def := queries.CaptureFull()
	q, err := def.Build()
	if err != nil {
		return err
	}
	pol, err := capture.FromQuery(q, def.Env)
	if err != nil {
		return err
	}
	co := capture.NewObserver(pol, store)
	co.SetMetrics(m)
	w, t := wrap(co, "capture.ObserveSuperstep", b.rec)
	var res *ariadne.Result
	if _, err := b.span("ariadne.Run/capture", func() (err error) {
		res, err = ariadne.Run(b.in.g, b.in.prog(), b.in.runOpts(ariadne.WithMetrics(m), ariadne.WithObserver(w))...)
		return err
	}); err != nil {
		return fmt.Errorf("traced capture: %w", err)
	}
	syncS, err := b.rec.timed("provenance.Store.Sync", store.Sync)
	if err != nil {
		return fmt.Errorf("traced capture: %w", err)
	}
	c := &check{name: "traced capture"}
	c.expect(digestValues(res.Values).sum == b.values, "traced values differ from the untraced run")
	c.expect(store.TotalTuples() == b.tuples, "traced capture holds %d tuples, untraced %d", store.TotalTuples(), b.tuples)
	b.done(c)

	var tuples, bytes, spill int64
	for _, p := range res.Profile {
		for _, n := range p.CaptureTuples {
			tuples += n
		}
		bytes += p.CaptureBytes
		spill += p.SpillNS
	}
	b.layer.add("capture.observe_s", t.busy.Seconds())
	b.layer.add("capture.tuples", float64(tuples))
	b.layer.add("capture.bytes", float64(bytes))
	b.layer.add("provenance.spill_s", float64(spill)/1e9)
	b.layer.add("provenance.sync_wait_s", syncS)
	b.layer.add("provenance.disk_bytes", float64(store.DiskBytes()))

	// Read every layer back before any query touches the store, so the
	// scan starts with an empty layer cache.
	scan, err := b.span("provenance.Store.Layer/scan", func() error {
		for i := 0; i < store.NumLayers(); i++ {
			if _, err := store.Layer(i); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("traced scan: %w", err)
	}
	b.layer.add("provenance.scan_s", scan)

	fwd := queries.PageRankCheck()
	var r *ariadne.QueryResult
	if _, err := b.span("ariadne.QueryOffline/q4", func() (err error) {
		r, err = ariadne.QueryOffline(fwd, store, b.in.g, ariadne.ModeLayered, 0)
		return err
	}); err != nil {
		return fmt.Errorf("traced layered q4: %w", err)
	}
	c = &check{name: "traced layered q4"}
	same(c, b.refs, "q4_layered", digestResult(r, fwd.ResultPreds))
	b.done(c)
	b.layer.add("driver.facts.q4_layered", float64(r.Facts))
	b.layer.add("eval.derivations.q4_layered", float64(r.EvalStats().Derivations))
	b.layer.add("eval.rounds.q4_layered", float64(r.EvalStats().Rounds))

	alpha, sigma, err := lastActive(store)
	if err != nil {
		return err
	}
	back := queries.BackwardTrace(alpha, sigma)
	if _, err := b.span("ariadne.QueryOffline/q10", func() (err error) {
		r, err = ariadne.QueryOffline(back, store, b.in.g, ariadne.ModeLayered, 0)
		return err
	}); err != nil {
		return fmt.Errorf("traced layered q10: %w", err)
	}
	c = &check{name: "traced layered q10"}
	c.expect(*b.start == [2]int{int(alpha), sigma}, "traced q10 start moved to vertex %d at superstep %d", alpha, sigma)
	same(c, b.refs, "q10", digestResult(r, back.ResultPreds))
	b.done(c)
	b.layer.add("driver.facts.q10", float64(r.Facts))
	b.layer.add("eval.derivations.q10", float64(r.EvalStats().Derivations))
	b.layer.add("eval.rounds.q10", float64(r.EvalStats().Rounds))
	return nil
}
