// Package ariadne is a Go implementation of Ariadne (SIGMOD 2019): online
// provenance capture and querying for vertex-centric Big Graph analytics.
//
// The package ties together a Pregel-style BSP engine, the compact
// provenance graph store, and PQL — a Datalog-based provenance query
// language — offering the paper's three evaluation modes:
//
//   - Online: a forward/local PQL query evaluates in lockstep with the
//     unmodified analytic; at the end both the analytic result and the
//     query result exist (≈1.3x baseline in the paper).
//   - Layered: an offline query over captured provenance, materializing
//     one superstep layer at a time.
//   - Naive: traditional full materialization of the provenance graph.
//
// Quick start:
//
//	g, _ := gen.RMAT(gen.DefaultRMAT(10, 16, 1))
//	res, _ := ariadne.Run(g, &analytics.PageRank{},
//	    ariadne.WithMaxSupersteps(21),
//	    ariadne.WithOnlineQuery(queries.PageRankCheck()))
//	failed := res.Query("q4-pagerank-check").Relation("check_failed")
package ariadne

import (
	"context"
	"errors"
	"fmt"
	"time"

	"ariadne/internal/capture"
	"ariadne/internal/driver"
	"ariadne/internal/engine"
	"ariadne/internal/fault"
	"ariadne/internal/graph"
	"ariadne/internal/obs"
	"ariadne/internal/provenance"
	"ariadne/internal/queries"
	"ariadne/internal/supervise"
	"ariadne/internal/value"
)

// Convenient aliases so callers rarely need the internal packages directly.
type (
	// Graph is the input graph type.
	Graph = graph.Graph
	// VertexID identifies a vertex.
	VertexID = graph.VertexID
	// Program is a vertex program in the VC model.
	Program = engine.Program
	// Value is the universal datum type.
	Value = value.Value
	// QueryDef is a parameterized PQL query definition.
	QueryDef = queries.Definition
	// QueryResult exposes the relations a query derived.
	QueryResult = driver.Result
	// CapturePolicy declares what provenance to persist.
	CapturePolicy = capture.Policy
	// Store is a captured provenance graph.
	Store = provenance.Store
	// StoreConfig configures provenance storage (budget, spill directory).
	StoreConfig = provenance.StoreConfig
	// CrashError reports a vertex-program failure with its culprit vertex
	// and superstep; errors.As on any Run/Resume error reaches it.
	CrashError = engine.CrashError
	// FaultInjector deterministically injects panics and transient I/O
	// errors for crash-recovery testing.
	FaultInjector = fault.Injector
	// Metrics is the run's observability registry: atomic counters, gauges,
	// and histograms plus an optional trace ring and per-superstep profiles.
	// Scrape-safe while a run is in flight (see obs.Handler / obs.Serve).
	Metrics = obs.Metrics
	// SuperstepProfile is one superstep's metrics snapshot (timings, message
	// counts, capture/spill/checkpoint volumes, per-query piggyback tuples).
	SuperstepProfile = obs.SuperstepProfile
	// TraceEvent is one structured trace-ring entry.
	TraceEvent = obs.Event
	// SuperviseConfig tunes partition-level supervision: per-partition
	// superstep deadlines, bounded retry with backoff, and degraded-mode
	// capture (see WithSupervision).
	SuperviseConfig = supervise.Config
	// CaptureGap records a superstep range whose provenance capture was shed
	// in degraded mode (Partition -1 = all partitions). Queryable from PQL
	// as capture_gap(P, F, T).
	CaptureGap = provenance.CaptureGap
	// EvalOption tunes PQL evaluation (QueryOffline and online queries):
	// shard-parallel worker count and projection pushdown.
	EvalOption = driver.EvalOpt
	// Transport executes partition supersteps on worker processes that
	// keep the partitions' state resident between supersteps, and runs the
	// delivery barrier there (see WithTransport and internal/transport).
	Transport = engine.Transport
)

// EvalWorkers sets the shard-parallel evaluation worker count for a query
// (n <= 0 picks min(8, GOMAXPROCS); 1 disables parallel delta rounds).
func EvalWorkers(n int) EvalOption { return driver.EvalWorkers(n) }

// NoProjection disables projection pushdown during layered replay: every
// spilled provenance column is materialized whether or not the query reads
// it. This is the reference leg for differential tests and storage
// benchmarks; production replays should let the driver project.
func NoProjection() EvalOption { return driver.NoProjection() }

// NewMetrics creates an empty metrics registry for WithMetrics. Create it
// before Run to serve obs.Handler(m) endpoints while the run is live.
func NewMetrics() *Metrics { return obs.New() }

// ErrComputePanic is the cause inside a CrashError when the vertex program
// panicked (errors.Is-friendly through the public API).
var ErrComputePanic = engine.ErrComputePanic

// Result is the outcome of a Run.
type Result struct {
	// Values holds the analytic's final vertex values.
	Values []Value
	// Stats summarizes the run (supersteps, messages, active vertices).
	Stats engine.RunStats
	// Duration is the wall-clock time of the run.
	Duration time.Duration
	// Provenance is the captured store, when WithCapture* was used.
	Provenance *Store
	// Aggregated exposes the analytic's final global aggregators.
	Aggregated engine.AggregatorReader
	// ResumedFrom is the superstep a Resume restarted at (0 for a fresh
	// Run, or when the first checkpoint had not been written yet).
	ResumedFrom int
	// Profile holds one entry per completed superstep when WithMetrics (or
	// WithTrace) was used — cumulative across Resume, so a recovered run
	// reports the same per-superstep curve as an uninterrupted one.
	Profile []SuperstepProfile
	// Metrics is the registry the run reported into (nil without
	// WithMetrics/WithTrace); use it for Prometheus text or trace events.
	Metrics *Metrics
	// CaptureGaps lists the superstep ranges whose provenance capture was
	// shed under degraded mode (empty when capture never degraded). The
	// analytic values above are exact regardless — degradation drops only
	// provenance, never analytic state (Theorem 5.4 non-interference).
	CaptureGaps []CaptureGap
	// NetStats snapshots the run's ariadne_net_* counters (bytes/messages/
	// retransmits over the transport) plus the trace-ring drop counter — nil
	// for local runs without network traffic and runs without metrics.
	NetStats map[string]int64

	queryResults map[string]*driver.Result
}

// Query returns the online query result registered under the definition's
// name, or nil.
func (r *Result) Query(name string) *QueryResult { return r.queryResults[name] }

type runConfig struct {
	engineCfg  engine.Config
	capturePol *capture.Policy
	captureDef *queries.Definition
	storeCfg   provenance.StoreConfig
	onlineDefs []queries.Definition
	evalOpts   []driver.EvalOpt
	observers  []engine.Observer
	metrics    *obs.Metrics
	traceCap   int
	spanTrace  bool
	supervise  *supervise.Config
	ckptKeep   int
}

// Option customizes Run.
type Option func(*runConfig) error

// WithMaxSupersteps bounds the number of supersteps.
func WithMaxSupersteps(n int) Option {
	return func(c *runConfig) error {
		c.engineCfg.MaxSupersteps = n
		return nil
	}
}

// WithPartitions sets the number of simulated cluster workers.
func WithPartitions(n int) Option {
	return func(c *runConfig) error {
		c.engineCfg.Partitions = n
		return nil
	}
}

// WithCombiner installs a message combiner (disabled automatically when a
// capture policy or query needs raw per-message provenance).
func WithCombiner(f func(a, b Value) Value) Option {
	return func(c *runConfig) error {
		c.engineCfg.Combiner = f
		return nil
	}
}

// WithSequentialBarrier selects the seed single-threaded superstep barrier
// (one sequential merge loop, fresh inbox maps each superstep, global
// record sort) instead of the parallel sharded one. Combining semantics
// are shared between the modes, so the two paths are bit-identical by
// construction; this option exists as the reference leg for differential
// tests and the "before" leg of BenchmarkBarrier.
func WithSequentialBarrier() Option {
	return func(c *runConfig) error {
		c.engineCfg.SequentialBarrier = true
		return nil
	}
}

// WithCapture captures provenance under an explicit policy into a store
// configured by cfg.
func WithCapture(p CapturePolicy, cfg StoreConfig) Option {
	return func(c *runConfig) error {
		if c.capturePol != nil || c.captureDef != nil {
			return errors.New("ariadne: multiple capture options")
		}
		pol := p
		c.capturePol = &pol
		c.storeCfg = cfg
		return nil
	}
}

// WithCaptureQuery captures provenance as declared by a PQL capture query
// (paper Queries 2, 3, 11): the query is analyzed and compiled to a policy.
func WithCaptureQuery(def QueryDef, cfg StoreConfig) Option {
	return func(c *runConfig) error {
		if c.capturePol != nil || c.captureDef != nil {
			return errors.New("ariadne: multiple capture options")
		}
		d := def
		c.captureDef = &d
		c.storeCfg = cfg
		return nil
	}
}

// WithOnlineQuery evaluates a forward/local PQL query in lockstep with the
// analytic (paper §5.2). May be repeated for several always-on queries.
func WithOnlineQuery(def QueryDef) Option {
	return func(c *runConfig) error {
		c.onlineDefs = append(c.onlineDefs, def)
		return nil
	}
}

// WithEvalWorkers sets the shard-parallel worker count every online query
// of this run evaluates with (VC-compatible queries shard their delta
// rounds by the location column; others fall back to one worker).
func WithEvalWorkers(n int) Option {
	return func(c *runConfig) error {
		c.evalOpts = append(c.evalOpts, driver.EvalWorkers(n))
		return nil
	}
}

// WithMetrics threads the run's instrumentation through m: per-superstep
// profiles, message/capture/spill/checkpoint counters, and phase timing
// histograms. The same registry may be served over HTTP (obs.Serve) while
// the run is live; all hot-path updates are atomic. Without this option (or
// WithTrace) instrumentation is fully disabled at ~zero cost.
func WithMetrics(m *Metrics) Option {
	return func(c *runConfig) error {
		if m == nil {
			return errors.New("ariadne: WithMetrics needs a non-nil registry (use NewMetrics)")
		}
		c.metrics = m
		return nil
	}
}

// WithTrace enables the structured trace ring with the given capacity
// (events; <=0 picks a default of 4096), creating a registry implicitly if
// WithMetrics was not given. Trace events record barrier transitions,
// checkpoint writes, spill retries under I/O faults, and crash recoveries.
func WithTrace(capacity int) Option {
	return func(c *runConfig) error {
		if capacity <= 0 {
			capacity = 4096
		}
		c.traceCap = capacity
		return nil
	}
}

// WithSpanTrace enables the distributed span timeline (PR 7): hierarchical
// spans for every superstep phase, per-partition compute, and — under a TCP
// transport — every exchange RPC, including decode/compute/encode child
// spans measured inside the worker processes and shipped back piggybacked
// on the results. Creates a registry implicitly if WithMetrics was not
// given. Export the merged timeline with Metrics.ChromeTrace (Perfetto/
// chrome://tracing) or query it as the superstep_profile / net_rpc EDBs.
// Without this option span recording stays disabled at zero allocation cost.
func WithSpanTrace() Option {
	return func(c *runConfig) error {
		c.spanTrace = true
		return nil
	}
}

// WithObserver attaches a custom engine observer.
func WithObserver(o engine.Observer) Option {
	return func(c *runConfig) error {
		c.observers = append(c.observers, o)
		return nil
	}
}

// WithContext makes the run cancelable: ctx is checked at every superstep
// barrier, so cancellation or a deadline aborts a hung or runaway analytic
// cleanly with a descriptive error instead of blocking forever.
func WithContext(ctx context.Context) Option {
	return func(c *runConfig) error {
		c.engineCfg.Context = ctx
		return nil
	}
}

// WithCheckpoint snapshots the full run state (vertex values, active set,
// in-flight messages, aggregators, and observer state) into dir every
// `every` supersteps. A crashed run restarts from the newest good checkpoint
// via Resume with the same options.
func WithCheckpoint(dir string, every int) Option {
	return func(c *runConfig) error {
		if dir == "" || every <= 0 {
			return errors.New("ariadne: WithCheckpoint needs a directory and a positive interval")
		}
		c.engineCfg.Checkpoint = &engine.CheckpointConfig{Dir: dir, Interval: every}
		return nil
	}
}

// WithSupervision wraps every partition worker in a supervisor: per-
// partition superstep deadlines flag stragglers and cancel hung partitions,
// transient failures (compute panics, injected faults, deadline expiry) are
// retried with exponential backoff re-executing only the failed partition
// from the superstep barrier, and — when sc.DegradeCaptureAfter > 0 —
// repeated capture-side failures shed provenance capture (and online-query
// piggybacking) for the failing partition instead of aborting the run. The
// analytic result is bit-identical with or without supervision; shed ranges
// surface as Result.CaptureGaps and the capture_gap(P, F, T) PQL predicate.
func WithSupervision(sc SuperviseConfig) Option {
	return func(c *runConfig) error {
		s := sc
		c.supervise = &s
		return nil
	}
}

// WithCheckpointRetention prunes the checkpoint directory to the newest
// keep checkpoints after each successful write (default 3 under cmd/ariadne;
// the engine's own default is 2). Requires WithCheckpoint.
func WithCheckpointRetention(keep int) Option {
	return func(c *runConfig) error {
		if keep <= 0 {
			return errors.New("ariadne: WithCheckpointRetention needs keep >= 1")
		}
		c.ckptKeep = keep
		return nil
	}
}

// WithTransport routes each partition's superstep compute and message
// delivery through t — a TCP client to worker processes (package
// internal/transport, `ariadne worker` / `run -transport tcp`). Capture,
// checkpointing, and query evaluation still run in this process, and the
// workers fold messages in the local barrier's order, so results are
// bit-identical to a local run. Pair with WithSupervision:
// transport failures then retry under the supervision policy, and a
// partition unreachable past MaxRetries falls back to local execution with
// its provenance capture shed (surfaced in Result.CaptureGaps) when
// DegradeCaptureAfter enables degraded mode. The engine does not close t;
// the caller owns its lifecycle.
func WithTransport(t Transport) Option {
	return func(c *runConfig) error {
		if t == nil {
			return errors.New("ariadne: WithTransport requires a non-nil transport")
		}
		c.engineCfg.Transport = t
		return nil
	}
}

// WithFault installs a deterministic fault injector, consulted by the
// engine's compute path and the checkpoint/spill writers — the test harness
// for crash recovery.
func WithFault(inj *FaultInjector) Option {
	return func(c *runConfig) error {
		c.engineCfg.Fault = inj
		c.storeCfg.Fault = inj
		return nil
	}
}

// WithFaultSpec parses a fault.ParseSpec string (the cmd/ariadne -faults
// syntax, e.g. "compute:mode=panic:ss=3:vertex=7") into a WithFault option.
func WithFaultSpec(spec string) Option {
	return func(c *runConfig) error {
		rules, err := fault.ParseSpec(spec)
		if err != nil {
			return err
		}
		inj := fault.NewInjector(rules...)
		c.engineCfg.Fault = inj
		c.storeCfg.Fault = inj
		return nil
	}
}

// prepare applies opts and constructs the observer pipeline. The observer
// construction order (capture, then online queries in option order, then
// custom observers) is deterministic — Resume depends on it to re-match
// checkpointed observer state by position.
func prepare(g *Graph, opts []Option) (*runConfig, *provenance.Store, []*driver.Online, error) {
	var cfg runConfig
	for _, o := range opts {
		if err := o(&cfg); err != nil {
			return nil, nil, nil, err
		}
	}

	// Observability: WithTrace implies a registry; every instrumented
	// component shares the one registry (nil keeps them all no-ops).
	if (cfg.traceCap > 0 || cfg.spanTrace) && cfg.metrics == nil {
		cfg.metrics = obs.New()
	}
	if cfg.metrics != nil {
		if cfg.traceCap > 0 {
			cfg.metrics.EnableTrace(cfg.traceCap)
		}
		if cfg.spanTrace {
			cfg.metrics.EnableSpans()
		}
		cfg.engineCfg.Metrics = cfg.metrics
		cfg.storeCfg.Metrics = cfg.metrics
	}

	// Checkpoint retention and supervision are plain config threading, but
	// both have cross-option dependencies resolved only after every option
	// has been applied.
	if cfg.ckptKeep > 0 {
		if cfg.engineCfg.Checkpoint == nil {
			return nil, nil, nil, errors.New("ariadne: WithCheckpointRetention requires WithCheckpoint")
		}
		cfg.engineCfg.Checkpoint.Keep = cfg.ckptKeep
	}
	var deg *supervise.DegradeState
	if cfg.supervise != nil {
		cfg.engineCfg.Supervise = cfg.supervise
		deg = supervise.NewDegradeState(cfg.supervise.DegradeCaptureAfter)
	}
	// The transport's local-fallback path sheds an unreachable partition's
	// capture through the same degradation state.
	cfg.engineCfg.Degrade = deg

	// Capture observer.
	var store *provenance.Store
	if cfg.captureDef != nil {
		q, err := cfg.captureDef.Build()
		if err != nil {
			return nil, nil, nil, err
		}
		pol, err := capture.FromQuery(q, cfg.captureDef.Env)
		if err != nil {
			return nil, nil, nil, err
		}
		cfg.capturePol = &pol
	}
	if cfg.capturePol != nil {
		store = provenance.NewStore(cfg.storeCfg)
		co := capture.NewObserver(*cfg.capturePol, store)
		co.SetMetrics(cfg.metrics)
		co.SetDegradation(deg, cfg.engineCfg.Fault)
		cfg.engineCfg.Observers = append(cfg.engineCfg.Observers, co)
	}

	// Online query observers.
	var onlines []*driver.Online
	for _, def := range cfg.onlineDefs {
		q, err := def.Build()
		if err != nil {
			return nil, nil, nil, err
		}
		evalOpts := cfg.evalOpts
		if cfg.metrics != nil {
			evalOpts = append(append([]driver.EvalOpt(nil), evalOpts...), driver.WithEvalObs(cfg.metrics))
		}
		o, err := driver.NewOnline(q, g, evalOpts...)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("ariadne: query %s: %w", def.Name, err)
		}
		o.SetMetrics(cfg.metrics, def.Name)
		o.SetDegrade(deg)
		onlines = append(onlines, o)
		cfg.engineCfg.Observers = append(cfg.engineCfg.Observers, o)
	}
	cfg.engineCfg.Observers = append(cfg.engineCfg.Observers, cfg.observers...)
	return &cfg, store, onlines, nil
}

// finish collects the run outcome shared by Run and Resume.
func finish(e *engine.Engine, cfg *runConfig, store *provenance.Store, onlines []*driver.Online, start time.Time, stats engine.RunStats, err error) (*Result, error) {
	res := &Result{queryResults: map[string]*driver.Result{}}
	res.Duration = time.Since(start)
	res.Stats = stats
	res.Values = e.Values()
	res.Aggregated = e.Aggregated()
	res.Provenance = store
	res.ResumedFrom = e.ResumedFrom()
	if store != nil {
		res.CaptureGaps = store.Gaps()
	}
	if cfg.metrics != nil {
		res.Metrics = cfg.metrics
		res.Profile = cfg.metrics.Profiles()
		res.NetStats = cfg.metrics.NetStats()
		// Attach the run's telemetry to the store so offline PQL can feed
		// the superstep_profile / net_rpc EDBs.
		if store != nil {
			store.SetTelemetry(provenance.Telemetry{
				Profiles: res.Profile,
				RPCs:     cfg.metrics.RPCStats(),
				Spans:    cfg.metrics.Spans(),
			})
		}
	}
	for i, def := range cfg.onlineDefs {
		res.queryResults[def.Name] = onlines[i].Result()
	}
	return res, err
}

// Run executes the analytic over g with optional provenance capture and
// online queries. The analytic's code path is identical with or without
// provenance (transparent capture, paper §1).
func Run(g *Graph, prog Program, opts ...Option) (*Result, error) {
	cfg, store, onlines, err := prepare(g, opts)
	if err != nil {
		return nil, err
	}
	e, err := engine.New(g, prog, cfg.engineCfg)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	stats, err := e.Run()
	return finish(e, cfg, store, onlines, start, stats, err)
}

// Resume restarts a crashed Run from its newest readable checkpoint
// (falling back to older ones in the manifest when the newest is damaged)
// and runs it to completion. Pass the same graph, program, and options as
// the original run — including WithCheckpoint, which names the checkpoint
// directory. Observer state (capture watermark, online-query relations) is
// restored along with engine state, so the final values and query results
// are identical to an uninterrupted run.
//
// A capture observer resuming in a fresh process recovers its store from
// the spill directory and therefore needs StoreConfig.SpillAll; in-process
// resume (same Store object) has no such restriction.
func Resume(g *Graph, prog Program, opts ...Option) (*Result, error) {
	cfg, store, onlines, err := prepare(g, opts)
	if err != nil {
		return nil, err
	}
	if cfg.engineCfg.Checkpoint == nil {
		return nil, errors.New("ariadne: Resume needs WithCheckpoint to locate checkpoints")
	}
	e, err := engine.Resume(g, prog, cfg.engineCfg)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	stats, err := e.Run()
	return finish(e, cfg, store, onlines, start, stats, err)
}

// Mode selects an offline evaluation strategy.
type Mode uint8

// Offline evaluation modes.
const (
	// Auto picks Layered when the query's class allows it, else Naive.
	Auto Mode = iota
	// ModeLayered materializes one provenance layer at a time (§5.1).
	ModeLayered
	// ModeNaive materializes the entire provenance graph (§6.2 "Naive").
	ModeNaive
)

// QueryOffline evaluates def over captured provenance. naiveBudget bounds
// the naive mode's database bytes (0 = unlimited). Options tune the
// evaluation pipeline (EvalWorkers, NoProjection).
func QueryOffline(def QueryDef, store *Store, g *Graph, mode Mode, naiveBudget int64, opts ...EvalOption) (*QueryResult, error) {
	q, err := def.Build()
	if err != nil {
		return nil, err
	}
	switch mode {
	case ModeNaive:
		return driver.Naive(q, store, g, naiveBudget, opts...)
	case ModeLayered:
		return driver.Layered(q, store, g, opts...)
	default:
		if q.Class.LayeredEvaluable() {
			return driver.Layered(q, store, g, opts...)
		}
		return driver.Naive(q, store, g, naiveBudget, opts...)
	}
}

// Classify analyzes a query definition and returns its class string
// ("local", "forward", "backward", "mixed") and VC-compatibility.
func Classify(def QueryDef) (class string, vcCompatible bool, err error) {
	q, err := def.Build()
	if err != nil {
		return "", false, err
	}
	return q.Class.String(), q.VCCompatible, nil
}

// Tuples extracts a result relation as [][]Value rows, sorted, or nil if
// the relation does not exist.
func Tuples(r *QueryResult, pred string) [][]Value {
	rel := r.Relation(pred)
	if rel == nil {
		return nil
	}
	sorted := rel.Sorted()
	out := make([][]Value, len(sorted))
	for i, t := range sorted {
		out[i] = t
	}
	return out
}

// Count returns the number of tuples in a result relation (0 if absent).
func Count(r *QueryResult, pred string) int {
	rel := r.Relation(pred)
	if rel == nil {
		return 0
	}
	return rel.Len()
}
