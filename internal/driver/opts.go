package driver

import (
	"runtime"

	"ariadne/internal/obs"
	"ariadne/internal/pql/eval"
)

// evalConfig carries the per-run evaluation tuning shared by the three
// drivers: shard-parallel worker count, the layered prefetch pipeline,
// projection pushdown, and the choice of evaluation machinery.
type evalConfig struct {
	workers      int // 0: auto (min(8, GOMAXPROCS))
	noPrefetch   bool
	noProjection bool
	interpretive bool
	metrics      *obs.Metrics
}

// EvalOpt tunes query evaluation (layered, naive, and online drivers).
type EvalOpt func(*evalConfig)

// EvalWorkers sets the shard-parallel evaluation worker count. n <= 0
// selects the default (min(8, GOMAXPROCS)); 1 disables parallel rounds but
// keeps the prefetch pipeline.
func EvalWorkers(n int) EvalOpt {
	return func(c *evalConfig) { c.workers = n }
}

// NoPrefetch disables the layered driver's pipelined layer prefetch while
// keeping parallel evaluation (isolates the two optimizations).
func NoPrefetch() EvalOpt {
	return func(c *evalConfig) { c.noPrefetch = true }
}

// NoProjection disables the layered driver's column projection pushdown:
// every layer is materialized full-width regardless of what the query
// reads. This is the reference leg for differential tests and the
// projected-replay benchmark.
func NoProjection() EvalOpt {
	return func(c *evalConfig) { c.noProjection = true }
}

// Interpretive forces the interpretive (Datalog) evaluator even when the
// query compiles to a vertex program — the path shard-parallel rounds apply
// to; the differential tests and benches use it to pin the machinery under
// measurement.
func Interpretive() EvalOpt {
	return func(c *evalConfig) { c.interpretive = true }
}

// WithEvalObs attaches a metrics registry for eval-phase counters (parallel
// rounds, exchange tuples, shard skew, prefetch hit/miss).
func WithEvalObs(m *obs.Metrics) EvalOpt {
	return func(c *evalConfig) { c.metrics = m }
}

// resolveEvalConfig folds the options into a concrete configuration.
func resolveEvalConfig(opts []EvalOpt) evalConfig {
	var c evalConfig
	for _, o := range opts {
		o(&c)
	}
	if c.workers <= 0 {
		c.workers = runtime.GOMAXPROCS(0)
		if c.workers > 8 {
			c.workers = 8
		}
	}
	return c
}

// mirrorEvalStats publishes the evaluator's parallel-round counters to the
// shared registry after a run.
func mirrorEvalStats(m *obs.Metrics, name string, s eval.Stats) {
	if m == nil {
		return
	}
	m.Counter(obs.L("eval_parallel_rounds_total", "query", name)).Add(int64(s.ParallelRounds))
	m.Counter(obs.L("eval_exchange_tuples_total", "query", name)).Add(s.ExchangeTuples)
	m.Gauge(obs.L("eval_max_shard_delta", "query", name)).Set(int64(s.MaxShardDelta))
}
