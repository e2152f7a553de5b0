package provenance

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"ariadne/internal/fault"
	"ariadne/internal/obs"
)

// ErrBudgetExceeded is returned when the in-memory provenance exceeds the
// configured budget and no spill directory is available — the condition
// under which the paper's prototype could not capture full ALS provenance
// (§6.1: "the size of provenance for the smallest dataset, for one
// superstep, exceeded 80GB").
var ErrBudgetExceeded = errors.New("provenance: memory budget exceeded and no spill directory configured")

// StoreConfig controls the provenance store.
type StoreConfig struct {
	// MemoryBudget caps resident layer bytes; 0 means unlimited.
	MemoryBudget int64
	// SpillDir, when set, receives the oldest layers as columnar (v2)
	// layer files once the budget is exceeded (the stand-in for the
	// paper's asynchronous HDFS offload). A background writer goroutine
	// writes them; a write error surfaces at the next AppendLayer or Sync.
	SpillDir string
	// SpillAll writes every layer to SpillDir immediately and keeps nothing
	// resident — the paper's capture-for-offline-querying mode, where the
	// provenance graph lives in HDFS and offline evaluation pays the cost
	// of reading it back (§6.2: offline timings include loading the
	// captured provenance, not capturing it).
	SpillAll bool
	// Fault, when set, injects transient I/O errors into layer-file writes
	// (fault.SiteSpillWrite) to exercise the retry path.
	Fault *fault.Injector
	// Metrics, when set, receives capture-size counters, spill
	// bytes/durations, and warning trace events when a layer write falls
	// back to retry under (injected or real) I/O faults. nil disables
	// instrumentation.
	Metrics *obs.Metrics
}

const (
	// spillQueueDepth bounds the async spill pipeline: at most this many
	// layer writes may be queued or in flight before AppendLayer blocks
	// (backpressure) — double-buffering, one layer being written while the
	// next is queued.
	spillQueueDepth = 2
	// reloadCacheLayers bounds the LRU cache of spilled layers reloaded by
	// Layer(): layered backward evaluation revisits the same layer once per
	// rule body, so rereading the file each visit is pure waste.
	reloadCacheLayers = 3
)

// CaptureGap records a contiguous superstep range whose provenance was
// shed under degraded-mode capture: the analytic kept running (Theorem 5.4
// non-interference), but layers From..To hold no tuples for Partition.
// Partition -1 means the whole layer was shed. Gaps surface in PQL as the
// static EDB capture_gap(Partition, From, To), so an offline query can
// tell "no result" apart from "provenance not captured here".
type CaptureGap struct {
	Partition int    `json:"partition"`
	From      int    `json:"from"`
	To        int    `json:"to"`
	Reason    string `json:"reason,omitempty"`
}

// Store holds the captured provenance graph as a sequence of layers, with
// size accounting and optional spill-to-disk.
//
// Concurrency: the Store API is single-goroutine (the engine's observe
// phase). The async spill pipeline adds exactly one background writer
// goroutine, which only ever touches the layers handed to it via the jobs
// channel and the (internally synchronized) metrics registry; all Store
// state, including the pending set, stays owned by the caller goroutine.
type Store struct {
	cfg StoreConfig

	layers  []*Layer // nil when spilled
	spilled []bool
	files   []string

	resident    int64 // in-memory bytes of resident layers
	totalBytes  int64 // serialized bytes ever captured (resident + spilled)
	diskBytes   int64 // actual on-disk bytes of spilled layer files
	totalTuples int64
	vertices    map[VertexID]struct{} // distinct captured vertices

	gaps []CaptureGap // shed ranges, ordered by (Partition, From)

	// telemetry is the run's execution profile, attached after the run so
	// offline PQL evaluation can feed the telemetry EDBs (superstep_profile,
	// net_rpc) alongside the provenance itself.
	telemetry Telemetry

	// Async spill pipeline state. pending holds layers whose file write is
	// queued or in flight — logically spilled (accounting already moved)
	// but still readable from memory. asyncErr is the sticky first write
	// failure, surfaced at the next AppendLayer or Sync and cleared once
	// reported; the failed layer reverts to resident before it surfaces.
	sp          *spillPipeline
	pending     map[int]*Layer
	outstanding int
	highWater   int64
	asyncErr    error

	// LRU reload cache for spilled layers (reloadCacheLayers). Entries may
	// be partially materialized (a projected reload); their byte charge
	// covers only the decoded columns, and a wider later projection merges
	// the missing columns into the cached layer in place.
	cache      map[int]*cacheEntry
	cacheLRU   []int // least-recently-used first
	cacheBytes int64 // sum of cached layers' MemSize (decoded columns only)
}

// cacheEntry is one cached reload: the (possibly partial) layer, the
// columns it has materialized, and its current byte charge.
type cacheEntry struct {
	l     *Layer
	mask  colMask
	bytes int64
}

// NewStore creates an empty store.
func NewStore(cfg StoreConfig) *Store {
	return &Store{cfg: cfg, vertices: make(map[VertexID]struct{})}
}

// spillPipeline is the bounded background writer: jobs carries layers to
// persist (capacity spillQueueDepth), done carries completions back to the
// store goroutine.
type spillPipeline struct {
	jobs chan spillJob
	done chan spillDone
}

type spillJob struct {
	idx  int
	path string
	l    *Layer
	enc  int64
	// attrSS is the superstep whose append triggered this spill — the
	// profile the write's bytes/duration are attributed to, regardless of
	// when the background write completes.
	attrSS int
}

type spillDone struct {
	idx   int
	err   error
	bytes int64 // on-disk size of the written layer file
}

// pipeline lazily starts the background writer the first time an async
// spill is needed, so stores that never spill never spawn a goroutine.
func (s *Store) pipeline() *spillPipeline {
	if s.sp == nil {
		s.sp = &spillPipeline{
			jobs: make(chan spillJob, spillQueueDepth),
			done: make(chan spillDone, spillQueueDepth+1),
		}
		s.pending = make(map[int]*Layer)
		go func(sp *spillPipeline) {
			for j := range sp.jobs {
				n, err := s.spillLayer(j.path, j.l, j.enc, j.attrSS)
				sp.done <- spillDone{idx: j.idx, err: err, bytes: n}
			}
			close(sp.done)
		}(s.sp)
	}
	return s.sp
}

// enqueueSpill moves layer i onto the spill pipeline. Accounting happens at
// enqueue — the layer is logically spilled from this point, though Layer(i)
// still serves it from the pending set until the write completes. A full
// queue blocks, draining completions while waiting (backpressure instead of
// unbounded buffering). A write failure surfaces later, through complete.
func (s *Store) enqueueSpill(i int, l *Layer) {
	path := filepath.Join(s.cfg.SpillDir, layerFileName(i))
	enc := l.EncodedSize()
	attrSS := len(s.layers) - 1 // the superstep being appended
	sp := s.pipeline()
	s.resident -= l.MemSize()
	s.layers[i] = nil
	s.spilled[i] = true
	s.files[i] = path
	s.pending[i] = l
	job := spillJob{idx: i, path: path, l: l, enc: enc, attrSS: attrSS}
	for {
		select {
		case sp.jobs <- job:
			s.outstanding++
			if int64(s.outstanding) > s.highWater {
				s.highWater = int64(s.outstanding)
			}
			s.cfg.Metrics.SpillQueue(int64(s.outstanding), s.highWater)
			return
		case d := <-sp.done:
			s.complete(d)
		}
	}
}

// complete applies one writer completion: a success finalizes the spill; a
// failure reverts the layer to resident and latches the first error so the
// next AppendLayer (or Sync) reports it — the async spill error contract.
func (s *Store) complete(d spillDone) {
	s.outstanding--
	l := s.pending[d.idx]
	delete(s.pending, d.idx)
	if d.err == nil {
		s.diskBytes += d.bytes
	}
	if d.err != nil && l != nil {
		s.layers[d.idx] = l
		s.spilled[d.idx] = false
		s.files[d.idx] = ""
		s.resident += l.MemSize()
		if s.asyncErr == nil {
			s.asyncErr = fmt.Errorf("provenance: spilling layer %d: %w", d.idx, d.err)
		}
	}
	s.cfg.Metrics.SpillQueue(int64(s.outstanding), s.highWater)
}

// drainCompletions consumes any writer completions without blocking.
func (s *Store) drainCompletions() {
	if s.sp == nil {
		return
	}
	for {
		select {
		case d := <-s.sp.done:
			s.complete(d)
		default:
			return
		}
	}
}

// Sync blocks until every queued layer write has completed and returns (and
// clears) the first write error, if any. Checkpointing calls this before
// using NumLayers() as a recovery watermark: a layer counted by the
// watermark must actually be durable on disk.
func (s *Store) Sync() error {
	for s.outstanding > 0 {
		s.complete(<-s.sp.done)
	}
	err := s.asyncErr
	s.asyncErr = nil
	return err
}

// AppendLayer adds the provenance layer for the next superstep. Layers must
// arrive in superstep order. When the memory budget is exceeded the oldest
// resident layers spill to disk; without a spill directory the append fails
// with ErrBudgetExceeded.
func (s *Store) AppendLayer(l *Layer) error {
	if l.Superstep != len(s.layers) {
		return fmt.Errorf("provenance: layer %d appended out of order (have %d layers)", l.Superstep, len(s.layers))
	}
	s.drainCompletions()
	sz := l.MemSize()
	enc := l.EncodedSize()
	for i := range l.Records {
		s.vertices[l.Records[i].Vertex] = struct{}{}
	}
	s.layers = append(s.layers, l)
	s.spilled = append(s.spilled, false)
	s.files = append(s.files, "")
	s.resident += sz
	s.totalBytes += enc
	s.totalTuples += l.NumTuples()
	s.cfg.Metrics.AddCaptureBytes(enc)

	if s.cfg.SpillAll {
		if s.cfg.SpillDir == "" {
			return fmt.Errorf("provenance: SpillAll requires a SpillDir")
		}
		s.enqueueSpill(len(s.layers)-1, l)
	} else if s.cfg.MemoryBudget > 0 && s.resident > s.cfg.MemoryBudget {
		if s.cfg.SpillDir == "" {
			return fmt.Errorf("%w: resident %d bytes > budget %d", ErrBudgetExceeded, s.resident, s.cfg.MemoryBudget)
		}
		if err := s.spillOldest(); err != nil {
			return err
		}
	}
	// Surface a deferred async write failure only after the current layer
	// is appended: the caller's degraded-capture recovery truncates to the
	// failing superstep and appends a gap layer, which needs NumLayers to
	// already cover this superstep.
	s.drainCompletions()
	if err := s.asyncErr; err != nil {
		s.asyncErr = nil
		return err
	}
	return nil
}

// AddGap records that partition p's provenance was shed at superstep ss
// (p = -1 for the whole layer), merging into the partition's existing gap
// when the range is contiguous in either direction — so one degraded
// partition yields one CaptureGap row, not one per superstep, even when
// the notes arrive out of order. Idempotent for repeated (p, ss) notes.
func (s *Store) AddGap(ss, p int, reason string) {
	for i := range s.gaps {
		g := &s.gaps[i]
		if g.Partition != p {
			continue
		}
		if ss >= g.From && ss <= g.To {
			return
		}
		if ss == g.To+1 {
			g.To = ss
			s.coalesceGaps(p)
			return
		}
		if ss == g.From-1 {
			g.From = ss
			s.coalesceGaps(p)
			return
		}
	}
	s.gaps = append(s.gaps, CaptureGap{Partition: p, From: ss, To: ss, Reason: reason})
}

// coalesceGaps merges partition p's gaps that became adjacent or
// overlapping after an extension (an out-of-order note can bridge two
// previously separate ranges).
func (s *Store) coalesceGaps(p int) {
	var mine []CaptureGap
	rest := s.gaps[:0]
	for _, g := range s.gaps {
		if g.Partition == p {
			mine = append(mine, g)
		} else {
			rest = append(rest, g)
		}
	}
	if len(mine) < 2 {
		s.gaps = append(rest, mine...)
		return
	}
	sort.Slice(mine, func(i, j int) bool { return mine[i].From < mine[j].From })
	merged := mine[:1]
	for _, g := range mine[1:] {
		last := &merged[len(merged)-1]
		if g.From <= last.To+1 {
			if g.To > last.To {
				last.To = g.To
			}
			continue
		}
		merged = append(merged, g)
	}
	s.gaps = append(rest, merged...)
}

// Gaps returns the recorded capture gaps, ordered by (Partition, From).
func (s *Store) Gaps() []CaptureGap {
	out := append([]CaptureGap(nil), s.gaps...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Partition != out[j].Partition {
			return out[i].Partition < out[j].Partition
		}
		return out[i].From < out[j].From
	})
	return out
}

// Telemetry bundles the run's own execution profile for telemetry-as-EDB
// querying: per-superstep phase timings, per-RPC network accounting, and
// (when span tracing was on) the raw span timeline.
type Telemetry struct {
	Profiles []obs.SuperstepProfile
	RPCs     []obs.RPCStat
	Spans    []obs.Span
}

// SetTelemetry attaches the run's telemetry to the store (called once by the
// API layer when the run finishes).
func (s *Store) SetTelemetry(t Telemetry) { s.telemetry = t }

// Telemetry returns the attached run telemetry (zero value when the run was
// not instrumented).
func (s *Store) Telemetry() Telemetry { return s.telemetry }

// RestoreGaps replaces the gap list (checkpoint recovery).
func (s *Store) RestoreGaps(gaps []CaptureGap) {
	s.gaps = append([]CaptureGap(nil), gaps...)
}

// truncateGaps trims the gap list to supersteps < n alongside
// TruncateLayers, so a recovered run's gaps match its surviving layers.
func (s *Store) truncateGaps(n int) {
	kept := s.gaps[:0]
	for _, g := range s.gaps {
		if g.From >= n {
			continue
		}
		if g.To >= n {
			g.To = n - 1
		}
		kept = append(kept, g)
	}
	s.gaps = kept
}

// AppendGapLayer appends an *empty* placeholder layer for superstep ss
// after a whole-layer capture failure, keeping layer indices aligned with
// supersteps so later layers still append in order. The placeholder stays
// resident even under SpillAll — it records the absence of provenance, and
// writing it through the same failing spill path would just fail again.
func (s *Store) AppendGapLayer(ss int, reason string) error {
	l := &Layer{Superstep: ss}
	if ss != len(s.layers) {
		return fmt.Errorf("provenance: gap layer %d appended out of order (have %d layers)", ss, len(s.layers))
	}
	s.layers = append(s.layers, l)
	s.spilled = append(s.spilled, false)
	s.files = append(s.files, "")
	s.resident += l.MemSize()
	s.AddGap(ss, -1, reason)
	return nil
}

// spillOldest moves resident layers onto the spill pipeline, oldest first,
// until the budget is met again (the newest layer always stays resident).
// Enqueue-time accounting means the budget check converges immediately even
// though the writes land asynchronously.
func (s *Store) spillOldest() error {
	for i := 0; i < len(s.layers)-1 && s.resident > s.cfg.MemoryBudget; i++ {
		if s.spilled[i] || s.layers[i] == nil {
			continue
		}
		s.enqueueSpill(i, s.layers[i])
	}
	if s.resident > s.cfg.MemoryBudget {
		return fmt.Errorf("%w: a single layer exceeds the budget", ErrBudgetExceeded)
	}
	return nil
}

// spillLayer writes one layer file, accounting bytes and duration to the
// metrics registry under superstep attrSS (enc is the layer's encoded size,
// which the caller has already computed for its own bookkeeping). Returns
// the on-disk file size. Runs on the pipeline's writer goroutine —
// everything it touches is either job-local or internally synchronized.
func (s *Store) spillLayer(path string, l *Layer, enc int64, attrSS int) (int64, error) {
	m := s.cfg.Metrics
	var start time.Time
	if m != nil {
		start = time.Now()
	}
	n, err := writeLayerFile(path, l, s.cfg.Fault, m)
	if err != nil {
		return 0, err
	}
	if m != nil {
		m.AddSpill(attrSS, enc, time.Since(start))
	}
	return n, nil
}

// NumLayers returns the number of captured layers (supersteps).
func (s *Store) NumLayers() int { return len(s.layers) }

// Layer returns layer i fully materialized. Resident layers come from
// memory; layers whose spill write is still in flight are served from the
// pending set (the write need not be waited for); already-spilled layers
// are read back from disk through a small LRU cache, since layered
// backward evaluation visits the same layer once per rule body.
//
// Layer is not safe for concurrent use: the cache's LRU bookkeeping and the
// spill-completion drain mutate store state. The layered driver's prefetch
// pipeline respects this by making its producer goroutine the sole Layer
// caller for the duration of a replay.
func (s *Store) Layer(i int) (*Layer, error) { return s.LayerProjected(i, nil) }

// LayerProjected returns layer i with at least the columns selected by
// proj materialized (nil means all — Layer's behavior). Resident and
// pending layers are always full. For spilled v2 layers only the projected
// column blocks are read and decoded; a cached partial layer is widened in
// place when a later caller asks for more columns (the untouched columns
// stay lazily decodable on disk). The returned layer may hold more columns
// than requested — never fewer — so callers must treat extra columns as
// present-but-ignorable.
//
// Same concurrency contract as Layer.
func (s *Store) LayerProjected(i int, proj *LayerProjection) (*Layer, error) {
	if i < 0 || i >= len(s.layers) {
		return nil, fmt.Errorf("provenance: layer %d out of range [0,%d)", i, len(s.layers))
	}
	if s.layers[i] != nil {
		return s.layers[i], nil
	}
	s.drainCompletions()
	if l := s.pending[i]; l != nil {
		return l, nil
	}
	want := proj.mask()
	if e := s.cacheGet(i); e != nil {
		if missing := want &^ e.mask; missing != 0 {
			if err := mergeLayerColumns(s.files[i], e.l, missing); err != nil {
				return nil, fmt.Errorf("provenance: widening cached layer %d: %w", i, err)
			}
			e.mask |= missing
			nb := e.l.MemSize()
			s.cacheBytes += nb - e.bytes
			e.bytes = nb
			s.cfg.Metrics.Counter("store_layer_cache_widen_total").Add(1)
			s.cfg.Metrics.Gauge("store_layer_cache_bytes").Set(s.cacheBytes)
		}
		s.cfg.Metrics.Counter("store_layer_cache_hits_total").Add(1)
		return e.l, nil
	}
	s.cfg.Metrics.Counter("store_layer_reload_total").Add(1)
	l, got, err := readLayerFileProjected(s.files[i], want)
	if err != nil {
		return nil, fmt.Errorf("provenance: reloading spilled layer %d: %w", i, err)
	}
	s.cachePut(i, l, got)
	return l, nil
}

// cacheGet returns the cached reload of layer i, marking it most recently
// used.
func (s *Store) cacheGet(i int) *cacheEntry {
	e := s.cache[i]
	if e == nil {
		return nil
	}
	for j, k := range s.cacheLRU {
		if k == i {
			s.cacheLRU = append(append(s.cacheLRU[:j], s.cacheLRU[j+1:]...), i)
			break
		}
	}
	return e
}

// cachePut inserts a reloaded layer with the columns it has materialized,
// evicting the least recently used entry beyond reloadCacheLayers.
// Byte accounting charges each entry for its decoded columns only: a
// projected layer without its value/message payloads costs a fraction of
// the full layer (the reload LRU's budget, surfaced via CacheBytes).
func (s *Store) cachePut(i int, l *Layer, mask colMask) {
	if s.cache == nil {
		s.cache = make(map[int]*cacheEntry, reloadCacheLayers)
	}
	e := &cacheEntry{l: l, mask: mask, bytes: l.MemSize()}
	if old := s.cache[i]; old != nil {
		s.cacheBytes -= old.bytes
	}
	s.cache[i] = e
	s.cacheBytes += e.bytes
	s.cacheLRU = append(s.cacheLRU, i)
	for len(s.cacheLRU) > reloadCacheLayers {
		evict := s.cacheLRU[0]
		s.cacheLRU = s.cacheLRU[1:]
		if old := s.cache[evict]; old != nil {
			s.cacheBytes -= old.bytes
			delete(s.cache, evict)
		}
	}
	s.cfg.Metrics.Gauge("store_layer_cache_bytes").Set(s.cacheBytes)
}

// invalidateCache drops every cached reload (truncation/close).
func (s *Store) invalidateCache() {
	s.cache = nil
	s.cacheLRU = nil
	s.cacheBytes = 0
}

// CacheBytes returns the in-memory bytes currently charged to the reload
// cache — partially materialized layers count their decoded columns only.
func (s *Store) CacheBytes() int64 { return s.cacheBytes }

// TotalBytes returns the *serialized* size of the captured provenance graph
// in bytes — the on-storage footprint paper Tables 3 and 4 compare against
// the input graph size. (Resident memory is tracked separately via
// ResidentBytes and the memory budget.)
func (s *Store) TotalBytes() int64 { return s.totalBytes }

// DiskBytes returns the actual on-disk size of the spilled layer files —
// what the columnar format shrinks relative to TotalBytes' row-shaped
// logical size (the bytes_per_tuple benchmark gate divides this by
// TotalTuples). A layer counts once its background write completes, so
// call Sync first for the settled figure.
func (s *Store) DiskBytes() int64 { return s.diskBytes }

// TotalTuples returns the number of provenance tuples captured.
func (s *Store) TotalTuples() int64 { return s.totalTuples }

// DistinctVertices returns how many input vertices appear in the provenance
// (Table 4: the custom provenance "contains more than 80% of the input
// vertices").
func (s *Store) DistinctVertices() int { return len(s.vertices) }

// ResidentBytes returns the bytes currently held in memory.
func (s *Store) ResidentBytes() int64 { return s.resident }

// SpilledLayers returns how many layers live on disk.
func (s *Store) SpilledLayers() int {
	n := 0
	for _, sp := range s.spilled {
		if sp {
			n++
		}
	}
	return n
}

// layerFileName names the spill file of layer i.
func layerFileName(i int) string { return fmt.Sprintf("layer-%06d.prov", i) }

// TruncateLayers drops every layer with index >= n — the recovery path: a
// capture observer restored from a checkpoint with watermark n discards the
// layers a crashed run appended past its last checkpoint, so the resumed
// run re-appends them in order. Size and vertex statistics are recomputed
// from the surviving layers (spilled ones are read back).
func (s *Store) TruncateLayers(n int) error {
	if n < 0 || n > len(s.layers) {
		return fmt.Errorf("provenance: truncate to %d layers out of range [0,%d]", n, len(s.layers))
	}
	// Quiesce the spill pipeline first so no write lands after its file was
	// removed. A surfaced write error is absorbed here: the failed layer is
	// resident again, and truncation recomputes all accounting below.
	s.Sync()
	s.invalidateCache()
	for i := n; i < len(s.layers); i++ {
		if s.files[i] != "" {
			os.Remove(s.files[i])
		}
	}
	s.layers = s.layers[:n]
	s.spilled = s.spilled[:n]
	s.files = s.files[:n]
	s.truncateGaps(n)
	s.resident, s.totalBytes, s.totalTuples, s.diskBytes = 0, 0, 0, 0
	s.vertices = make(map[VertexID]struct{})
	for i := 0; i < n; i++ {
		l, err := s.Layer(i)
		if err != nil {
			return fmt.Errorf("provenance: recomputing stats after truncation: %w", err)
		}
		if !s.spilled[i] {
			s.resident += l.MemSize()
		} else if st, err := os.Stat(s.files[i]); err == nil {
			s.diskBytes += st.Size()
		}
		s.totalBytes += l.EncodedSize()
		s.totalTuples += l.NumTuples()
		for ri := range l.Records {
			s.vertices[l.Records[ri].Vertex] = struct{}{}
		}
	}
	return nil
}

// Reattach adopts the first n layer files already present in SpillDir (a
// previous run's spill output) as this store's layers — the cross-process
// recovery path for capture under SpillAll: the store's content lives on
// disk, so a restored observer only needs the files re-registered.
func (s *Store) Reattach(n int) error {
	if len(s.layers) != 0 {
		return errors.New("provenance: Reattach requires an empty store")
	}
	if s.cfg.SpillDir == "" {
		return errors.New("provenance: Reattach requires a SpillDir")
	}
	for i := 0; i < n; i++ {
		path := filepath.Join(s.cfg.SpillDir, layerFileName(i))
		l, err := readLayerFile(path)
		if err != nil {
			return fmt.Errorf("provenance: reattaching layer %d: %w", i, err)
		}
		if l.Superstep != i {
			return fmt.Errorf("provenance: reattached layer file %d holds superstep %d", i, l.Superstep)
		}
		s.layers = append(s.layers, nil)
		s.spilled = append(s.spilled, true)
		s.files = append(s.files, path)
		if st, err := os.Stat(path); err == nil {
			s.diskBytes += st.Size()
		}
		s.totalBytes += l.EncodedSize()
		s.totalTuples += l.NumTuples()
		for ri := range l.Records {
			s.vertices[l.Records[ri].Vertex] = struct{}{}
		}
	}
	return nil
}

// Close drains the spill pipeline, stops its writer, and removes any spill
// files.
func (s *Store) Close() error {
	firstErr := s.Sync()
	if s.sp != nil {
		close(s.sp.jobs)
		s.sp = nil
		s.pending = nil
	}
	s.invalidateCache()
	for i, f := range s.files {
		if f != "" {
			if err := os.Remove(f); err != nil && firstErr == nil {
				firstErr = err
			}
			s.files[i] = ""
		}
	}
	return firstErr
}
