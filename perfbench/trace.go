package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"

	"ariadne/internal/engine"
)

// span is one timed call into a layer. Spans of one cycle share its number,
// and parent points at the enclosing span (-1 at the top).
type span struct {
	name       string
	id, parent int
	cycle      int
	superstep  int // -1 when the call is not per superstep
	start, end time.Duration
}

// recorder keeps the traced run's spans in memory; writeChrome writes them
// out when the run ends. Calls nest: begin pushes, end pops. Observer calls
// arrive on the engine's goroutine while the benchmark's goroutine waits in
// ariadne.Run, so the stack stays well nested; the mutex orders the two.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	cycle int
	spans []span
	stack []int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) begin(name string, superstep int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	parent := -1
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{name: name, id: id, parent: parent, cycle: r.cycle,
		superstep: superstep, start: time.Since(r.t0)})
	r.stack = append(r.stack, id)
	return id
}

// setCycle numbers the spans that follow.
func (r *recorder) setCycle(n int) {
	r.mu.Lock()
	r.cycle = n
	r.mu.Unlock()
}

// end closes span id and returns its duration.
func (r *recorder) end(id int) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id]
	s.end = time.Since(r.t0)
	r.stack = r.stack[:len(r.stack)-1]
	return s.end - s.start
}

// timed runs f inside a span and returns its duration in seconds.
func (r *recorder) timed(name string, f func() error) (float64, error) {
	id := r.begin(name, -1)
	err := f()
	return r.end(id).Seconds(), err
}

// writeChrome writes the spans as a Chrome trace_event file (loadable in
// Perfetto or chrome://tracing).
func (r *recorder) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	r.mu.Lock()
	events := make([]event, len(r.spans))
	for i, s := range r.spans {
		events[i] = event{Name: s.name, Ph: "X", PID: 1, TID: 1,
			TS:   float64(s.start.Nanoseconds()) / 1e3,
			Dur:  float64((s.end - s.start).Nanoseconds()) / 1e3,
			Args: map[string]int{"id": s.id, "parent": s.parent, "cycle": s.cycle, "superstep": s.superstep}}
	}
	r.mu.Unlock()
	data, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// timedObserver times every ObserveSuperstep of the observer it wraps.
type timedObserver struct {
	engine.Observer
	name string
	rec  *recorder
	busy time.Duration
}

func (t *timedObserver) ObserveSuperstep(v *engine.SuperstepView) error {
	id := t.rec.begin(t.name, v.Superstep)
	err := t.Observer.ObserveSuperstep(v)
	t.busy += t.rec.end(id)
	return err
}

// timedCheckpointable is a timedObserver whose inner observer also
// implements engine.Checkpointable.
type timedCheckpointable struct {
	*timedObserver
	engine.Checkpointable
}

// wrap times o's supersteps under the span name. engine.Checkpointable is
// the one optional interface the engine type-asserts on observers, so the
// wrapper implements it exactly when o does: a wrapper that hid it would
// make the engine take another path, and the trace would measure a
// different program.
func wrap(o engine.Observer, name string, rec *recorder) (engine.Observer, *timedObserver) {
	t := &timedObserver{Observer: o, name: name, rec: rec}
	if c, ok := o.(engine.Checkpointable); ok {
		return timedCheckpointable{t, c}, t
	}
	return t, t
}
