package transport

import (
	"bytes"
	"io"

	"testing"

	"ariadne/internal/analytics"
	"ariadne/internal/engine"
	"ariadne/internal/gen"
	"ariadne/internal/obs"
)

// BenchmarkTransportRun compares a full PageRank run with partitions
// executing over TCP-loopback workers against the plain in-process run.
// The absolute times are loopback numbers, not cluster numbers; benchjson
// gates two hardware-independent quantities: transport_overhead (tcp/inproc
// run time — bounds what the seam adds) and wire_bytes_per_superstep (the
// tcp leg's wire-B/ss against an absolute ceiling). The tcp3 leg exercises
// the 3-worker pool with worker-to-worker fragment routing; its wire-B/ss
// includes the mesh bytes.
func BenchmarkTransportRun(b *testing.B) {
	g, err := gen.RMAT(gen.DefaultRMAT(11, 8, 42))
	if err != nil {
		b.Fatal(err)
	}
	const (
		parts = 4
		steps = 11
	)
	prog := func() engine.Program { return &analytics.PageRank{Iterations: 10} }
	run := func(b *testing.B, tr engine.Transport, wire func() int64) {
		b.Helper()
		b.ReportAllocs()
		var start int64
		if wire != nil {
			start = wire()
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e, err := engine.New(g, prog(), engine.Config{
				MaxSupersteps: steps,
				Partitions:    parts,
				Combiner:      analytics.SumCombiner,
				Transport:     tr,
			})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := e.Run(); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if wire != nil {
			b.ReportMetric(float64(wire()-start)/float64(b.N*steps), "wire-B/ss")
		}
	}
	tcpLeg := func(b *testing.B, nWorkers int) {
		b.Helper()
		m := obs.New()  // master-side wire counters
		wm := obs.New() // worker-side counters (mesh frag bytes land here)
		addrs := make([]string, nWorkers)
		for i := range addrs {
			x, err := engine.NewExecutor(g, prog(), engine.Config{Partitions: parts, Combiner: analytics.SumCombiner})
			if err != nil {
				b.Fatal(err)
			}
			w, err := NewWorker(x, "127.0.0.1:0", wm)
			if err != nil {
				b.Fatal(err)
			}
			go w.Serve()
			defer w.Close()
			addrs[i] = w.Addr()
		}
		tr, err := DialTCP(TCPConfig{
			Addrs: addrs,
			Fingerprint: Fingerprint{
				Partitions:  parts,
				NumVertices: g.NumVertices(),
				NumEdges:    g.NumEdges(),
			},
			Metrics: m,
		})
		if err != nil {
			b.Fatal(err)
		}
		defer tr.Close()
		// Wire traffic = the master link (counted once, master-side) plus
		// the worker-to-worker mesh fragments (counted where they are sent;
		// wm's own sent/recv mirror the master link, so only its peer-bytes
		// counter contributes).
		run(b, tr, func() int64 {
			return m.Counter(obs.MetricNetBytesSent).Value() +
				m.Counter(obs.MetricNetBytesRecv).Value() +
				wm.Counter(obs.MetricNetPeerBytes).Value()
		})
	}

	b.Run("inproc", func(b *testing.B) { run(b, nil, nil) })
	b.Run("tcp", func(b *testing.B) { tcpLeg(b, 1) })
	b.Run("tcp3", func(b *testing.B) { tcpLeg(b, 3) })
}

// BenchmarkWireFrame pins the framing fast path. The write leg is the
// allocs/op gate (benchjson wire_frame_allocs): assembling and writing a
// frame must not allocate — the pooled single-buffer encode is the whole
// point of the sync.Pool in wire.go. The roundtrip leg adds the pooled read
// path (its release closure costs one small allocation per frame, accepted
// for the lifetime safety it buys).
func BenchmarkWireFrame(b *testing.B) {
	payload := make([]byte, 2048)
	for i := range payload {
		payload[i] = byte(i * 31)
	}

	b.Run("write", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(payload)))
		for i := 0; i < b.N; i++ {
			if _, err := writeFrame(io.Discard, frameExec, uint64(i), payload); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("roundtrip", func(b *testing.B) {
		var buf bytes.Buffer
		if _, err := writeFrame(&buf, frameExec, 7, payload); err != nil {
			b.Fatal(err)
		}
		frame := append([]byte(nil), buf.Bytes()...)
		rd := bytes.NewReader(frame)
		b.ReportAllocs()
		b.SetBytes(int64(len(frame)))
		for i := 0; i < b.N; i++ {
			rd.Reset(frame)
			_, _, _, _, release, err := readFramePooled(rd)
			if err != nil {
				b.Fatal(err)
			}
			release()
		}
	})
}

// BenchmarkTraceRun measures what distributed span tracing costs on top of
// an instrumented TCP-loopback run. Both legs carry a metrics registry (the
// honest baseline: anyone who would enable tracing already has metrics on);
// only the traced leg enables spans. The benchjson trace_overhead ratio
// (traced/untraced) is the gated quantity — tracing must stay within 5% of
// the untraced run. The graph is larger than BenchmarkTransportRun's
// because span cost is O(supersteps × partitions), independent of graph
// size — the gate bounds overhead at a realistic compute-to-exchange
// ratio, not on a toy graph where fixed costs dominate.
func BenchmarkTraceRun(b *testing.B) {
	g, err := gen.RMAT(gen.DefaultRMAT(11, 8, 42))
	if err != nil {
		b.Fatal(err)
	}
	const parts = 4
	prog := func() engine.Program { return &analytics.PageRank{Iterations: 10} }
	run := func(b *testing.B, spans bool) {
		b.Helper()
		m := obs.New()
		x, err := engine.NewExecutor(g, prog(), engine.Config{Partitions: parts, Combiner: analytics.SumCombiner})
		if err != nil {
			b.Fatal(err)
		}
		w, err := NewWorker(x, "127.0.0.1:0", nil)
		if err != nil {
			b.Fatal(err)
		}
		go w.Serve()
		defer w.Close()
		tr, err := DialTCP(TCPConfig{
			Addrs: []string{w.Addr()},
			Fingerprint: Fingerprint{
				Partitions:  parts,
				NumVertices: g.NumVertices(),
				NumEdges:    g.NumEdges(),
			},
			Metrics: m,
		})
		if err != nil {
			b.Fatal(err)
		}
		defer tr.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// A fresh registry per iteration keeps the span collector from
			// accumulating across runs; the transport keeps the shared one
			// for its counters only.
			rm := obs.New()
			if spans {
				rm.EnableSpans()
			}
			e, err := engine.New(g, prog(), engine.Config{
				MaxSupersteps: 11,
				Partitions:    parts,
				Combiner:      analytics.SumCombiner,
				Transport:     tr,
				Metrics:       rm,
			})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := e.Run(); err != nil {
				b.Fatal(err)
			}
		}
	}

	b.Run("untraced", func(b *testing.B) { run(b, false) })
	b.Run("traced", func(b *testing.B) { run(b, true) })
}
