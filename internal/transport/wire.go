// Package transport moves partition superstep execution across a wire. TCP
// is the master-side client behind the engine's Transport seam: it sends
// each partition's ExecRequest and each delivery round to the worker
// process holding the partition's state (Worker) over a length-prefixed,
// CRC-framed, versioned protocol and survives a faulty network —
// per-message deadlines, bounded retransmit with the supervision backoff
// policy, heartbeat liveness, reconnects, and receiver-side dedup of
// at-least-once deliveries.
//
// The wire format reuses the repo's binary conventions: frames are
//
//	u32 length | u32 CRC-32 (IEEE) | body
//
// like the checkpoint format's record framing, and bodies are value.Blob
// encodings, so every Value crosses the wire through the same bit-exact
// codec the spill and checkpoint files use — which is what keeps a TCP run
// bit-identical to an in-process one.
//
// Workers are stateful: exec requests carry a mode (delta or seed) and a
// peer-mesh route, deliver rounds move the barrier to the workers, peer
// frag frames carry worker-to-worker outbox columns, and any large frame
// may travel snap-compressed inside a frameSnap envelope when both sides
// negotiated the capability at handshake.
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"

	"ariadne/internal/engine"
	"ariadne/internal/obs"
	"ariadne/internal/value"
)

// Version is the protocol version exchanged in the handshake. A master and
// worker must agree exactly; there is no cross-version negotiation.
// Version 2 added the trace context trailing every ExecRequest and a span
// section trailing every ExecResult. Version 3 adds exec modes (delta/seed
// exchanges for worker-resident state), deliver and peer-frag frames, the
// handshake capability mask, and snap-compressed frames. Version 4 drops
// the stateless exchange that shipped whole frontiers: requests are delta
// or seed only, and results no longer carry computed values.
const Version = 4

// maxFrame bounds a frame body so a corrupt length prefix fails fast
// instead of provoking a giant allocation.
const maxFrame = 1 << 30

// Frame types.
const (
	frameHello      byte = 1  // master -> worker: version + graph fingerprint + caps
	frameWelcome    byte = 2  // worker -> master: handshake accepted (echoes fingerprint + caps)
	frameExec       byte = 3  // master -> worker: ExecRequest
	frameResult     byte = 4  // worker -> master: ExecResult
	framePing       byte = 5  // master -> worker: liveness probe
	framePong       byte = 6  // worker -> master: liveness ack
	frameError      byte = 7  // worker -> master: protocol-level failure (text)
	frameDrain      byte = 8  // worker -> master: draining; route new work elsewhere
	frameDeliver    byte = 9  // master -> worker: DeliverRequest (barrier / collect round)
	frameDeliverRes byte = 10 // worker -> master: DeliverResult
	framePeerFrag   byte = 11 // worker -> worker: one outbox column over the mesh
	framePeerAck    byte = 12 // worker -> worker: frag stored
	frameSnap       byte = 13 // either direction: [inner type | snap block] envelope
)

// Handshake capability bits. The effective capability set of a connection
// is the AND of what both sides offered; unknown bits are ignored, so new
// capabilities stay backward-compatible within a version.
const capSnappy uint64 = 1 << 0

// snapMinCompress is the smallest payload worth compressing: below this the
// tag overhead and the extra copy cost more than the bytes saved.
const snapMinCompress = 1024

var errBadFrame = errors.New("transport: corrupt frame")

// frameBufs pools frame scratch buffers: writeFrame's single-write encode
// buffer, the pooled read path's body buffers, and the compressor's
// envelope scratch. Steady-state framing allocates nothing (the
// BenchmarkWireFrame allocs/op pin).
var frameBufs = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

func getFrameBuf() *[]byte  { return frameBufs.Get().(*[]byte) }
func putFrameBuf(b *[]byte) { frameBufs.Put(b) }

// writeFrame writes one frame: header (length + CRC over the body), then
// body = type byte, uvarint seq, payload. The frame is assembled in one
// pooled buffer and written with a single Write, so a concurrent writer
// under an external mutex never interleaves partial frames and the fast
// path allocates nothing.
func writeFrame(w io.Writer, typ byte, seq uint64, payload []byte) (int, error) {
	bp := getFrameBuf()
	buf := (*bp)[:0]
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0)
	buf = append(buf, typ)
	buf = binary.AppendUvarint(buf, seq)
	buf = append(buf, payload...)
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(buf)-8))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(buf[8:]))
	n, err := w.Write(buf)
	*bp = buf
	putFrameBuf(bp)
	return n, err
}

// readFrame reads and verifies one frame, returning its type, sequence
// number, and payload. The payload is freshly allocated and owned by the
// caller — use readFramePooled where the payload's lifetime ends at decode.
func readFrame(r io.Reader) (typ byte, seq uint64, payload []byte, n int, err error) {
	var hdr [8]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, nil, 0, err
	}
	length := binary.LittleEndian.Uint32(hdr[0:4])
	want := binary.LittleEndian.Uint32(hdr[4:8])
	if length == 0 || length > maxFrame {
		return 0, 0, nil, 0, fmt.Errorf("%w: body length %d", errBadFrame, length)
	}
	body := make([]byte, length)
	if _, err = io.ReadFull(r, body); err != nil {
		return 0, 0, nil, 0, err
	}
	if got := crc32.ChecksumIEEE(body); got != want {
		return 0, 0, nil, 0, fmt.Errorf("%w: CRC mismatch (got %08x want %08x)", errBadFrame, got, want)
	}
	typ = body[0]
	seq, k := binary.Uvarint(body[1:])
	if k <= 0 {
		return 0, 0, nil, 0, fmt.Errorf("%w: truncated seq", errBadFrame)
	}
	return typ, seq, body[1+k:], 8 + int(length), nil
}

// readFramePooled is readFrame with a pooled body buffer: the returned
// payload is only valid until release is called, which the caller must do
// exactly once after decoding (the blob codec copies everything out, so
// nothing aliases the buffer afterwards). release is non-nil iff err is
// nil.
func readFramePooled(r io.Reader) (typ byte, seq uint64, payload []byte, n int, release func(), err error) {
	var hdr [8]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, nil, 0, nil, err
	}
	length := binary.LittleEndian.Uint32(hdr[0:4])
	want := binary.LittleEndian.Uint32(hdr[4:8])
	if length == 0 || length > maxFrame {
		return 0, 0, nil, 0, nil, fmt.Errorf("%w: body length %d", errBadFrame, length)
	}
	bp := getFrameBuf()
	body := *bp
	if cap(body) < int(length) {
		body = make([]byte, length)
	} else {
		body = body[:length]
	}
	*bp = body
	release = func() { putFrameBuf(bp) }
	if _, err = io.ReadFull(r, body); err != nil {
		release()
		return 0, 0, nil, 0, nil, err
	}
	if got := crc32.ChecksumIEEE(body); got != want {
		release()
		return 0, 0, nil, 0, nil, fmt.Errorf("%w: CRC mismatch (got %08x want %08x)", errBadFrame, got, want)
	}
	typ = body[0]
	seq, k := binary.Uvarint(body[1:])
	if k <= 0 {
		release()
		return 0, 0, nil, 0, nil, fmt.Errorf("%w: truncated seq", errBadFrame)
	}
	return typ, seq, body[1+k:], 8 + int(length), release, nil
}

// frameForSend wraps (typ, payload) in a frameSnap envelope when the
// connection negotiated compression, the payload is big enough to matter,
// and the frame type carries bulk data. Returns the type and payload to put
// on the wire plus a pooled scratch buffer the caller must return via
// putFrameBuf after writing (nil when the frame goes out uncompressed).
// Incompressible payloads are sent as-is — the envelope is only used when
// it actually shrinks the frame.
func frameForSend(typ byte, payload []byte, snappy bool, m *obs.Metrics) (byte, []byte, *[]byte) {
	if !snappy || len(payload) < snapMinCompress {
		return typ, payload, nil
	}
	switch typ {
	case frameExec, frameResult, frameDeliver, frameDeliverRes, framePeerFrag:
	default:
		return typ, payload, nil
	}
	bp := getFrameBuf()
	buf := (*bp)[:0]
	buf = append(buf, typ)
	buf = snapCompress(buf, payload)
	*bp = buf
	if len(buf) >= len(payload) {
		putFrameBuf(bp)
		return typ, payload, nil
	}
	m.Counter(obs.MetricNetSnapFrames).Add(1)
	m.Counter(obs.MetricNetSnapSavedB).Add(int64(len(payload) - len(buf)))
	return frameSnap, buf, bp
}

// unsnapPooled unwraps a frameSnap envelope read through the pooled path:
// the input buffer is released and the decoded payload comes back in a
// fresh pooled buffer with its own release.
func unsnapPooled(payload []byte, release func()) (byte, []byte, func(), error) {
	if len(payload) == 0 {
		release()
		return 0, nil, nil, fmt.Errorf("%w: empty snap envelope", errBadFrame)
	}
	inner := payload[0]
	bp := getFrameBuf()
	dec, err := snapDecode((*bp)[:0], payload[1:])
	*bp = dec
	release()
	if err != nil {
		putFrameBuf(bp)
		return 0, nil, nil, err
	}
	return inner, dec, func() { putFrameBuf(bp) }, nil
}

// unsnapOwned unwraps a frameSnap envelope into a caller-owned buffer (for
// the master's read loop, where payloads cross a channel to the waiting
// exchange).
func unsnapOwned(payload []byte) (byte, []byte, error) {
	if len(payload) == 0 {
		return 0, nil, fmt.Errorf("%w: empty snap envelope", errBadFrame)
	}
	dec, err := snapDecode(nil, payload[1:])
	return payload[0], dec, err
}

// Fingerprint identifies the run a connection belongs to: protocol version,
// partition count, and graph shape. Master and worker must have loaded the
// same graph with the same partitioning or results would silently diverge —
// the handshake turns that into an immediate, explicit error.
type Fingerprint struct {
	Partitions  int
	NumVertices int
	NumEdges    int
}

// encodeHello builds a hello/welcome payload: the fingerprint plus the
// sender's capability mask.
func encodeHello(f Fingerprint, caps uint64) []byte {
	b := value.NewBlob()
	b.Uvarint(Version)
	b.Uvarint(uint64(f.Partitions))
	b.Uvarint(uint64(f.NumVertices))
	b.Uvarint(uint64(f.NumEdges))
	b.Uvarint(caps)
	return b.Bytes()
}

func decodeHello(p []byte) (Fingerprint, uint64, error) {
	r := value.NewBlobReader(p)
	v := r.Uvarint()
	f := Fingerprint{
		Partitions:  int(r.Uvarint()),
		NumVertices: int(r.Uvarint()),
		NumEdges:    int(r.Uvarint()),
	}
	caps := r.Uvarint()
	if r.Err() != nil {
		return f, 0, fmt.Errorf("transport: corrupt handshake: %w", r.Err())
	}
	if v != Version {
		return f, 0, fmt.Errorf("transport: protocol version mismatch: peer %d, ours %d", v, Version)
	}
	return f, caps, nil
}

// appendRoute / readRoute carry the peer-mesh routing table of a resident
// exec request: Route[dp] is the owning worker's address, "." for the
// executing worker itself, "" for master-resident partitions.
func appendRoute(b *value.Blob, route []string) {
	b.Uvarint(uint64(len(route)))
	for _, addr := range route {
		b.String(addr)
	}
}

func readRoute(r *value.BlobReader) []string {
	n := r.Elems()
	if n == 0 {
		return nil
	}
	route := make([]string, n)
	for i := range route {
		route[i] = r.String()
	}
	return route
}

func appendOutMsgs(b *value.Blob, msgs []engine.OutMessage) {
	b.Uvarint(uint64(len(msgs)))
	for _, m := range msgs {
		b.Uvarint(uint64(m.Src))
		b.Uvarint(uint64(m.Dst))
		b.Value(m.Val)
	}
}

func readOutMsgs(r *value.BlobReader) []engine.OutMessage {
	k := r.Elems()
	if k == 0 {
		return nil
	}
	msgs := make([]engine.OutMessage, k)
	for j := range msgs {
		msgs[j] = engine.OutMessage{
			Src: engine.VertexID(r.Uvarint()),
			Dst: engine.VertexID(r.Uvarint()),
			Val: r.Value(),
		}
	}
	return msgs
}

// encodeExecRequest serializes a partition superstep request: the active
// ids and the mesh route, plus the full stride state install for a seed.
func encodeExecRequest(req *engine.ExecRequest) []byte {
	b := value.NewBlob()
	b.Uvarint(uint64(req.Superstep))
	b.Uvarint(uint64(req.Partition))
	b.Uvarint(uint64(req.Mode))
	b.Bool(req.Observing)
	b.Bool(req.Combine)
	b.Uvarint(uint64(len(req.Active)))
	for _, v := range req.Active {
		b.Uvarint(uint64(v))
	}
	appendRoute(b, req.Route)
	if req.Mode == engine.ModeSeed {
		b.Uvarint(uint64(len(req.AllValues)))
		for i, v := range req.AllValues {
			b.Value(v)
			b.Int(int64(req.AllActive[i]))
		}
		for _, msgs := range req.Inbox {
			b.Uvarint(uint64(len(msgs)))
			for _, m := range msgs {
				b.Uvarint(uint64(m.Src))
				b.Value(m.Val)
			}
		}
	}
	// Aggregators in sorted-name order for a canonical encoding.
	names := make([]string, 0, len(req.Agg))
	for name := range req.Agg {
		names = append(names, name)
	}
	sortStrings(names)
	b.Uvarint(uint64(len(names)))
	for _, name := range names {
		b.String(name)
		b.Float(req.Agg[name])
	}
	// Trace context (both zero when span tracing is off).
	b.Uvarint(req.TraceID)
	b.Uvarint(req.ParentSpan)
	return b.Bytes()
}

// decodeExecRequest decodes an exec frame, rejecting any mode but delta or
// seed. Every count is bounded by the bytes left, so a corrupt or hostile
// frame can never size an allocation beyond its own length.
func decodeExecRequest(p []byte) (*engine.ExecRequest, error) {
	r := value.NewBlobReader(p)
	req := &engine.ExecRequest{
		Superstep: int(r.Uvarint()),
		Partition: int(r.Uvarint()),
		Mode:      engine.ExecMode(r.Uvarint()),
		Observing: r.Bool(),
		Combine:   r.Bool(),
	}
	if r.Err() == nil && req.Mode != engine.ModeDelta && req.Mode != engine.ModeSeed {
		return nil, fmt.Errorf("transport: exec request mode %d is neither delta nor seed", req.Mode)
	}
	n := r.Elems()
	req.Active = make([]engine.VertexID, n)
	for i := 0; i < n; i++ {
		req.Active[i] = engine.VertexID(r.Uvarint())
	}
	req.Route = readRoute(r)
	if req.Mode == engine.ModeSeed {
		k := r.Elems()
		req.AllValues = make([]value.Value, k)
		req.AllActive = make([]int32, k)
		for i := 0; i < k; i++ {
			req.AllValues[i] = r.Value()
			req.AllActive[i] = int32(r.Int())
		}
		req.Inbox = make([][]engine.IncomingMessage, n)
		for i := 0; i < n; i++ {
			if k := r.Elems(); k > 0 {
				msgs := make([]engine.IncomingMessage, k)
				for j := 0; j < k; j++ {
					msgs[j] = engine.IncomingMessage{Src: engine.VertexID(r.Uvarint()), Val: r.Value()}
				}
				req.Inbox[i] = msgs
			}
		}
	}
	if k := r.Elems(); k > 0 {
		req.Agg = make(map[string]float64, k)
		for j := 0; j < k; j++ {
			name := r.String()
			req.Agg[name] = r.Float()
		}
	}
	req.TraceID = r.Uvarint()
	req.ParentSpan = r.Uvarint()
	if r.Err() != nil {
		return nil, fmt.Errorf("transport: corrupt exec request: %w", r.Err())
	}
	return req, nil
}

// encodeExecResult serializes a completed partition superstep: the result
// body followed by the span section (always present, count 0 when the run
// is untraced).
func encodeExecResult(res *engine.ExecResult) []byte {
	return appendSpanSection(encodeExecResultBody(res), res.Spans)
}

// appendSpanSection appends the piggybacked worker spans after an encoded
// result body. Split from the body encoder so the worker can time the body
// encode and then attach the span that measured it.
func appendSpanSection(body []byte, spans []obs.Span) []byte {
	b := value.NewBlob()
	obs.EncodeSpans(b, spans)
	return append(body, b.Bytes()...)
}

// encodeExecResultBody serializes a completed partition superstep without
// the trailing span section.
func encodeExecResultBody(res *engine.ExecResult) []byte {
	b := value.NewBlob()
	b.Uvarint(uint64(res.Partition))
	b.Bool(res.Crash != nil)
	if c := res.Crash; c != nil {
		b.Uvarint(uint64(c.Vertex))
		b.Uvarint(uint64(c.Superstep))
		b.String(c.Message)
		b.Bool(c.Panic)
		b.Bool(c.Injected)
		b.Bool(c.Deadline)
		b.Bool(c.Canceled)
		return b.Bytes()
	}
	b.Bool(res.StateMiss)
	if res.StateMiss {
		return b.Bytes()
	}
	b.Uvarint(uint64(len(res.Outbox)))
	for _, msgs := range res.Outbox {
		b.Uvarint(uint64(len(msgs)))
		for _, m := range msgs {
			b.Uvarint(uint64(m.Src))
			b.Uvarint(uint64(m.Dst))
			b.Value(m.Val)
		}
	}
	b.Uvarint(uint64(len(res.Records)))
	for i := range res.Records {
		rec := &res.Records[i]
		b.Uvarint(uint64(rec.ID))
		b.Uvarint(uint64(rec.Superstep))
		b.Int(int64(rec.PrevActive))
		b.Value(rec.OldValue)
		b.Value(rec.NewValue)
		b.Uvarint(uint64(len(rec.Received)))
		for _, m := range rec.Received {
			b.Uvarint(uint64(m.Src))
			b.Value(m.Val)
		}
		b.Uvarint(uint64(len(rec.Sent)))
		for _, m := range rec.Sent {
			b.Uvarint(uint64(m.Dst))
			b.Value(m.Val)
		}
		b.Uvarint(uint64(len(rec.Emitted)))
		for _, f := range rec.Emitted {
			b.String(f.Table)
			b.Uvarint(uint64(len(f.Args)))
			for _, a := range f.Args {
				b.Value(a)
			}
		}
	}
	b.Int(res.Sent)
	b.Int(res.CombinedSender)
	b.Uvarint(uint64(len(res.Agg)))
	for _, u := range res.Agg {
		b.String(u.Name)
		b.Uvarint(uint64(u.Op))
		b.Float(u.Val)
		b.Int(u.N)
	}
	b.Uvarint(uint64(len(res.DstCounts)))
	for _, c := range res.DstCounts {
		b.Int(c)
	}
	return b.Bytes()
}

// decodeExecResult decodes a worker's exec reply. Like every wire decoder it
// sizes allocations with Elems, so a corrupt or hostile count can never ask
// for more elements than the payload has bytes.
func decodeExecResult(p []byte) (*engine.ExecResult, error) {
	r := value.NewBlobReader(p)
	res := &engine.ExecResult{Partition: int(r.Uvarint())}
	if r.Bool() {
		res.Crash = &engine.RemoteCrash{
			Vertex:    engine.VertexID(r.Uvarint()),
			Superstep: int(r.Uvarint()),
			Message:   r.String(),
			Panic:     r.Bool(),
			Injected:  r.Bool(),
			Deadline:  r.Bool(),
			Canceled:  r.Bool(),
		}
		res.Spans, _ = obs.DecodeSpans(r)
		if r.Err() != nil {
			return nil, fmt.Errorf("transport: corrupt exec result: %w", r.Err())
		}
		return res, nil
	}
	if r.Bool() {
		res.StateMiss = true
		res.Spans, _ = obs.DecodeSpans(r)
		if r.Err() != nil {
			return nil, fmt.Errorf("transport: corrupt exec result: %w", r.Err())
		}
		return res, nil
	}
	nParts := r.Elems()
	res.Outbox = make([][]engine.OutMessage, nParts)
	for dp := 0; dp < nParts; dp++ {
		k := r.Elems()
		if k == 0 {
			continue
		}
		msgs := make([]engine.OutMessage, k)
		for j := 0; j < k; j++ {
			msgs[j] = engine.OutMessage{
				Src: engine.VertexID(r.Uvarint()),
				Dst: engine.VertexID(r.Uvarint()),
				Val: r.Value(),
			}
		}
		res.Outbox[dp] = msgs
	}
	if nRecs := r.Elems(); nRecs > 0 {
		res.Records = make([]engine.VertexRecord, nRecs)
		for i := 0; i < nRecs; i++ {
			rec := &res.Records[i]
			rec.ID = engine.VertexID(r.Uvarint())
			rec.Superstep = int(r.Uvarint())
			rec.PrevActive = int(r.Int())
			rec.OldValue = r.Value()
			rec.NewValue = r.Value()
			if k := r.Elems(); k > 0 {
				rec.Received = make([]engine.IncomingMessage, k)
				for j := 0; j < k; j++ {
					rec.Received[j] = engine.IncomingMessage{Src: engine.VertexID(r.Uvarint()), Val: r.Value()}
				}
			}
			if k := r.Elems(); k > 0 {
				rec.Sent = make([]engine.SentMessage, k)
				for j := 0; j < k; j++ {
					rec.Sent[j] = engine.SentMessage{Dst: engine.VertexID(r.Uvarint()), Val: r.Value()}
				}
			}
			if k := r.Elems(); k > 0 {
				rec.Emitted = make([]engine.ProvFact, k)
				for j := 0; j < k; j++ {
					rec.Emitted[j].Table = r.String()
					if na := r.Elems(); na > 0 {
						rec.Emitted[j].Args = make([]value.Value, na)
						for a := 0; a < na; a++ {
							rec.Emitted[j].Args[a] = r.Value()
						}
					}
				}
			}
		}
	}
	res.Sent = r.Int()
	res.CombinedSender = r.Int()
	if k := r.Elems(); k > 0 {
		res.Agg = make([]engine.AggUpdate, k)
		for j := 0; j < k; j++ {
			res.Agg[j] = engine.AggUpdate{
				Name: r.String(),
				Op:   engine.AggOp(r.Uvarint()),
				Val:  r.Float(),
				N:    r.Int(),
			}
		}
	}
	if k := r.Elems(); k > 0 {
		res.DstCounts = make([]int64, k)
		for j := 0; j < k; j++ {
			res.DstCounts[j] = r.Int()
		}
	}
	res.Spans, _ = obs.DecodeSpans(r)
	if r.Err() != nil {
		return nil, fmt.Errorf("transport: corrupt exec result: %w", r.Err())
	}
	return res, nil
}

// encodeDeliverRequest serializes one worker's slice of the delivery
// barrier (or collect) round.
func encodeDeliverRequest(req *engine.DeliverRequest) []byte {
	b := value.NewBlob()
	b.Uvarint(uint64(req.Superstep))
	b.Bool(req.CollectOnly)
	b.Bool(req.Combine)
	b.Uvarint(uint64(len(req.Parts)))
	for _, p := range req.Parts {
		b.Uvarint(uint64(p))
	}
	if !req.CollectOnly {
		for i := range req.Parts {
			exp := req.Expected[i]
			b.Uvarint(uint64(len(exp)))
			for _, c := range exp {
				b.Uvarint(uint64(c))
			}
			mf := req.MasterFrags[i]
			b.Uvarint(uint64(len(mf)))
			for _, msgs := range mf {
				appendOutMsgs(b, msgs)
			}
		}
	}
	b.Uvarint(req.TraceID)
	b.Uvarint(req.ParentSpan)
	return b.Bytes()
}

// decodeDeliverRequest decodes a deliver frame; counts are bounded by the
// bytes left.
func decodeDeliverRequest(p []byte) (*engine.DeliverRequest, error) {
	r := value.NewBlobReader(p)
	req := &engine.DeliverRequest{
		Superstep:   int(r.Uvarint()),
		CollectOnly: r.Bool(),
		Combine:     r.Bool(),
	}
	n := r.Elems()
	req.Parts = make([]int, n)
	for i := 0; i < n; i++ {
		req.Parts[i] = int(r.Uvarint())
	}
	if !req.CollectOnly {
		req.Expected = make([][]int64, n)
		req.MasterFrags = make([][][]engine.OutMessage, n)
		for i := 0; i < n; i++ {
			k := r.Elems()
			exp := make([]int64, k)
			for j := 0; j < k; j++ {
				exp[j] = int64(r.Uvarint())
			}
			req.Expected[i] = exp
			k = r.Elems()
			mf := make([][]engine.OutMessage, k)
			for j := 0; j < k; j++ {
				mf[j] = readOutMsgs(r)
			}
			req.MasterFrags[i] = mf
		}
	}
	req.TraceID = r.Uvarint()
	req.ParentSpan = r.Uvarint()
	if r.Err() != nil {
		return nil, fmt.Errorf("transport: corrupt deliver request: %w", r.Err())
	}
	return req, nil
}

// encodeDeliverResult serializes the per-partition outcomes of one deliver
// round.
func encodeDeliverResult(res *engine.DeliverResult) []byte {
	b := value.NewBlob()
	b.Uvarint(uint64(len(res.Parts)))
	for i := range res.Parts {
		dp := &res.Parts[i]
		b.Uvarint(uint64(dp.Partition))
		b.Bool(dp.OK)
		if !dp.OK {
			continue
		}
		b.Uvarint(uint64(dp.Delivered))
		b.Uvarint(uint64(dp.Combined))
		b.Uvarint(uint64(len(dp.Dsts)))
		for _, v := range dp.Dsts {
			b.Uvarint(uint64(v))
		}
		b.Uvarint(uint64(len(dp.Values)))
		for _, v := range dp.Values {
			b.Value(v)
		}
		b.Uvarint(uint64(len(dp.Inbox)))
		for _, en := range dp.Inbox {
			b.Uvarint(uint64(en.Dst))
			b.Uvarint(uint64(len(en.Msgs)))
			for _, m := range en.Msgs {
				b.Uvarint(uint64(m.Src))
				b.Value(m.Val)
			}
		}
	}
	return b.Bytes()
}

// decodeDeliverResult decodes a deliver reply; counts are bounded by the
// bytes left.
func decodeDeliverResult(p []byte) (*engine.DeliverResult, error) {
	r := value.NewBlobReader(p)
	n := r.Elems()
	res := &engine.DeliverResult{Parts: make([]engine.DeliverPart, n)}
	for i := 0; i < n; i++ {
		dp := &res.Parts[i]
		dp.Partition = int(r.Uvarint())
		dp.OK = r.Bool()
		if !dp.OK {
			continue
		}
		dp.Delivered = int64(r.Uvarint())
		dp.Combined = int64(r.Uvarint())
		k := r.Elems()
		dp.Dsts = make([]engine.VertexID, k)
		for j := 0; j < k; j++ {
			dp.Dsts[j] = engine.VertexID(r.Uvarint())
		}
		if k := r.Elems(); k > 0 {
			dp.Values = make([]value.Value, k)
			for j := 0; j < k; j++ {
				dp.Values[j] = r.Value()
			}
		}
		if k := r.Elems(); k > 0 {
			dp.Inbox = make([]engine.InboxChunk, k)
			for j := 0; j < k; j++ {
				dp.Inbox[j].Dst = engine.VertexID(r.Uvarint())
				if km := r.Elems(); km > 0 {
					msgs := make([]engine.IncomingMessage, km)
					for a := 0; a < km; a++ {
						msgs[a] = engine.IncomingMessage{Src: engine.VertexID(r.Uvarint()), Val: r.Value()}
					}
					dp.Inbox[j].Msgs = msgs
				}
			}
		}
	}
	if r.Err() != nil {
		return nil, fmt.Errorf("transport: corrupt deliver result: %w", r.Err())
	}
	return res, nil
}

// peerFrag is one outbox column crossing the worker mesh: source partition
// sp's messages for destination partition dp, emitted at superstep ss.
type peerFrag struct {
	ss, sp, dp int
	msgs       []engine.OutMessage
}

func encodePeerFrag(f *peerFrag) []byte {
	b := value.NewBlob()
	b.Uvarint(uint64(f.ss))
	b.Uvarint(uint64(f.sp))
	b.Uvarint(uint64(f.dp))
	appendOutMsgs(b, f.msgs)
	return b.Bytes()
}

// decodePeerFrag decodes an outbox column from the worker mesh; counts are
// bounded by the bytes left.
func decodePeerFrag(p []byte) (*peerFrag, error) {
	r := value.NewBlobReader(p)
	f := &peerFrag{
		ss: int(r.Uvarint()),
		sp: int(r.Uvarint()),
		dp: int(r.Uvarint()),
	}
	f.msgs = readOutMsgs(r)
	if r.Err() != nil {
		return nil, fmt.Errorf("transport: corrupt peer frag: %w", r.Err())
	}
	return f, nil
}

// sortStrings is an insertion sort — aggregator maps hold a handful of
// names, not worth pulling in sort for an interface allocation per call.
func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
