package provenance

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"time"

	"ariadne/internal/fault"
	"ariadne/internal/obs"
	"ariadne/internal/value"
)

// Layer files are written in the columnar version 2 format (columnar.go).
// Version 1, the row-oriented format earlier builds spilled, is still read:
//
//	magic "APRV" | version:1 | superstep:uvarint | nrecords:uvarint | records
//
// Each record:
//
//	vertex:uvarint | prevActive+1:uvarint | flags:1 |
//	[value] | nsends:uvarint sends | nrecvs:uvarint recvs |
//	nemitted:uvarint { tableLen:uvarint table nargs:uvarint args }
//
// flags: bit0 HasValue, bit1 SentAny. Readers sniff the version byte, so
// spill directories from earlier builds keep loading.

var layerMagic = [4]byte{'A', 'P', 'R', 'V'}

const (
	layerVersion = 1 // read-only: the row format of earlier builds
	// spillAttempts/spillBackoff bound the retry loop for transient write
	// errors (capped exponential backoff via fault.Retry).
	spillAttempts = 4
	spillBackoff  = time.Millisecond
	// maxDecodeLen caps length-prefixed allocations while decoding so a
	// corrupt layer file errors out instead of attempting a huge make().
	maxDecodeLen = 1 << 26
)

// writeLayerFile persists one layer atomically in the columnar format: the
// bytes go to a temp file, are fsynced, and only then renamed to the final
// path, so a crash or I/O error mid-write never leaves a partial layer
// visible where readLayerFile would trip over it. Transient errors
// (injectable via inj for testing) are retried with capped exponential
// backoff; each fallback to retry is recorded as a warning trace event and
// a retry counter bump — never silently — so fault-injection runs are
// auditable from the trace buffer alone. Returns the on-disk size of the
// written file.
func writeLayerFile(path string, l *Layer, inj *fault.Injector, m *obs.Metrics) (int64, error) {
	var written int64
	attempt := func() error {
		if err := inj.Hit(fault.SiteSpillWrite, l.Superstep, -1, -1); err != nil {
			return err
		}
		tmp := path + ".tmp"
		f, err := os.Create(tmp)
		if err != nil {
			return err
		}
		cw := &countingWriter{w: bufio.NewWriter(f)}
		if err := encodeLayerColumnar(cw, l); err != nil {
			f.Close()
			os.Remove(tmp)
			return err
		}
		if err := cw.w.Flush(); err != nil {
			f.Close()
			os.Remove(tmp)
			return err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			os.Remove(tmp)
			return err
		}
		if err := f.Close(); err != nil {
			os.Remove(tmp)
			return err
		}
		if err := os.Rename(tmp, path); err != nil {
			os.Remove(tmp)
			return err
		}
		written = cw.n
		return nil
	}
	notify := func(n int, err error) {
		m.AddRetry("spill")
		m.Tracef(obs.Warn, "spill", l.Superstep, "layer write attempt %d/%d failed, retrying: %v",
			n, spillAttempts, err)
	}
	if err := fault.RetryNotify(spillAttempts, spillBackoff, attempt, notify); err != nil {
		m.Tracef(obs.Error, "spill", l.Superstep, "layer write giving up after %d attempts: %v", spillAttempts, err)
		return 0, err
	}
	return written, nil
}

// countingWriter counts bytes through to a bufio.Writer (the actual on-disk
// layer size, which v2 makes much smaller than EncodedSize's v1-shaped
// estimate).
type countingWriter struct {
	w *bufio.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// readLayerFile loads a complete layer, sniffing the format version.
func readLayerFile(path string) (*Layer, error) {
	l, _, err := readLayerFileProjected(path, maskAll)
	return l, err
}

// readLayerFileProjected loads a layer materializing only the columns in
// mask (core columns always). v1 row files ignore the mask — every column
// streams past the reader anyway — and report maskAll. The returned mask
// records which columns are actually materialized, for cache bookkeeping.
func readLayerFileProjected(path string, mask colMask) (*Layer, colMask, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	var ver [5]byte
	if _, err := io.ReadFull(f, ver[:]); err != nil {
		return nil, 0, fmt.Errorf("provenance: layer file too short: %w", err)
	}
	if [4]byte(ver[:4]) != layerMagic {
		return nil, 0, fmt.Errorf("provenance: bad layer magic %q", ver[:4])
	}
	switch ver[4] {
	case layerVersion:
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			return nil, 0, err
		}
		l, err := decodeLayer(bufio.NewReader(f))
		return l, maskAll, err
	case layerVersionColumnar:
		st, err := f.Stat()
		if err != nil {
			return nil, 0, err
		}
		cl, err := openColumnar(f, st.Size())
		if err != nil {
			return nil, 0, err
		}
		l := &Layer{}
		if err := cl.decodeInto(l, mask); err != nil {
			return nil, 0, err
		}
		return l, mask | maskCore, nil
	default:
		return nil, 0, fmt.Errorf("provenance: unsupported layer version %d", ver[4])
	}
}

// mergeLayerColumns decodes the additional columns in add from a v2 layer
// file into a previously projected layer (in place). Only columnar files
// ever yield partial layers, so a v1 file here is a bookkeeping bug.
func mergeLayerColumns(path string, l *Layer, add colMask) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return err
	}
	cl, err := openColumnar(f, st.Size())
	if err != nil {
		return err
	}
	return cl.mergeInto(l, add)
}

type byteReader interface {
	io.Reader
	io.ByteReader
}

// decodeLayer reads a v1 row-format layer.
func decodeLayer(r byteReader) (*Layer, error) {
	var magic [4]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, err
	}
	if magic != layerMagic {
		return nil, fmt.Errorf("provenance: bad layer magic %q", magic[:])
	}
	ver, err := r.ReadByte()
	if err != nil {
		return nil, err
	}
	if ver != layerVersion {
		return nil, fmt.Errorf("provenance: unsupported layer version %d", ver)
	}
	ss, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	if n > maxDecodeLen {
		return nil, fmt.Errorf("provenance: corrupt layer: record count %d exceeds sanity cap", n)
	}
	// Grow incrementally: a corrupt count should fail on the first short
	// read, not pre-allocate the claimed size.
	l := &Layer{Superstep: int(ss), Records: make([]Record, 0, min(n, 4096))}
	for i := uint64(0); i < n; i++ {
		l.Records = append(l.Records, Record{})
		rec := &l.Records[len(l.Records)-1]
		v, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, err
		}
		rec.Vertex = VertexID(v)
		pa, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, err
		}
		rec.PrevActive = int32(pa) - 1
		flags, err := r.ReadByte()
		if err != nil {
			return nil, err
		}
		rec.HasValue = flags&1 != 0
		rec.SentAny = flags&2 != 0
		if rec.HasValue {
			if rec.Value, err = readValue(r); err != nil {
				return nil, err
			}
		}
		if rec.Sends, err = readMsgHalves(r); err != nil {
			return nil, err
		}
		if rec.Recvs, err = readMsgHalves(r); err != nil {
			return nil, err
		}
		ne, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, err
		}
		if ne > maxDecodeLen {
			return nil, fmt.Errorf("provenance: corrupt layer: emitted count %d exceeds sanity cap", ne)
		}
		if ne > 0 {
			rec.Emitted = make([]Fact, ne)
			for j := range rec.Emitted {
				tl, err := binary.ReadUvarint(r)
				if err != nil {
					return nil, err
				}
				if tl > maxDecodeLen {
					return nil, fmt.Errorf("provenance: corrupt layer: table name length %d exceeds sanity cap", tl)
				}
				tb := make([]byte, tl)
				if _, err := io.ReadFull(r, tb); err != nil {
					return nil, err
				}
				na, err := binary.ReadUvarint(r)
				if err != nil {
					return nil, err
				}
				if na > maxDecodeLen {
					return nil, fmt.Errorf("provenance: corrupt layer: arg count %d exceeds sanity cap", na)
				}
				args := make([]value.Value, na)
				for k := range args {
					if args[k], err = readValue(r); err != nil {
						return nil, err
					}
				}
				rec.Emitted[j] = Fact{Table: string(tb), Args: args}
			}
		}
	}
	return l, nil
}

func readMsgHalves(r byteReader) ([]MsgHalf, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	if n > maxDecodeLen {
		return nil, fmt.Errorf("provenance: corrupt layer: message count %d exceeds sanity cap", n)
	}
	ms := make([]MsgHalf, n)
	for i := range ms {
		p, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, err
		}
		ms[i].Peer = VertexID(p)
		if ms[i].Val, err = readValue(r); err != nil {
			return nil, err
		}
	}
	return ms, nil
}

// readValue decodes one value from a stream by buffering the maximum value
// header and payload incrementally.
func readValue(r byteReader) (value.Value, error) {
	// Values are self-describing; re-encode the stream bytes into a buffer
	// large enough for DecodeValue. Read kind byte first.
	kind, err := r.ReadByte()
	if err != nil {
		return value.NullValue, err
	}
	switch value.Kind(kind) {
	case value.Null:
		return value.NullValue, nil
	case value.Bool:
		b, err := r.ReadByte()
		if err != nil {
			return value.NullValue, err
		}
		return value.NewBool(b == 1), nil
	case value.Int, value.Float:
		var raw [8]byte
		if _, err := io.ReadFull(r, raw[:]); err != nil {
			return value.NullValue, err
		}
		buf := append([]byte{kind}, raw[:]...)
		v, _, err := value.DecodeValue(buf)
		return v, err
	case value.String:
		n, err := binary.ReadUvarint(r)
		if err != nil {
			return value.NullValue, err
		}
		if n > maxDecodeLen {
			return value.NullValue, fmt.Errorf("provenance: corrupt layer: string length %d exceeds sanity cap", n)
		}
		b := make([]byte, n)
		if _, err := io.ReadFull(r, b); err != nil {
			return value.NullValue, err
		}
		return value.NewString(string(b)), nil
	case value.Vector:
		n, err := binary.ReadUvarint(r)
		if err != nil {
			return value.NullValue, err
		}
		if n > maxDecodeLen/8 {
			return value.NullValue, fmt.Errorf("provenance: corrupt layer: vector length %d exceeds sanity cap", n)
		}
		raw := make([]byte, 8*n)
		if _, err := io.ReadFull(r, raw); err != nil {
			return value.NullValue, err
		}
		buf := binary.AppendUvarint([]byte{kind}, n)
		buf = append(buf, raw...)
		v, _, err := value.DecodeValue(buf)
		return v, err
	default:
		return value.NullValue, fmt.Errorf("provenance: corrupt value kind %d in layer file", kind)
	}
}
