package provenance

import (
	"errors"
	"math/rand"
	"path/filepath"
	"testing"
	"testing/quick"

	"ariadne/internal/value"
)

func sampleLayer(ss int, nrec int) *Layer {
	l := &Layer{Superstep: ss}
	for i := 0; i < nrec; i++ {
		r := Record{
			Vertex:     VertexID(i * 3),
			PrevActive: int32(ss - 1),
			HasValue:   true,
			Value:      value.NewFloat(float64(i) * 1.5),
			SentAny:    i%2 == 0,
		}
		if i%2 == 0 {
			r.Sends = []MsgHalf{{Peer: VertexID(i + 1), Val: value.NewFloat(0.5)}}
			r.Recvs = []MsgHalf{{Peer: VertexID(i + 2), Val: value.NewString("m")}}
			r.Emitted = []Fact{{Table: "prov_error", Args: []value.Value{value.NewInt(int64(i)), value.NewFloat(0.1)}}}
		}
		l.Records = append(l.Records, r)
	}
	return l
}

func TestLayerAccounting(t *testing.T) {
	l := sampleLayer(0, 4)
	if l.MemSize() <= 0 {
		t.Error("MemSize must be positive")
	}
	// 4 superstep + 4 value + 0 evolution (ss-1 = -1) + 2 sends + 2 recvs +
	// 2 emitted + 2 sentany
	l0 := sampleLayer(0, 4)
	for i := range l0.Records {
		l0.Records[i].PrevActive = -1
	}
	want := int64(4 + 4 + 2 + 2 + 2 + 2)
	if got := l0.NumTuples(); got != want {
		t.Errorf("NumTuples = %d, want %d", got, want)
	}
	// With evolution edges present, 4 more.
	l1 := sampleLayer(1, 4)
	if got := l1.NumTuples(); got != want+4 {
		t.Errorf("NumTuples with evolution = %d, want %d", got, want+4)
	}
}

func TestStoreBasic(t *testing.T) {
	s := NewStore(StoreConfig{})
	defer s.Close()
	for ss := 0; ss < 3; ss++ {
		if err := s.AppendLayer(sampleLayer(ss, 5)); err != nil {
			t.Fatal(err)
		}
	}
	if s.NumLayers() != 3 {
		t.Errorf("layers = %d", s.NumLayers())
	}
	if s.TotalBytes() <= 0 || s.TotalTuples() <= 0 {
		t.Error("size accounting should be positive")
	}
	if s.DistinctVertices() != 5 {
		t.Errorf("distinct vertices = %d, want 5", s.DistinctVertices())
	}
	l, err := s.Layer(1)
	if err != nil || l.Superstep != 1 {
		t.Errorf("Layer(1) = %v, %v", l, err)
	}
	if _, err := s.Layer(9); err == nil {
		t.Error("out-of-range layer should fail")
	}
	if err := s.AppendLayer(sampleLayer(7, 1)); err == nil {
		t.Error("out-of-order append should fail")
	}
}

func TestStoreBudgetWithoutSpillFails(t *testing.T) {
	s := NewStore(StoreConfig{MemoryBudget: 64})
	defer s.Close()
	err := s.AppendLayer(sampleLayer(0, 50))
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("want ErrBudgetExceeded, got %v", err)
	}
}

func TestStoreSpillsAndReloads(t *testing.T) {
	dir := t.TempDir()
	s := NewStore(StoreConfig{MemoryBudget: 16384, SpillDir: dir})
	defer s.Close()
	var want []*Layer
	for ss := 0; ss < 12; ss++ {
		l := sampleLayer(ss, 20)
		want = append(want, l)
		if err := s.AppendLayer(l); err != nil {
			t.Fatal(err)
		}
	}
	if s.SpilledLayers() == 0 {
		t.Fatal("expected some layers to spill")
	}
	if s.ResidentBytes() > 16384 {
		t.Errorf("resident %d exceeds budget", s.ResidentBytes())
	}
	// Spilled layers reload identically.
	for ss := 0; ss < 12; ss++ {
		got, err := s.Layer(ss)
		if err != nil {
			t.Fatalf("Layer(%d): %v", ss, err)
		}
		assertLayersEqual(t, want[ss], got)
	}
	// Spill files exist under dir once the pipeline drains.
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "layer-*.prov"))
	if len(files) != s.SpilledLayers() {
		t.Errorf("spill files %d, want %d", len(files), s.SpilledLayers())
	}
}

func TestStoreSingleLayerOverBudget(t *testing.T) {
	dir := t.TempDir()
	s := NewStore(StoreConfig{MemoryBudget: 16, SpillDir: dir})
	defer s.Close()
	// One giant layer cannot fit even after spilling older layers: the
	// newest layer always stays resident, so this must fail like the
	// paper's ALS full-capture (§6.1).
	if err := s.AppendLayer(sampleLayer(0, 100)); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("want ErrBudgetExceeded, got %v", err)
	}
}

func assertLayersEqual(t *testing.T, a, b *Layer) {
	t.Helper()
	if a.Superstep != b.Superstep || len(a.Records) != len(b.Records) {
		t.Fatalf("layer mismatch: ss %d/%d records %d/%d", a.Superstep, b.Superstep, len(a.Records), len(b.Records))
	}
	for i := range a.Records {
		ra, rb := &a.Records[i], &b.Records[i]
		if ra.Vertex != rb.Vertex || ra.PrevActive != rb.PrevActive ||
			ra.HasValue != rb.HasValue || ra.SentAny != rb.SentAny ||
			!ra.Value.Equal(rb.Value) && ra.HasValue {
			t.Fatalf("record %d differs: %+v vs %+v", i, ra, rb)
		}
		if len(ra.Sends) != len(rb.Sends) || len(ra.Recvs) != len(rb.Recvs) || len(ra.Emitted) != len(rb.Emitted) {
			t.Fatalf("record %d edge counts differ", i)
		}
		for j := range ra.Sends {
			if ra.Sends[j].Peer != rb.Sends[j].Peer || !ra.Sends[j].Val.Equal(rb.Sends[j].Val) {
				t.Fatalf("record %d send %d differs", i, j)
			}
		}
		for j := range ra.Emitted {
			if ra.Emitted[j].Table != rb.Emitted[j].Table || len(ra.Emitted[j].Args) != len(rb.Emitted[j].Args) {
				t.Fatalf("record %d fact %d differs", i, j)
			}
			for k := range ra.Emitted[j].Args {
				if !ra.Emitted[j].Args[k].Equal(rb.Emitted[j].Args[k]) {
					t.Fatalf("record %d fact %d arg %d differs", i, j, k)
				}
			}
		}
	}
}

// TestLayerCodecQuick round-trips random layers through the layer writer's
// encoding and the reader.
func TestLayerCodecQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		l := &Layer{Superstep: r.Intn(50)}
		for i := 0; i < r.Intn(10); i++ {
			rec := Record{
				Vertex:     VertexID(r.Intn(1000)),
				PrevActive: int32(r.Intn(10) - 1),
				HasValue:   r.Intn(2) == 0,
				SentAny:    r.Intn(2) == 0,
			}
			switch r.Intn(3) {
			case 0:
				rec.Value = value.NewFloat(r.NormFloat64())
			case 1:
				rec.Value = value.NewInt(r.Int63())
			default:
				rec.Value = value.NewVector([]float64{r.Float64()})
			}
			for j := 0; j < r.Intn(4); j++ {
				rec.Sends = append(rec.Sends, MsgHalf{Peer: VertexID(r.Intn(100)), Val: value.NewFloat(r.Float64())})
			}
			l.Records = append(l.Records, rec)
		}
		got, err := columnarRoundTrip(l)
		if err != nil || got.Superstep != l.Superstep || len(got.Records) != len(l.Records) {
			return false
		}
		for i := range l.Records {
			if got.Records[i].Vertex != l.Records[i].Vertex {
				return false
			}
			if l.Records[i].HasValue && !got.Records[i].Value.Equal(l.Records[i].Value) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rng}); err != nil {
		t.Error(err)
	}
}
