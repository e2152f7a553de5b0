package driver

import (
	"bytes"
	"testing"

	"ariadne/internal/analytics"
	"ariadne/internal/engine"
	"ariadne/internal/gen"
	"ariadne/internal/graph"
	"ariadne/internal/queries"
	"ariadne/internal/value"
)

// TestOnlineCheckpointOldRetentionLayout pins the compiled-path checkpoint
// layout: the evolution-retention section is written empty, and a
// checkpoint from the older layout — the same blob with per-vertex values
// in that section — still loads, restoring the same state.
func TestOnlineCheckpointOldRetentionLayout(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(6, 4, 3))
	if err != nil {
		t.Fatal(err)
	}
	q := queries.Apt(0.01, nil)
	o, err := NewOnline(q.MustBuild(), g)
	if err != nil {
		t.Fatal(err)
	}
	if !o.UsesCompiledPath() {
		t.Fatal("apt must run compiled")
	}
	e, err := engine.New(g, &analytics.PageRank{Iterations: 4}, engine.Config{MaxSupersteps: 5, Observers: []engine.Observer{o}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if o.PiggybackTuples == 0 {
		t.Fatal("run derived nothing")
	}
	blob, err := o.MarshalCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	if blob[len(blob)-1] != 0 {
		t.Fatalf("compiled checkpoint must end with an empty retention section, got byte %#x", blob[len(blob)-1])
	}
	ret := value.NewBlob()
	saveVertexValues(ret, map[graph.VertexID]value.Value{
		0: value.NewFloat(0.25), 7: value.NewFloat(1.5), 42: value.NewVector([]float64{1, 2}),
	})
	old := append(append([]byte(nil), blob[:len(blob)-1]...), ret.Bytes()...)

	for name, data := range map[string][]byte{"current": blob, "old": old} {
		fresh, err := NewOnline(q.MustBuild(), g)
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.UnmarshalCheckpoint(data); err != nil {
			t.Fatalf("%s layout: %v", name, err)
		}
		again, err := fresh.MarshalCheckpoint()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, blob) {
			t.Errorf("%s layout: restored state re-marshals differently", name)
		}
		if fresh.PiggybackTuples != o.PiggybackTuples {
			t.Errorf("%s layout: piggyback %d, want %d", name, fresh.PiggybackTuples, o.PiggybackTuples)
		}
	}
	fresh, err := NewOnline(q.MustBuild(), g)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.UnmarshalCheckpoint(old[:len(old)-3]); err == nil {
		t.Error("truncated old-layout checkpoint loaded without error")
	}
}
