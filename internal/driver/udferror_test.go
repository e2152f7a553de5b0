package driver

import (
	"errors"
	"strings"
	"testing"

	"ariadne/internal/engine"
	"ariadne/internal/queries"
	"ariadne/internal/value"
)

// TestUDFErrorSameOnEveryPath pins UDF error reporting: a failing UDF
// surfaces as "pql: <pos>: <name>: <err>" — wrapping the UDF's error —
// identically online and layered, compiled and interpretive.
func TestUDFErrorSameOnEveryPath(t *testing.T) {
	g, store := captureSSSP(t, 5)
	boom := errors.New("boom")
	failing := func(a, b value.Value) (float64, error) { return 0, boom }
	var want string
	check := func(label string, err error) {
		t.Helper()
		if !errors.Is(err, boom) {
			t.Fatalf("%s: error %v does not wrap the UDF error", label, err)
		}
		msg := err.Error()
		i := strings.Index(msg, "pql: ")
		if i < 0 {
			t.Fatalf("%s: %q lacks the pql position prefix", label, msg)
		}
		msg = msg[i:]
		if want == "" {
			want = msg
			if !strings.HasSuffix(want, ": udf_diff: boom") {
				t.Fatalf("%s: %q lacks the position and UDF name", label, want)
			}
		}
		if msg != want {
			t.Errorf("%s: %q, want %q", label, msg, want)
		}
	}
	for _, mode := range []struct {
		name string
		opts []EvalOpt
	}{{"compiled", nil}, {"interpretive", []EvalOpt{Interpretive()}}} {
		o, err := NewOnline(queries.Apt(0.1, failing).MustBuild(), g, mode.opts...)
		if err != nil {
			t.Fatal(err)
		}
		if o.UsesCompiledPath() != (mode.opts == nil) {
			t.Fatalf("%s: online compiled path = %v", mode.name, o.UsesCompiledPath())
		}
		e, err := engine.New(g, ssspProg{}, engine.Config{Observers: []engine.Observer{o}})
		if err != nil {
			t.Fatal(err)
		}
		_, err = e.Run()
		check(mode.name+" online", err)
		_, err = Layered(queries.Apt(0.1, failing).MustBuild(), store, g, mode.opts...)
		check(mode.name+" layered", err)
	}
}
