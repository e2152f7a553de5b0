package eval

import (
	"errors"
	"fmt"

	"ariadne/internal/pql"
	"ariadne/internal/pql/analysis"
	"ariadne/internal/value"
)

// This file implements the paper's query compiler (§4: "ARIADNE
// incorporates a compiler that maps query evaluation to vertex programs";
// §2.2: "ARIADNE compiles this query into a provenance query vertex
// program"). A compiled query evaluates its rules directly against each
// vertex's transient provenance record — value, previous value (evolution),
// messages, emitted facts, static edges — without materializing any EDB
// tuples in the Datalog database. Only derived (IDB) tuples are stored.
//
// Each rule compiles (compilerule.go) to a flat slot program, the same IR
// the shard-parallel interpreter runs (slots.go), and one of three drivers
// runs it:
//   - record rules run once per record, anchored at the record's vertex;
//   - global rules (IDB joins with no record literal) run a delta step over
//     the driving relation's tuples that arrived since their last pass;
//   - static rules (static edges only) run once, with no record.
//
// Evaluation allocates only for new head tuples: slots, key buffers, UDF
// arguments and the emitted-fact index are reused scratch in one slotRun.
//
// Not every PQL query compiles: aggregates, remote EDB access, and
// unrestricted cross-layer joins fall back to the interpretive evaluator
// (the drivers handle the fallback transparently).

// ErrNotCompilable reports that a query needs the interpretive evaluator.
var ErrNotCompilable = errors.New("pql: query is not compilable to a vertex program")

func notCompilable(pos pql.Pos, format string, args ...any) error {
	return fmt.Errorf("%w: %s: %s", ErrNotCompilable, pos, fmt.Sprintf(format, args...))
}

// RuleError names the rule that kept a query off the compiled path. It
// wraps the ErrNotCompilable reason.
type RuleError struct {
	Rule *pql.Rule
	Err  error
}

func (e *RuleError) Error() string { return e.Err.Error() }
func (e *RuleError) Unwrap() error { return e.Err }

// MsgView is one message endpoint of a record under compiled evaluation.
type MsgView struct {
	Peer int64
	Val  value.Value
}

// FactView is one emitted analytic fact of a record.
type FactView struct {
	Table string
	Args  []value.Value
}

// RecordView is the compiled evaluator's view of one provenance record —
// the transient state a query vertex program reads.
type RecordView struct {
	Vertex    int64
	Superstep int64
	HasValue  bool
	Value     value.Value
	// PrevActive/PrevValue realize the evolution edge (retention).
	PrevActive   int64 // -1 if none
	PrevValue    value.Value
	HasPrevValue bool
	SentAny      bool
	Sends        []MsgView
	Recvs        []MsgView
	Emitted      []FactView
}

// StaticGraph exposes the input graph to compiled edge/edge_value literals.
type StaticGraph interface {
	NumVertices() int
	// OutNeighbors returns destinations and weights of v's out-edges.
	OutNeighbors(v int64) ([]int64, []float64)
	// InNeighbors returns sources of v's in-edges (nil if unavailable).
	InNeighbors(v int64) []int64
	// EdgeWeight returns the weight of edge src->dst if present.
	EdgeWeight(src, dst int64) (float64, bool)
}

// RuleKind is the driver of a compiled rule's slot program.
type RuleKind uint8

const (
	RuleRecord RuleKind = iota // anchored at each record
	RuleGlobal                 // driven by the new tuples of its first IDB
	RuleStatic                 // only static EDBs: evaluated once
)

func (k RuleKind) String() string {
	switch k {
	case RuleRecord:
		return "record"
	case RuleGlobal:
		return "global"
	default:
		return "static"
	}
}

// CompiledRule describes one compiled rule.
type CompiledRule struct {
	Rule *pql.Rule
	Kind RuleKind
}

// Compiled is a query compiled to slot programs over provenance records.
// Evaluation is single-threaded (it runs at the superstep barrier).
type Compiled struct {
	q  *analysis.Query
	db *Database

	// strata[i] holds the compiled rules of stratum i.
	strata [][]*crule
	// rn is the evaluation scratch; rn.derived counts inserted head tuples.
	rn slotRun

	staticDone bool
	records    int64
}

// crule is one compiled rule.
type crule struct {
	src  *pql.Rule
	kind RuleKind
	prog slotVariant
	head *Relation
	// Global rules: the delta step scans drivePred's tuples from
	// driveCursor, the insertion-order position already consumed.
	drivePred   string
	driveCursor int
}

// Compile compiles an analyzed query. Returns a *RuleError wrapping
// ErrNotCompilable when the query requires the interpretive evaluator.
func Compile(q *analysis.Query, db *Database, sg StaticGraph) (*Compiled, error) {
	c := &Compiled{q: q, db: db, strata: make([][]*crule, len(q.Strata))}
	c.rn = slotRun{db: db, sg: sg}
	for name, arity := range q.IDBs {
		db.Relation(name, arity)
	}
	globalHeads := map[string]bool{}
	for si, stratum := range q.Strata {
		for _, r := range stratum {
			cr, err := compileRule(r, q)
			if err != nil {
				return nil, &RuleError{Rule: r, Err: err}
			}
			cr.head = db.Relation(r.Head.Pred, len(r.Head.Args))
			if cr.kind == RuleGlobal {
				globalHeads[r.Head.Pred] = true
			}
			c.strata[si] = append(c.strata[si], cr)
		}
	}
	// Soundness guard: record rules re-evaluate per record, so they must
	// not consume predicates whose tuples may appear without a matching
	// record (global-rule heads complete only at FinishRun).
	for _, stratum := range c.strata {
		for _, cr := range stratum {
			if cr.kind != RuleRecord {
				continue
			}
			for _, lit := range cr.src.Body {
				if pl, ok := lit.(*pql.PredLit); ok && globalHeads[pl.Atom.Pred] {
					return nil, &RuleError{Rule: cr.src, Err: notCompilable(cr.src.Pos, "record rule consumes global predicate %s", pl.Atom.Pred)}
				}
			}
		}
	}
	return c, nil
}

// Rules lists the compiled rules in stratum order with their drivers.
func (c *Compiled) Rules() []CompiledRule {
	var out []CompiledRule
	for _, stratum := range c.strata {
		for _, r := range stratum {
			out = append(out, CompiledRule{Rule: r.src, Kind: r.kind})
		}
	}
	return out
}

// DerivedTuples returns how many head tuples were inserted.
func (c *Compiled) DerivedTuples() int64 { return c.rn.derived }

// Records returns how many records were processed.
func (c *Compiled) Records() int64 { return c.records }

// BeginRun evaluates the static rules (bodies over static EDBs only).
func (c *Compiled) BeginRun() error {
	if c.staticDone {
		return nil
	}
	c.staticDone = true
	for _, stratum := range c.strata {
		for _, r := range stratum {
			if r.kind != RuleStatic {
				continue
			}
			c.use(r, nil)
			if err := r.prog.run(&c.rn, 0); err != nil {
				return err
			}
		}
	}
	return nil
}

// Layer evaluates one provenance layer's records: every stratum in order,
// iterating to an in-layer fixpoint (recursive rules).
func (c *Compiled) Layer(recs []RecordView) error {
	if err := c.BeginRun(); err != nil {
		return err
	}
	c.records += int64(len(recs))
	for _, stratum := range c.strata {
		for {
			before := c.rn.derived
			for _, r := range stratum {
				switch r.kind {
				case RuleStatic:
					// done in BeginRun
				case RuleGlobal:
					if err := c.evalGlobal(r); err != nil {
						return err
					}
				default:
					c.use(r, nil)
					for i := range recs {
						c.rn.rv = &recs[i]
						c.rn.gen++
						if err := r.prog.run(&c.rn, 0); err != nil {
							return err
						}
					}
				}
			}
			if c.rn.derived == before {
				break
			}
		}
	}
	c.rn.rv = nil
	return nil
}

// FinishRun completes evaluation after the last layer: global rules rescan
// their driving relations in full once, catching any cross-layer
// compositions their incremental passes could not see.
func (c *Compiled) FinishRun() error {
	for _, stratum := range c.strata {
		for {
			before := c.rn.derived
			for _, r := range stratum {
				if r.kind != RuleGlobal {
					continue
				}
				r.driveCursor = 0
				if err := c.evalGlobal(r); err != nil {
					return err
				}
			}
			if c.rn.derived == before {
				break
			}
		}
	}
	return nil
}

// use points the scratch at rule r's program, head and delta batch.
func (c *Compiled) use(r *crule, deltas []Tuple) {
	c.rn.size(&r.prog)
	c.rn.head = r.head
	c.rn.deltas = deltas
	c.rn.rv = nil
}

// evalGlobal runs a global rule over the driving relation's tuples that
// arrived since the rule's last pass.
func (c *Compiled) evalGlobal(r *crule) error {
	rel := c.db.Get(r.drivePred)
	if rel == nil {
		return nil
	}
	all := rel.All()
	if r.driveCursor >= len(all) {
		return nil
	}
	start := r.driveCursor
	r.driveCursor = len(all)
	c.use(r, all[start:])
	return r.prog.run(&c.rn, 0)
}
