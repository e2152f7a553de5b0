package eval

import (
	"fmt"

	"ariadne/internal/value"
)

// Record-source steps: how a compiled query vertex program reads the
// provenance record it is anchored at (slotRun.rv) and the static input
// graph (slotRun.sg). Each step produces values and matches them against
// st.match exactly as a relation step matches a tuple, so a record literal
// behaves like a scan of the EDB tuples the interpretive feeder would have
// materialized for the record — without materializing them.

// Record-source step kinds, beside plan.go's relation steps. Each lists the
// values it produces in st.match order.
const (
	stepAnchor      stepKind = stepCompare + 1 + iota // record vertex
	stepSuperstep                                     // superstep
	stepValue                                         // value, superstep
	stepPrevValue                                     // previous value, previous superstep
	stepEvolution                                     // previous superstep, superstep
	stepMessages                                      // per message: peer, value, superstep
	stepNegMessages                                   // negated message test (probe: peer, value, superstep)
	stepProvSend                                      // superstep, when the record sent
	stepEmitted                                       // per fact of the table: args..., superstep
	stepEmittedKey                                    // stepEmitted restricted to facts whose first arg equals probe[0]
	stepEdgeMember                                    // edge(probe[0], probe[1]) membership
	stepEdgeOut                                       // per out-neighbor of probe[0]: dst
	stepEdgeIn                                        // per in-neighbor of probe[0]: src
	stepEdgeAll                                       // per edge: src, dst
	stepEdgeValue                                     // per out-edge of the record: dst, weight, 0
	stepEdgeValueAt                                   // edge to probe[0]: weight, 0
)

// runRecord executes a record-source step.
func (sv *slotVariant) runRecord(rn *slotRun, si int, st *slotStep) error {
	rv := rn.rv
	var buf [3]value.Value
	vals := buf[:0]
	switch st.kind {
	case stepAnchor:
		vals = append(vals, value.NewInt(rv.Vertex))
	case stepSuperstep:
		vals = append(vals, value.NewInt(rv.Superstep))
	case stepValue:
		if !rv.HasValue {
			return nil
		}
		vals = append(vals, rv.Value, value.NewInt(rv.Superstep))
	case stepPrevValue:
		if !rv.HasPrevValue {
			return nil
		}
		vals = append(vals, rv.PrevValue, value.NewInt(rv.PrevActive))
	case stepEvolution:
		if rv.PrevActive < 0 {
			return nil
		}
		vals = append(vals, value.NewInt(rv.PrevActive), value.NewInt(rv.Superstep))
	case stepProvSend:
		if !rv.SentAny && len(rv.Sends) == 0 {
			return nil
		}
		vals = append(vals, value.NewInt(rv.Superstep))
	case stepEdgeMember:
		a, err := st.probe[0].eval(rn)
		if err != nil {
			return err
		}
		b, err := st.probe[1].eval(rn)
		if err != nil {
			return err
		}
		if _, ok := rn.sg.EdgeWeight(a.Int(), b.Int()); !ok {
			return nil
		}
	case stepEdgeValueAt:
		y, err := st.probe[0].eval(rn)
		if err != nil {
			return err
		}
		w, ok := rn.sg.EdgeWeight(rv.Vertex, y.Int())
		if !ok {
			return nil
		}
		vals = append(vals, value.NewFloat(w), value.NewInt(0))
	case stepNegMessages:
		return sv.runNegMessages(rn, si, st)
	default:
		return sv.runEnum(rn, si, st)
	}
	return sv.matchRun(rn, si, st.match, vals)
}

// runEnum executes a record-source step that enumerates candidates.
func (sv *slotVariant) runEnum(rn *slotRun, si int, st *slotStep) error {
	rv := rn.rv
	switch st.kind {
	case stepMessages:
		msgs := rv.Recvs
		if st.sends {
			msgs = rv.Sends
		}
		for i := range msgs {
			vals := [3]value.Value{value.NewInt(msgs[i].Peer), msgs[i].Val, value.NewInt(rv.Superstep)}
			if err := sv.matchRun(rn, si, st.match, vals[:]); err != nil {
				return err
			}
		}
	case stepEmitted:
		for i := range rv.Emitted {
			if err := sv.matchFact(rn, si, st, &rv.Emitted[i]); err != nil {
				return err
			}
		}
	case stepEmittedKey:
		want, err := st.probe[0].eval(rn)
		if err != nil {
			return err
		}
		ix := &rn.facts
		ix.build(rv, rn.gen)
		for fi := ix.seek(rv, st.pred, want, ix.head[ix.hash(st.pred, want)]); fi >= 0; fi = ix.seek(rv, st.pred, want, ix.link[fi]) {
			if err := sv.matchFact(rn, si, st, &rv.Emitted[fi]); err != nil {
				return err
			}
		}
	case stepEdgeOut, stepEdgeIn:
		at, err := st.probe[0].eval(rn)
		if err != nil {
			return err
		}
		ids := rn.sg.InNeighbors(at.Int())
		if st.kind == stepEdgeOut {
			ids, _ = rn.sg.OutNeighbors(at.Int())
		}
		for _, d := range ids {
			vals := [1]value.Value{value.NewInt(d)}
			if err := sv.matchRun(rn, si, st.match, vals[:]); err != nil {
				return err
			}
		}
	case stepEdgeAll:
		for v := 0; v < rn.sg.NumVertices(); v++ {
			dst, _ := rn.sg.OutNeighbors(int64(v))
			for _, d := range dst {
				vals := [2]value.Value{value.NewInt(int64(v)), value.NewInt(d)}
				if err := sv.matchRun(rn, si, st.match, vals[:]); err != nil {
					return err
				}
			}
		}
	case stepEdgeValue:
		dst, ws := rn.sg.OutNeighbors(rv.Vertex)
		for i, d := range dst {
			vals := [3]value.Value{value.NewInt(d), value.NewFloat(ws[i]), value.NewInt(0)}
			if err := sv.matchRun(rn, si, st.match, vals[:]); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("pql: %s: unknown compiled step kind %d", st.pos, st.kind)
	}
	return nil
}

// matchFact matches an emitted fact of the step's table (payload, then the
// record's superstep) and, on success, runs the rest of the program.
func (sv *slotVariant) matchFact(rn *slotRun, si int, st *slotStep, f *FactView) error {
	n := len(f.Args)
	if f.Table != st.pred || n != len(st.match)-1 {
		return nil
	}
	if ok, err := rn.matchVals(st.match[:n], f.Args); err != nil || !ok {
		return err
	}
	ss := [1]value.Value{value.NewInt(rn.rv.Superstep)}
	return sv.matchRun(rn, si, st.match[n:], ss[:])
}

// runNegMessages is !receive_message / !send_message with ground arguments:
// the record's messages hold only its own superstep, so a probe for another
// superstep always passes.
func (sv *slotVariant) runNegMessages(rn *slotRun, si int, st *slotStep) error {
	var probe [3]value.Value
	for i := range probe {
		v, err := st.probe[i].eval(rn)
		if err != nil {
			return err
		}
		probe[i] = v
	}
	rv := rn.rv
	if probe[2].Int() == rv.Superstep {
		msgs := rv.Recvs
		if st.sends {
			msgs = rv.Sends
		}
		for i := range msgs {
			if msgs[i].Peer == probe[0].Int() && msgs[i].Val.Equal(probe[1]) {
				return nil
			}
		}
	}
	return sv.run(rn, si+1)
}

// factIndex is a chained hash index of the current record's emitted facts
// by (table, first argument), so a join on an emitted table's first
// argument (Query 7's prediction per neighbor) costs O(deg) instead of
// O(deg²). It is rebuilt per record evaluation into reused arrays, and
// keys are compared in their canonical encoding (Tuple.Key's Int 3 ==
// Float 3.0).
type factIndex struct {
	gen  uint64  // the record evaluation (slotRun.gen) the index describes
	head []int32 // head[h]: 1 + the first fact of bucket h (0: none)
	link []int32 // link[i]: 1 + the next fact of i's bucket, in emission order
	buf  []byte
}

// build indexes rv's facts unless the index already describes evaluation
// gen.
func (ix *factIndex) build(rv *RecordView, gen uint64) {
	if ix.gen == gen && ix.head != nil {
		return
	}
	ix.gen = gen
	n := len(rv.Emitted)
	size := 8
	for size < 2*n {
		size <<= 1
	}
	if cap(ix.head) < size {
		ix.head = make([]int32, size)
	}
	ix.head = ix.head[:size]
	clear(ix.head)
	if cap(ix.link) < n {
		ix.link = make([]int32, n)
	}
	ix.link = ix.link[:n]
	// Push back to front so every chain runs front to back.
	for i := n - 1; i >= 0; i-- {
		f := &rv.Emitted[i]
		if len(f.Args) == 0 {
			continue
		}
		h := ix.hash(f.Table, f.Args[0])
		ix.link[i], ix.head[h] = ix.head[h], int32(i+1)
	}
}

func (ix *factIndex) hash(table string, v value.Value) int {
	ix.buf = appendNorm(append(ix.buf[:0], table...), v)
	return int(fnvSum(ix.buf) & uint64(len(ix.head)-1))
}

// seek follows a chain from link value at (1 + fact index, 0 ends) to the
// first fact of table whose first argument keys equal to want; -1 if none.
func (ix *factIndex) seek(rv *RecordView, table string, want value.Value, at int32) int {
	for ; at != 0; at = ix.link[at-1] {
		f := &rv.Emitted[at-1]
		if f.Table != table {
			continue
		}
		b := appendNorm(ix.buf[:0], f.Args[0])
		n := len(b)
		b = appendNorm(b, want)
		ix.buf = b
		if string(b[:n]) == string(b[n:]) {
			return int(at - 1)
		}
	}
	return -1
}
