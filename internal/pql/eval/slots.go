package eval

import (
	"errors"
	"fmt"

	"ariadne/internal/pql"
	"ariadne/internal/pql/analysis"
	"ariadne/internal/value"
)

// Slot-compiled rule programs: the one rule IR behind the shard workers'
// fast path and the compiled query vertex programs (compile.go).
//
// A static join order means the set of bound variables at each step is
// known at plan time. That lets us replace the interpreter's binding map
// (string-keyed, with backtracking deletes) with a flat slot array indexed
// by precomputed positions, and its per-step cols/key rebuilds with
// precompiled lookup encoders writing into a reused byte buffer. The
// program matches every argument exactly the way unify does (first
// variable occurrence binds, later occurrences compare, constants and
// ground expressions compare by Equal), so a slot program and joinFrom
// produce identical tuples in identical order. Any rule shape the
// interpreter-variant compiler doesn't cover — non-ground complex terms,
// unusual binder forms — makes compileVariant return ok=false and the
// variant runs interpretively inside the worker instead.
//
// Besides relation steps (IDB lookups, the delta scan, negation and
// comparisons), a program can read the provenance record it is anchored at
// (slotRun.rv) and the static input graph (slotRun.sg): those record-source
// steps are what compiled query vertex programs are made of.
//
// All mutable evaluation state lives in slotRun, never in the program:
// slot variants are shared by the parallel shard workers.

// slotFn evaluates a term against the run's slot array.
type slotFn func(rn *slotRun) (value.Value, error)

// slot sources: how a ground term is produced at runtime.
type srcKind uint8

const (
	srcConst srcKind = iota
	srcSlot
	srcFn
)

type slotSrc struct {
	kind srcKind
	slot int
	cval value.Value
	fn   slotFn
}

func (s *slotSrc) eval(rn *slotRun) (value.Value, error) {
	switch s.kind {
	case srcConst:
		return s.cval, nil
	case srcSlot:
		return rn.slots[s.slot], nil
	default:
		return s.fn(rn)
	}
}

// match actions: how each argument of a positive atom is checked against a
// candidate tuple, mirroring unify argument by argument.
type matchKind uint8

const (
	matchSkip  matchKind = iota // wildcard
	matchBind                   // first occurrence: bind the slot
	matchSlot                   // bound variable: Equal against the slot
	matchConst                  // constant: Equal
	matchFn                     // ground complex term: evaluate, Equal
)

type slotMatch struct {
	kind matchKind
	slot int
	cval value.Value
	fn   slotFn
}

type slotStep struct {
	kind stepKind
	pred string
	pos  pql.Pos

	// stepPositive
	isDelta    bool
	lookupCols []int
	colsKey    string
	lookupSrc  []slotSrc
	match      []slotMatch

	// stepNegated
	negSrc []slotSrc

	// stepCompare: bindSlot >= 0 is the binder form (evaluate bindFn into
	// the slot, or compare against it when bindCheck), otherwise cmpFn
	// filters.
	bindSlot  int
	bindCheck bool
	bindFn    slotFn
	cmpFn     func(rn *slotRun) (bool, error)

	// Record-source steps: sends selects the sent side of a message step;
	// probe holds the ground arguments an access path looks up by.
	sends bool
	probe []slotSrc
}

// slotVariant is one compiled plan variant: the step program, the head
// constructors, and the slot count.
type slotVariant struct {
	steps  []slotStep
	head   []slotSrc
	nSlots int
}

// slotRun is per-(worker, firing) scratch state: the slot array, reused key
// and argument buffers, the delta batch, and the head sink.
type slotRun struct {
	db     *Database
	slots  []value.Value
	keyBuf []byte
	deltas []Tuple
	// args is the stack of UDF argument vectors (nested calls push above
	// their caller's arguments).
	args []value.Value

	// emit receives each head tuple (shard workers); when head is set
	// instead, the program dedups and inserts directly into it, allocating
	// a tuple only for a new one, and counts insertions in derived.
	emit    func(Tuple) error
	head    *Relation
	headBuf Tuple
	derived int64

	// rv is the record a compiled query vertex program is anchored at
	// (nil for global and static rules), gen numbers the record
	// evaluations, and facts indexes rv's emitted facts; sg is the static
	// input graph.
	rv    *RecordView
	gen   uint64
	facts factIndex
	sg    StaticGraph
}

// prep sizes the scratch for sv and installs the delta batch and sink.
// Stale slot values from a previous firing are harmless: the static binding
// discipline guarantees every slot is written before it is read.
func (rn *slotRun) prep(sv *slotVariant, deltas []Tuple, emit func(Tuple) error) {
	rn.size(sv)
	rn.deltas = deltas
	rn.emit = emit
}

func (rn *slotRun) size(sv *slotVariant) {
	if cap(rn.slots) < sv.nSlots {
		rn.slots = make([]value.Value, sv.nSlots)
	} else {
		rn.slots = rn.slots[:sv.nSlots]
	}
}

// appendNorm appends v's canonical binary encoding (Ints normalized to
// Floats, exactly as Tuple.Key and projKey do).
func appendNorm(b []byte, v value.Value) []byte {
	if v.Kind() == value.Int {
		v = value.NewFloat(v.Float())
	}
	return v.AppendBinary(b)
}

// match applies one match action to a produced value.
func (rn *slotRun) match(m *slotMatch, v value.Value) (bool, error) {
	switch m.kind {
	case matchSkip:
		return true, nil
	case matchBind:
		rn.slots[m.slot] = v
		return true, nil
	case matchSlot:
		return rn.slots[m.slot].Equal(v), nil
	case matchConst:
		return m.cval.Equal(v), nil
	default: // matchFn
		w, err := m.fn(rn)
		if err != nil {
			return false, err
		}
		return w.Equal(v), nil
	}
}

// matchVals applies ms to vals pairwise, stopping at the first mismatch.
func (rn *slotRun) matchVals(ms []slotMatch, vals []value.Value) (bool, error) {
	for i := range ms {
		if ok, err := rn.match(&ms[i], vals[i]); !ok || err != nil {
			return false, err
		}
	}
	return true, nil
}

// matchRun matches vals against ms and, on success, runs the rest of the
// program.
func (sv *slotVariant) matchRun(rn *slotRun, si int, ms []slotMatch, vals []value.Value) error {
	if ok, err := rn.matchVals(ms, vals); err != nil || !ok {
		return err
	}
	return sv.run(rn, si+1)
}

// key encodes srcs into the reused key buffer.
func (rn *slotRun) key(srcs []slotSrc) ([]byte, error) {
	kb := rn.keyBuf[:0]
	for i := range srcs {
		v, err := srcs[i].eval(rn)
		if err != nil {
			return nil, err
		}
		kb = appendNorm(kb, v)
	}
	rn.keyBuf = kb
	return kb, nil
}

// emitHead evaluates the head and hands it to the sink.
func (sv *slotVariant) emitHead(rn *slotRun) error {
	if rn.head == nil {
		t := make(Tuple, len(sv.head))
		for i := range sv.head {
			v, err := sv.head[i].eval(rn)
			if err != nil {
				return err
			}
			t[i] = v
		}
		return rn.emit(t)
	}
	t := rn.headBuf[:0]
	kb := rn.keyBuf[:0]
	for i := range sv.head {
		v, err := sv.head[i].eval(rn)
		if err != nil {
			return err
		}
		t = append(t, v)
		kb = appendNorm(kb, v)
	}
	rn.headBuf, rn.keyBuf = t, kb
	if rn.head.containsKeyBytes(kb) {
		return nil
	}
	rn.head.InsertKeyed(string(kb), t.Clone())
	rn.derived++
	return nil
}

// run executes the program from step si.
func (sv *slotVariant) run(rn *slotRun, si int) error {
	if si == len(sv.steps) {
		return sv.emitHead(rn)
	}
	st := &sv.steps[si]
	switch st.kind {
	case stepCompare:
		if st.bindSlot >= 0 {
			v, err := st.bindFn(rn)
			if err != nil {
				return err
			}
			if st.bindCheck {
				if !rn.slots[st.bindSlot].Equal(v) {
					return nil
				}
			} else {
				rn.slots[st.bindSlot] = v
			}
			return sv.run(rn, si+1)
		}
		ok, err := st.cmpFn(rn)
		if err != nil || !ok {
			return err
		}
		return sv.run(rn, si+1)

	case stepNegated:
		// Evaluate the arguments before the nil-relation check so UDF and
		// arithmetic errors surface exactly as in the interpreter.
		kb, err := rn.key(st.negSrc)
		if err != nil {
			return err
		}
		if rel := rn.db.Get(st.pred); rel != nil && rel.containsKeyBytes(kb) {
			return nil
		}
		return sv.run(rn, si+1)

	case stepPositive:
		var cands []Tuple
		if st.isDelta {
			cands = rn.deltas
		} else {
			rel := rn.db.Get(st.pred)
			if rel == nil {
				return nil
			}
			if len(st.lookupCols) == 0 {
				cands = rel.All()
			} else {
				kb, err := rn.key(st.lookupSrc)
				if err != nil {
					return err
				}
				cands = rel.LookupKey(st.lookupCols, st.colsKey, kb)
			}
		}
		for _, t := range cands {
			if len(t) != len(st.match) {
				return fmt.Errorf("pql: %s: arity mismatch binding %s", st.pos, st.pred)
			}
			if err := sv.matchRun(rn, si, st.match, t); err != nil {
				return err
			}
		}
		return nil

	default:
		return sv.runRecord(rn, si, st)
	}
}

// termFn compiles a ground term into a slotFn; varSlot resolves each
// variable to the slot it is read from, or reports why it cannot be read
// at this point of the program.
func termFn(t pql.Term, env *analysis.Env, varSlot func(*pql.Var) (int, error)) (slotFn, error) {
	switch t := t.(type) {
	case *pql.Const:
		v := t.Val
		return func(*slotRun) (value.Value, error) { return v, nil }, nil
	case *pql.Var:
		if t.Wildcard() {
			return nil, notCompilable(t.Pos, "wildcard in evaluated term")
		}
		slot, err := varSlot(t)
		if err != nil {
			return nil, err
		}
		return func(rn *slotRun) (value.Value, error) { return rn.slots[slot], nil }, nil
	case *pql.BinExpr:
		lf, err := termFn(t.L, env, varSlot)
		if err != nil {
			return nil, err
		}
		if t.Op == pql.OpNeg {
			return func(rn *slotRun) (value.Value, error) {
				l, err := lf(rn)
				if err != nil {
					return value.NullValue, err
				}
				return value.Neg(l)
			}, nil
		}
		rf, err := termFn(t.R, env, varSlot)
		if err != nil {
			return nil, err
		}
		var op func(a, b value.Value) (value.Value, error)
		switch t.Op {
		case pql.OpAdd:
			op = value.Add
		case pql.OpSub:
			op = value.Sub
		case pql.OpMul:
			op = value.Mul
		case pql.OpDiv:
			op = value.Div
		case pql.OpMod:
			op = value.Mod
		default:
			return nil, notCompilable(t.Pos, "unknown operator in %s", t)
		}
		return func(rn *slotRun) (value.Value, error) {
			l, err := lf(rn)
			if err != nil {
				return value.NullValue, err
			}
			r, err := rf(rn)
			if err != nil {
				return value.NullValue, err
			}
			return op(l, r)
		}, nil
	case *pql.Call:
		fn, ok := env.Funcs[t.Name]
		if !ok {
			return nil, notCompilable(t.Pos, "unknown function %s", t.Name)
		}
		argFns := make([]slotFn, len(t.Args))
		for i, a := range t.Args {
			af, err := termFn(a, env, varSlot)
			if err != nil {
				return nil, err
			}
			argFns[i] = af
		}
		name, pos := t.Name, t.Pos
		return func(rn *slotRun) (value.Value, error) {
			// The arguments go on rn.args above any caller's, so nested
			// calls reuse one buffer; the UDF must not retain the slice.
			base := len(rn.args)
			for i := range argFns {
				v, err := argFns[i](rn)
				if err != nil {
					rn.args = rn.args[:base]
					return value.NullValue, err
				}
				rn.args = append(rn.args, v)
			}
			out, err := fn.Fn(rn.args[base:len(rn.args):len(rn.args)])
			rn.args = rn.args[:base]
			if err != nil {
				return value.NullValue, fmt.Errorf("pql: %s: %s: %w", pos, name, err)
			}
			return out, nil
		}, nil
	default:
		return nil, notCompilable(pos(t), "cannot compile term %s", t)
	}
}

// termSrc compiles a ground term into a slot source; the srcConst/srcSlot
// forms avoid a closure call for the common cases.
func termSrc(t pql.Term, env *analysis.Env, varSlot func(*pql.Var) (int, error)) (slotSrc, error) {
	switch t := t.(type) {
	case *pql.Const:
		return slotSrc{kind: srcConst, cval: t.Val}, nil
	case *pql.Var:
		if t.Wildcard() {
			return slotSrc{}, notCompilable(t.Pos, "wildcard in evaluated term")
		}
		slot, err := varSlot(t)
		if err != nil {
			return slotSrc{}, err
		}
		return slotSrc{kind: srcSlot, slot: slot}, nil
	default:
		fn, err := termFn(t, env, varSlot)
		if err != nil {
			return slotSrc{}, err
		}
		return slotSrc{kind: srcFn, fn: fn}, nil
	}
}

// compareFn compiles a comparison filter over two ground sides.
func compareFn(op pql.CmpOp, p pql.Pos, lf, rf slotFn) func(*slotRun) (bool, error) {
	return func(rn *slotRun) (bool, error) {
		l, err := lf(rn)
		if err != nil {
			return false, err
		}
		r, err := rf(rn)
		if err != nil {
			return false, err
		}
		switch op {
		case pql.CmpEq:
			return l.Equal(r), nil
		case pql.CmpNeq:
			return !l.Equal(r), nil
		}
		cmp := l.Compare(r)
		switch op {
		case pql.CmpLt:
			return cmp < 0, nil
		case pql.CmpLe:
			return cmp <= 0, nil
		case pql.CmpGt:
			return cmp > 0, nil
		case pql.CmpGe:
			return cmp >= 0, nil
		default:
			return false, fmt.Errorf("pql: %s: unknown comparison", p)
		}
	}
}

// slotCompiler tracks the static binding state while compiling one
// interpreter plan variant: which variables are bound, and at which slot.
type slotCompiler struct {
	env    *analysis.Env
	slotOf map[string]int
	n      int
}

func (sc *slotCompiler) bind(name string) int {
	if s, ok := sc.slotOf[name]; ok {
		return s
	}
	s := sc.n
	sc.n++
	sc.slotOf[name] = s
	return s
}

var errUnbound = errors.New("pql: unbound variable")

// boundSlot resolves a variable bound earlier in the variant. Unbound
// variables make the term non-ground: the caller falls back to the
// interpreter, whose runtime groundness checks route those cases
// identically.
func (sc *slotCompiler) boundSlot(v *pql.Var) (int, error) {
	if slot, ok := sc.slotOf[v.Name]; ok {
		return slot, nil
	}
	return 0, errUnbound
}

func (sc *slotCompiler) slotFn(t pql.Term) (slotFn, bool) {
	fn, err := termFn(t, sc.env, sc.boundSlot)
	return fn, err == nil
}

func (sc *slotCompiler) src(t pql.Term) (slotSrc, bool) {
	s, err := termSrc(t, sc.env, sc.boundSlot)
	return s, err == nil
}

// compileVariant compiles one plan variant into a slot program. ok=false
// means the variant has a shape the compiler doesn't support and must run
// interpretively.
func compileVariant(r *pql.Rule, v *planVariant, env *analysis.Env) (*slotVariant, bool) {
	sc := &slotCompiler{env: env, slotOf: map[string]int{}}
	sv := &slotVariant{}
	for si, st := range v.steps {
		switch st.kind {
		case stepPositive:
			s := slotStep{kind: stepPositive, pred: st.atom.Pred, pos: st.atom.Pos, isDelta: si == v.deltaStep}
			// Pass 1: build the lookup key from arguments ground *before*
			// this step (sc.slotOf is still the pre-step binding state).
			// The delta step scans its batch and never looks up.
			if !s.isDelta {
				for i, a := range st.atom.Args {
					if src, ok := sc.src(a); ok {
						s.lookupCols = append(s.lookupCols, i)
						s.lookupSrc = append(s.lookupSrc, src)
					}
				}
				s.colsKey = encodeCols(s.lookupCols)
			}
			// Pass 2: match actions in argument order, exactly as unify
			// walks them — a variable's first occurrence binds, a repeat
			// occurrence (even within this atom) compares.
			s.match = make([]slotMatch, len(st.atom.Args))
			for i, a := range st.atom.Args {
				switch a := a.(type) {
				case *pql.Var:
					if a.Wildcard() {
						s.match[i] = slotMatch{kind: matchSkip}
					} else if slot, ok := sc.slotOf[a.Name]; ok {
						s.match[i] = slotMatch{kind: matchSlot, slot: slot}
					} else {
						s.match[i] = slotMatch{kind: matchBind, slot: sc.bind(a.Name)}
					}
				case *pql.Const:
					s.match[i] = slotMatch{kind: matchConst, cval: a.Val}
				default:
					fn, ok := sc.slotFn(a)
					if !ok {
						return nil, false
					}
					s.match[i] = slotMatch{kind: matchFn, fn: fn}
				}
			}
			sv.steps = append(sv.steps, s)

		case stepNegated:
			s := slotStep{kind: stepNegated, pred: st.atom.Pred, pos: st.atom.Pos}
			for _, a := range st.atom.Args {
				src, ok := sc.src(a)
				if !ok {
					return nil, false
				}
				s.negSrc = append(s.negSrc, src)
			}
			sv.steps = append(sv.steps, s)

		case stepCompare:
			c := st.cmp
			// Static binder detection, mirroring joinFrom's dynamic checks
			// in the same order: boundness is static, so "unbound at this
			// step" is decidable at compile time.
			if c.Op == pql.CmpEq {
				if bs, ok := compileBinder(sc, c.L, c.R); ok {
					sv.steps = append(sv.steps, bs)
					continue
				}
				if bs, ok := compileBinder(sc, c.R, c.L); ok {
					sv.steps = append(sv.steps, bs)
					continue
				}
			}
			lf, ok := sc.slotFn(c.L)
			if !ok {
				return nil, false
			}
			rf, ok := sc.slotFn(c.R)
			if !ok {
				return nil, false
			}
			sv.steps = append(sv.steps, slotStep{kind: stepCompare, bindSlot: -1, cmpFn: compareFn(c.Op, c.Pos, lf, rf)})
		}
	}
	for _, a := range r.Head.Args {
		src, ok := sc.src(a)
		if !ok {
			return nil, false
		}
		sv.head = append(sv.head, src)
	}
	sv.nSlots = sc.n
	return sv, true
}

// compileBinder compiles `v = expr` when v is an unbound non-wildcard
// variable and expr is ground — the binder form of a comparison step.
func compileBinder(sc *slotCompiler, lhs, rhs pql.Term) (slotStep, bool) {
	v, ok := lhs.(*pql.Var)
	if !ok || v.Wildcard() {
		return slotStep{}, false
	}
	if _, bound := sc.slotOf[v.Name]; bound {
		return slotStep{}, false
	}
	fn, ok := sc.slotFn(rhs)
	if !ok {
		return slotStep{}, false
	}
	return slotStep{kind: stepCompare, bindSlot: sc.bind(v.Name), bindFn: fn}, true
}
