package eval

import (
	"ariadne/internal/pql"
	"ariadne/internal/pql/analysis"
)

// compileRule translates one rule into a slot program.
//
// Shape requirements (anything else is ErrNotCompilable):
//   - no aggregates in the head;
//   - every record-local EDB literal (superstep, value, evolution,
//     send/receive_message, prov_send, emitted tables, edge_value) is
//     located at the head's location variable;
//   - superstep positions use a single "current" variable, or — for value
//     literals — the predecessor variable introduced by an evolution
//     literal (satisfied from retention);
//   - remote access happens only through IDB predicates (database lookups)
//     or static edges, exactly the VC-compatible discipline of Def. 4.1.
//
// The body is scheduled greedily in compile order (bindable comparisons and
// ground negations first, then the cheapest positive literal), which fixes
// each step's access path. A global rule's driving literal is pulled to the
// front as the delta step; bindOrder then settles, in that runtime order,
// which occurrence of each variable binds its slot.
func compileRule(r *pql.Rule, q *analysis.Query) (*crule, error) {
	for _, a := range r.Head.Args {
		if containsAgg(a) {
			return nil, notCompilable(r.Pos, "aggregates require the interpretive evaluator")
		}
	}
	rc := &ruleCompiler{r: r, q: q, env: q.Env(), slotOf: map[string]int{}, bound: map[int]bool{}}
	return rc.compile()
}

type ruleCompiler struct {
	r   *pql.Rule
	q   *analysis.Query
	env *analysis.Env

	slotOf map[string]int
	nslots int
	bound  map[int]bool // compile-time bound slots, in schedule order

	anchorVar string // head location var ("" when head location is const)
	curSSVar  string // the current-superstep variable
	prevSSVar string // the evolution predecessor variable, if any

	steps []slotStep
	// Global rules: the delta step over the first scheduled IDB.
	drive     *slotStep
	drivePred string
}

func (rc *ruleCompiler) slot(name string) int {
	if s, ok := rc.slotOf[name]; ok {
		return s
	}
	s := rc.nslots
	rc.slotOf[name] = s
	rc.nslots++
	return s
}

func (rc *ruleCompiler) isBound(t pql.Term) bool {
	var vs []*pql.Var
	vs = pql.Vars(t, vs)
	for _, v := range vs {
		if v.Wildcard() {
			return false
		}
		if !rc.bound[rc.slot(v.Name)] {
			return false
		}
	}
	return true
}

// boundSlot resolves a variable read by a term: it must be bound by an
// earlier step.
func (rc *ruleCompiler) boundSlot(v *pql.Var) (int, error) {
	slot := rc.slot(v.Name)
	if !rc.bound[slot] {
		return 0, notCompilable(v.Pos, "unbound variable %s", v.Name)
	}
	return slot, nil
}

func (rc *ruleCompiler) term(t pql.Term) (slotFn, error) {
	return termFn(t, rc.env, rc.boundSlot)
}

func (rc *ruleCompiler) src(t pql.Term) (slotSrc, error) {
	return termSrc(t, rc.env, rc.boundSlot)
}

// isRecordLocalEDB reports whether pred is satisfiable from a RecordView.
func isRecordLocalEDB(q *analysis.Query, pred string) bool {
	switch pred {
	case "superstep", "value", "evolution", "send_message", "receive_message", "prov_send", "edge_value":
		return true
	}
	// Emitted analytic tables are extra EDBs.
	if _, ok := q.Env().ExtraEDBs[pred]; ok {
		return true
	}
	return false
}

func (rc *ruleCompiler) compile() (*crule, error) {
	r := rc.r

	// Identify the anchor (head location) and superstep variables.
	if v, ok := r.Head.Args[0].(*pql.Var); ok && !v.Wildcard() {
		rc.anchorVar = v.Name
	}
	hasRecordLocal := false
	hasStatic := false
	hasIDB := false
	for _, lit := range r.Body {
		pl, ok := lit.(*pql.PredLit)
		if !ok {
			continue
		}
		_, isIDB := rc.q.IDBs[pl.Atom.Pred]
		switch {
		case pl.Atom.Pred == "edge":
			hasStatic = true
		case isRecordLocalEDB(rc.q, pl.Atom.Pred):
			hasRecordLocal = true
			if pl.Negated && pl.Atom.Pred != "receive_message" && pl.Atom.Pred != "send_message" {
				return nil, notCompilable(pl.Atom.Pos, "negated %s", pl.Atom.Pred)
			}
			// Record-local literals must sit at the anchor.
			if v, ok := pl.Atom.Args[0].(*pql.Var); !ok || v.Name != rc.anchorVar {
				return nil, notCompilable(pl.Atom.Pos, "record predicate %s must be located at the head's location variable", pl.Atom.Pred)
			}
		case isIDB:
			hasIDB = true
		default:
			return nil, notCompilable(pl.Atom.Pos, "EDB %s is not record-local", pl.Atom.Pred)
		}
	}
	// Discover the evolution variables first (they type the ss positions).
	for _, lit := range r.Body {
		pl, ok := lit.(*pql.PredLit)
		if !ok || pl.Negated || pl.Atom.Pred != "evolution" {
			continue
		}
		if rc.prevSSVar != "" {
			return nil, notCompilable(pl.Atom.Pos, "multiple evolution literals")
		}
		j, ok1 := asVar(pl.Atom.Args[1])
		i, ok2 := asVar(pl.Atom.Args[2])
		if !ok1 || !ok2 {
			return nil, notCompilable(pl.Atom.Pos, "evolution needs variable superstep arguments")
		}
		rc.prevSSVar, rc.curSSVar = j, i
	}

	kind := RuleRecord
	if !hasRecordLocal {
		switch {
		case hasIDB:
			kind = RuleGlobal
		case hasStatic, len(r.Body) == 0:
			kind = RuleStatic // static edges only, or a fact rule
		default:
			kind = RuleGlobal
		}
	}

	// Anchor step: bind the location.
	if kind == RuleRecord && rc.anchorVar != "" {
		locSlot := rc.slot(rc.anchorVar)
		rc.steps = append(rc.steps, slotStep{kind: stepAnchor, match: []slotMatch{{kind: matchBind, slot: locSlot}}})
		rc.bound[locSlot] = true
	}

	// Greedy scheduling, mirroring the interpretive planner.
	remaining := append([]pql.Literal(nil), r.Body...)
	for len(remaining) > 0 {
		progressed := false
		// 1. Bindable comparisons and ground negations first.
		for i := 0; i < len(remaining); i++ {
			switch lit := remaining[i].(type) {
			case *pql.CmpLit:
				st, ok, err := rc.compileCmp(lit)
				if err != nil {
					return nil, err
				}
				if !ok {
					continue
				}
				rc.steps = append(rc.steps, st)
			case *pql.PredLit:
				if !lit.Negated || !rc.ground(lit.Atom.Args) {
					continue
				}
				st, err := rc.compileNegated(lit.Atom)
				if err != nil {
					return nil, err
				}
				rc.steps = append(rc.steps, st)
			default:
				continue
			}
			remaining = append(remaining[:i], remaining[i+1:]...)
			i--
			progressed = true
		}
		// 2. Then the best positive literal: cheap record-locals before
		// enumerators before IDB lookups.
		bestIdx, bestCost := -1, 1<<30
		for i, lit := range remaining {
			pl, ok := lit.(*pql.PredLit)
			if !ok || pl.Negated {
				continue
			}
			cost := rc.literalCost(pl.Atom, kind)
			if cost < bestCost {
				bestIdx, bestCost = i, cost
			}
		}
		if bestIdx >= 0 {
			pl := remaining[bestIdx].(*pql.PredLit)
			_, isIDB := rc.q.IDBs[pl.Atom.Pred]
			if kind == RuleGlobal && rc.drive == nil && isIDB {
				// The first IDB drives the rule semi-naively.
				if err := rc.compileDrive(pl.Atom); err != nil {
					return nil, err
				}
			} else {
				st, err := rc.compilePositive(pl.Atom, kind)
				if err != nil {
					return nil, err
				}
				rc.steps = append(rc.steps, st)
			}
			remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
			progressed = true
		}
		if !progressed {
			return nil, notCompilable(r.Pos, "cannot schedule rule body for compilation")
		}
	}

	if kind == RuleGlobal && rc.drive == nil {
		return nil, notCompilable(r.Pos, "global rule without an IDB driver")
	}

	cr := &crule{src: r, kind: kind, drivePred: rc.drivePred}
	for _, a := range r.Head.Args {
		s, err := rc.src(a)
		if err != nil {
			return nil, err
		}
		cr.prog.head = append(cr.prog.head, s)
	}
	// At runtime the delta scan runs first, ahead of any step scheduled
	// before the driver was chosen.
	if rc.drive != nil {
		cr.prog.steps = append(cr.prog.steps, *rc.drive)
	}
	cr.prog.steps = append(cr.prog.steps, rc.steps...)
	cr.prog.nSlots = rc.nslots
	bindOrder(cr.prog.steps, rc.nslots)
	return cr, nil
}

// ground reports whether every term is bound at this point of the
// schedule.
func (rc *ruleCompiler) ground(ts []pql.Term) bool {
	for _, t := range ts {
		if !rc.isBound(t) {
			return false
		}
	}
	return true
}

// bindOrder settles variable matches in runtime step order: a variable's
// first occurrence binds its slot, later occurrences compare against it,
// and a binder comparison whose variable is already bound becomes a check.
// The scheduler emits every variable match as a tentative bind because a
// global rule's delta step runs ahead of steps scheduled before it.
func bindOrder(steps []slotStep, nSlots int) {
	bound := make([]bool, nSlots)
	for i := range steps {
		st := &steps[i]
		if st.kind == stepCompare {
			if st.bindSlot >= 0 {
				st.bindCheck = bound[st.bindSlot]
				bound[st.bindSlot] = true
			}
			continue
		}
		for j := range st.match {
			m := &st.match[j]
			if m.kind != matchBind && m.kind != matchSlot {
				continue
			}
			if bound[m.slot] {
				m.kind = matchSlot
			} else {
				m.kind = matchBind
				bound[m.slot] = true
			}
		}
	}
}

// literalCost orders positive literals for scheduling: lower is earlier.
func (rc *ruleCompiler) literalCost(a *pql.Atom, kind RuleKind) int {
	if _, isIDB := rc.q.IDBs[a.Pred]; isIDB {
		if kind == RuleGlobal {
			return 50 // the driving scan
		}
		return 100
	}
	switch a.Pred {
	case "superstep", "prov_send", "evolution":
		return 1
	case "value":
		return 2
	case "receive_message", "send_message":
		return 10
	case "edge":
		if rc.isBound(a.Args[0]) && rc.isBound(a.Args[1]) {
			return 5 // membership test
		}
		return 20
	case "edge_value":
		if rc.isBound(a.Args[1]) {
			return 6
		}
		return 20
	default: // emitted tables
		return 10
	}
}

func asVar(t pql.Term) (string, bool) {
	v, ok := t.(*pql.Var)
	if !ok || v.Wildcard() {
		return "", false
	}
	return v.Name, true
}

// matcher compiles one atom argument into a match action on a produced
// value. Variables get a tentative bind (see bindOrder) and count as bound
// for the rest of the schedule.
func (rc *ruleCompiler) matcher(t pql.Term) (slotMatch, error) {
	switch t := t.(type) {
	case *pql.Var:
		if t.Wildcard() {
			return slotMatch{kind: matchSkip}, nil
		}
		slot := rc.slot(t.Name)
		rc.bound[slot] = true
		return slotMatch{kind: matchBind, slot: slot}, nil
	case *pql.Const:
		return slotMatch{kind: matchConst, cval: t.Val}, nil
	default:
		if !rc.isBound(t) {
			return slotMatch{}, notCompilable(rc.r.Pos, "argument expression %s has unbound variables", t)
		}
		fn, err := rc.term(t)
		if err != nil {
			return slotMatch{}, err
		}
		return slotMatch{kind: matchFn, fn: fn}, nil
	}
}

func (rc *ruleCompiler) matchers(ts []pql.Term) ([]slotMatch, error) {
	out := make([]slotMatch, len(ts))
	for i, t := range ts {
		m, err := rc.matcher(t)
		if err != nil {
			return nil, err
		}
		out[i] = m
	}
	return out, nil
}

// compileDrive compiles a global rule's driving IDB literal as the delta
// step. It runs before every other step, so an argument expression may
// only read variables bound by earlier arguments of the same literal.
func (rc *ruleCompiler) compileDrive(a *pql.Atom) error {
	local := map[string]bool{}
	st := slotStep{kind: stepPositive, pred: a.Pred, pos: a.Pos, isDelta: true}
	for _, arg := range a.Args {
		if _, simple := arg.(*pql.Var); !simple {
			var vs []*pql.Var
			for _, v := range pql.Vars(arg, vs) {
				if !local[v.Name] {
					return notCompilable(a.Pos, "driving literal argument %s reads %s before the scan binds it", arg, v.Name)
				}
			}
		}
		m, err := rc.matcher(arg)
		if err != nil {
			return err
		}
		if v, ok := asVar(arg); ok {
			local[v] = true
		}
		st.match = append(st.match, m)
	}
	rc.drive = &st
	rc.drivePred = a.Pred
	return nil
}

// compileCmp compiles a comparison when its variables are bound (or it is a
// binder). ok=false means "not schedulable yet".
func (rc *ruleCompiler) compileCmp(c *pql.CmpLit) (slotStep, bool, error) {
	lb, rb := rc.isBound(c.L), rc.isBound(c.R)
	// Binder: fresh var = ground expr.
	if c.Op == pql.CmpEq {
		if st, ok, err := rc.compileBinder(c.L, c.R, rb); ok || err != nil {
			return st, ok, err
		}
		if st, ok, err := rc.compileBinder(c.R, c.L, lb); ok || err != nil {
			return st, ok, err
		}
	}
	if !lb || !rb {
		return slotStep{}, false, nil
	}
	lf, err := rc.term(c.L)
	if err != nil {
		return slotStep{}, false, err
	}
	rf, err := rc.term(c.R)
	if err != nil {
		return slotStep{}, false, err
	}
	return slotStep{kind: stepCompare, bindSlot: -1, cmpFn: compareFn(c.Op, c.Pos, lf, rf)}, true, nil
}

// compileBinder compiles `v = expr` when v is an unbound variable and expr
// is ground.
func (rc *ruleCompiler) compileBinder(lhs, rhs pql.Term, rhsBound bool) (slotStep, bool, error) {
	v, ok := asVar(lhs)
	if !ok || rc.bound[rc.slot(v)] || !rhsBound {
		return slotStep{}, false, nil
	}
	fn, err := rc.term(rhs)
	if err != nil {
		return slotStep{}, false, err
	}
	slot := rc.slot(v)
	rc.bound[slot] = true
	return slotStep{kind: stepCompare, bindSlot: slot, bindFn: fn}, true, nil
}

// compilePositive compiles one positive relational literal into a step.
func (rc *ruleCompiler) compilePositive(a *pql.Atom, kind RuleKind) (slotStep, error) {
	if _, isIDB := rc.q.IDBs[a.Pred]; isIDB {
		return rc.compileIDBLookup(a)
	}
	st := slotStep{pred: a.Pred, pos: a.Pos}
	var err error
	switch a.Pred {
	case "superstep":
		st.kind = stepSuperstep
		st.match, err = rc.withSS(nil, a.Args[1])
	case "value":
		// value(X, D, SS) where SS is the current or the predecessor
		// superstep (satisfied from retention).
		st.kind = stepValue
		if v, ok := asVar(a.Args[2]); ok && rc.prevSSVar != "" && v == rc.prevSSVar {
			st.kind = stepPrevValue
			st.match, err = rc.matchers(a.Args[1:3])
		} else if st.match, err = rc.matchers(a.Args[1:2]); err == nil {
			st.match, err = rc.withSS(st.match, a.Args[2])
		}
	case "evolution":
		st.kind = stepEvolution
		st.match, err = rc.matchers(a.Args[1:3])
	case "receive_message", "send_message":
		st.kind, st.sends = stepMessages, a.Pred == "send_message"
		if st.match, err = rc.matchers(a.Args[1:3]); err == nil {
			st.match, err = rc.withSS(st.match, a.Args[3])
		}
	case "prov_send":
		st.kind = stepProvSend
		st.match, err = rc.withSS(nil, a.Args[1])
	case "edge":
		return rc.compileEdge(a, kind)
	case "edge_value":
		return rc.compileEdgeValue(a)
	default: // emitted analytic table
		return rc.compileEmitted(a)
	}
	return st, err
}

// withSS appends the match for the superstep argument of a record-local
// literal: it must be the current superstep variable (or a constant or
// bound term).
func (rc *ruleCompiler) withSS(ms []slotMatch, t pql.Term) ([]slotMatch, error) {
	if v, ok := asVar(t); ok {
		if rc.prevSSVar != "" && v == rc.prevSSVar {
			return nil, notCompilable(rc.r.Pos, "only value literals may reference the evolution predecessor superstep")
		}
		if rc.curSSVar == "" {
			rc.curSSVar = v
		}
		if v != rc.curSSVar && !rc.bound[rc.slot(v)] {
			return nil, notCompilable(rc.r.Pos, "superstep variable %s does not match the rule's current superstep", v)
		}
	}
	m, err := rc.matcher(t)
	if err != nil {
		return nil, err
	}
	return append(ms, m), nil
}

// compileEmitted compiles an emitted analytic table literal, laid out
// table(X, payload..., I). A bound first payload argument (e.g. the
// neighbor in Query 7) probes the per-record index instead of scanning.
func (rc *ruleCompiler) compileEmitted(a *pql.Atom) (slotStep, error) {
	arity, _ := rc.env.EDBArity(a.Pred)
	if len(a.Args) != arity {
		return slotStep{}, notCompilable(a.Pos, "emitted table %s arity mismatch", a.Pred)
	}
	st := slotStep{kind: stepEmitted, pred: a.Pred, pos: a.Pos}
	if len(a.Args) > 3 && rc.isBound(a.Args[1]) {
		p, err := rc.src(a.Args[1])
		if err != nil {
			return slotStep{}, err
		}
		st.kind, st.probe = stepEmittedKey, []slotSrc{p}
	}
	var err error
	if st.match, err = rc.matchers(a.Args[1 : len(a.Args)-1]); err != nil {
		return slotStep{}, err
	}
	st.match, err = rc.withSS(st.match, a.Args[len(a.Args)-1])
	return st, err
}

// compileEdge compiles the static edge(A, B) literal: membership test,
// out-neighbor enumeration, in-neighbor enumeration, or (for static rules)
// a full edge scan.
func (rc *ruleCompiler) compileEdge(a *pql.Atom, kind RuleKind) (slotStep, error) {
	st := slotStep{pred: a.Pred, pos: a.Pos}
	aBound, bBound := rc.isBound(a.Args[0]), rc.isBound(a.Args[1])
	var probe []pql.Term
	var err error
	switch {
	case aBound && bBound:
		st.kind, probe = stepEdgeMember, a.Args[:2]
	case aBound:
		st.kind, probe = stepEdgeOut, a.Args[:1]
		st.match, err = rc.matchers(a.Args[1:2])
	case bBound:
		st.kind, probe = stepEdgeIn, a.Args[1:2]
		st.match, err = rc.matchers(a.Args[:1])
	default:
		if kind != RuleStatic {
			return slotStep{}, notCompilable(a.Pos, "unanchored edge scan outside a static rule")
		}
		st.kind = stepEdgeAll
		st.match, err = rc.matchers(a.Args[:2])
	}
	if err != nil {
		return slotStep{}, err
	}
	for _, t := range probe {
		p, err := rc.src(t)
		if err != nil {
			return slotStep{}, err
		}
		st.probe = append(st.probe, p)
	}
	return st, nil
}

// compileEdgeValue compiles edge_value(X, Y, W, SS): X is the anchor; the
// superstep position matches the feeder convention (static weights, I=0),
// so it accepts wildcards, the constant 0, or binds a fresh var to 0.
func (rc *ruleCompiler) compileEdgeValue(a *pql.Atom) (slotStep, error) {
	st := slotStep{kind: stepEdgeValue, pred: a.Pred, pos: a.Pos}
	yBound := rc.isBound(a.Args[1])
	var p slotSrc
	var err error
	if yBound {
		if p, err = rc.src(a.Args[1]); err != nil {
			return slotStep{}, err
		}
	}
	ws, err := rc.matchers(a.Args[2:4])
	if err != nil {
		return slotStep{}, err
	}
	if yBound {
		st.kind, st.probe, st.match = stepEdgeValueAt, []slotSrc{p}, ws
		return st, nil
	}
	my, err := rc.matcher(a.Args[1])
	if err != nil {
		return slotStep{}, err
	}
	st.match = append([]slotMatch{my}, ws...)
	return st, nil
}

// compileIDBLookup compiles a positive IDB literal into an indexed database
// lookup keyed by the argument positions bound before the step. The index
// guarantees the key columns, so they need no match action.
func (rc *ruleCompiler) compileIDBLookup(a *pql.Atom) (slotStep, error) {
	if len(a.Args) != rc.q.IDBs[a.Pred] {
		return slotStep{}, notCompilable(a.Pos, "IDB %s arity mismatch", a.Pred)
	}
	st := slotStep{kind: stepPositive, pred: a.Pred, pos: a.Pos, match: make([]slotMatch, len(a.Args))}
	key := make([]bool, len(a.Args))
	for i, arg := range a.Args {
		if !rc.isBound(arg) {
			continue
		}
		s, err := rc.src(arg)
		if err != nil {
			return slotStep{}, err
		}
		key[i] = true
		st.lookupCols = append(st.lookupCols, i)
		st.lookupSrc = append(st.lookupSrc, s)
	}
	st.colsKey = encodeCols(st.lookupCols)
	for i, arg := range a.Args {
		if key[i] {
			continue
		}
		m, err := rc.matcher(arg)
		if err != nil {
			return slotStep{}, err
		}
		st.match[i] = m
	}
	return st, nil
}

// compileNegated compiles !p(args...) with ground arguments: an IDB (or
// record-local message) membership test.
func (rc *ruleCompiler) compileNegated(a *pql.Atom) (slotStep, error) {
	st := slotStep{kind: stepNegated, pred: a.Pred, pos: a.Pos}
	args := a.Args
	if _, isIDB := rc.q.IDBs[a.Pred]; !isIDB {
		switch a.Pred {
		case "receive_message", "send_message":
			st.kind, st.sends, args = stepNegMessages, a.Pred == "send_message", a.Args[1:4]
		default:
			return slotStep{}, notCompilable(a.Pos, "negated %s is not compilable", a.Pred)
		}
	}
	for _, arg := range args {
		s, err := rc.src(arg)
		if err != nil {
			return slotStep{}, err
		}
		if st.kind == stepNegated {
			st.negSrc = append(st.negSrc, s)
		} else {
			st.probe = append(st.probe, s)
		}
	}
	return st, nil
}
