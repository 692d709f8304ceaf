package engine

import (
	"math"
	"sync"

	"sqlshare/internal/sqlparser"
	"sqlshare/internal/sqltypes"
)

// A correlated EXISTS used to re-execute its whole inner plan for every
// outer row. When the inner query is a plain SELECT … FROM … WHERE whose
// only tie to the outer row is in WHERE conjuncts, the builder splits those
// conjuncts off: what is left is correlation-free, runs once, and is cached
// like any uncorrelated subplan; a semiProbeNode then evaluates the split
// conjuncts against the cached rows for each outer row and stops at the
// first match. Which path a query takes is decided by its shape at compile
// time; every other subquery keeps per-outer-row execution.

// semiProbeShape reports whether an EXISTS query can be answered by a
// semiProbeNode: no aggregate, GROUP BY, HAVING, DISTINCT, TOP, ORDER BY or
// window, and a select list that cannot fail or read the outer row (the
// probe never evaluates it) — `*`, literals and columns of the query's own
// FROM clause, whose columns local holds.
func semiProbeShape(sel *sqlparser.Select, local *scope) bool {
	if sel.Where == nil || sel.Distinct || sel.Top != nil ||
		len(sel.GroupBy) > 0 || sel.Having != nil || len(sel.OrderBy) > 0 {
		return false
	}
	for _, it := range sel.Items {
		switch e := it.Expr.(type) {
		case nil:
			if !it.Star || it.StarQualifier != "" {
				return false
			}
		case *sqlparser.Literal:
		case *sqlparser.ColumnRef:
			if _, _, _, err := local.resolve(e.Table, e.Name); err != nil {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// refSides reports whether e reads columns of local (the inner FROM clause)
// and whether it reads anything else — which, in a query that compiles, is
// a column of an outer row.
func refSides(e sqlparser.Expr, local *scope) (inner, outer bool) {
	walkColumnRefs(e, func(cr *sqlparser.ColumnRef) {
		if _, _, _, err := local.resolve(cr.Table, cr.Name); err == nil {
			inner = true
		} else {
			outer = true
		}
	})
	return inner, outer
}

// splitCorrelated separates the WHERE conjuncts that stay in the inner plan
// from those the probe evaluates per outer row: the ones that read an outer
// column, and — since a nested subquery's references cannot be resolved
// before it is built — every conjunct that holds a subquery.
func splitCorrelated(conjuncts []sqlparser.Expr, local *scope) (stay, probe []sqlparser.Expr) {
	for _, c := range conjuncts {
		if _, outer := refSides(c, local); outer || exprHasSubquery(c) {
			probe = append(probe, c)
		} else {
			stay = append(stay, c)
		}
	}
	return stay, probe
}

// buildSemiProbe puts a semiProbeNode over input, the correlation-free part
// of an EXISTS query (its FROM clause under the conjuncts that stayed).
func (b *builder) buildSemiProbe(input Node, sel *sqlparser.Select, conjuncts []sqlparser.Expr, outer *scope) (Node, error) {
	cols := input.Props().Cols
	sc := &scope{cols: cols, outer: outer}
	// The select list is not evaluated, but it still counts as referencing
	// its columns.
	for _, it := range sel.Items {
		if it.Star {
			for i := range cols {
				b.noteColumnRef(sc, 0, i)
			}
		} else if _, _, err := b.compileExpr(it.Expr, sc); err != nil {
			return nil, err
		}
	}
	p := &semiProbeNode{inner: &subplan{node: input}}
	local := &scope{cols: cols}
	var filters []string
	for _, c := range conjuncts {
		filters = append(filters, c.SQL())
		bin, ok := c.(*sqlparser.Binary)
		if !ok || (bin.Op != "=" && !isOrderingOp(bin.Op)) || exprHasSubquery(c) {
			fn, _, err := b.compileExpr(c, sc)
			if err != nil {
				return nil, err
			}
			p.conjs = append(p.conjs, fn)
			continue
		}
		// A comparison: compile its sides separately (compareFn over them is
		// what compileBinary builds) so that, when one side reads only the
		// inner row and the other only outer rows, a shortcut can evaluate
		// each on its own.
		lf, lt, err := b.compileExpr(bin.L, sc)
		if err != nil {
			return nil, err
		}
		rf, rt, err := b.compileExpr(bin.R, sc)
		if err != nil {
			return nil, err
		}
		p.conjs = append(p.conjs, compareFn(lf, rf, bin.Op))
		if comparableClass(lt) == 0 || comparableClass(lt) != comparableClass(rt) {
			continue
		}
		lIn, lOut := refSides(bin.L, local)
		rIn, rOut := refSides(bin.R, local)
		innerFn, outerFn, op := lf, rf, bin.Op
		switch {
		case !lOut && !rIn:
		case !rOut && !lIn:
			innerFn, outerFn, op = rf, lf, flipCmp(bin.Op)
		default:
			continue
		}
		switch {
		case op == "=":
			if p.eq == nil {
				p.eq = &eqProbe{}
			}
			p.eq.innerFns = append(p.eq.innerFns, innerFn)
			p.eq.outerFns = append(p.eq.outerFns, outerFn)
		case len(conjuncts) == 1:
			p.extreme = &extremeProbe{innerFn: innerFn, outerFn: outerFn, op: op}
		}
	}
	p.props = Props{PhysicalOp: "Nested Loops", LogicalOp: "Left Semi Join", Cols: cols, Filters: filters}
	p.children = append([]Node{input}, b.drainSubs()...)
	return p, nil
}

func isOrderingOp(op string) bool {
	return op == "<" || op == "<=" || op == ">" || op == ">="
}

// comparableClass groups the static types whose values order the same way
// under sqltypes.Compare as they do among themselves: numbers with numbers,
// strings with strings, datetimes with datetimes (0 = none). A string
// against a number compares by coercion, which follows neither side's own
// order.
func comparableClass(t sqltypes.Type) int {
	switch t {
	case sqltypes.Int, sqltypes.Float:
		return 1
	case sqltypes.String:
		return 2
	case sqltypes.DateTime:
		return 3
	}
	return 0
}

// semiProbeNode answers a correlated EXISTS ("Nested Loops", Left Semi
// Join). children[0] is the correlation-free inner plan: it executes once
// and its rows stay cached (and memory-charged) through inner, exactly as
// an uncorrelated subplan's do. Each exec is one outer row's probe: conjs —
// the correlated WHERE conjuncts, in order — run against the cached rows
// until one row passes them all, and the output is that row or nothing.
type semiProbeNode struct {
	base
	inner *subplan
	conjs []exprFn
	// extreme is set when conjs is a single <, <=, >, >= between an
	// inner-only and an outer-only expression of one comparable class.
	extreme *extremeProbe
	// eq holds the conjuncts of the form inner = outer (same condition on
	// the sides): the probe then reads only the cached rows whose inner keys
	// equal the outer values, through a hash table built once.
	eq *eqProbe
}

func (p *semiProbeNode) exec(ctx *ExecContext, env *Env) (*relation, error) {
	in, err := p.inner.run(ctx, env)
	if err != nil {
		return nil, err
	}
	out := &relation{cols: p.props.Cols}
	ev := &Env{cols: in.cols, outer: env}
	if x := p.extreme; x != nil {
		at, answered, err := x.probe(ctx, in, ev)
		if err != nil {
			return nil, err
		}
		if answered {
			if at >= 0 {
				out.rows = in.rows[at : at+1 : at+1]
			}
			return out, nil
		}
	}
	// The candidates: the rows of the matching key's chain in ascending row
	// order, or — no equality conjunct, or one the table cannot decide —
	// every cached row.
	next := func(i int) int { return i + 1 }
	at, end := 0, len(in.rows)
	if q := p.eq; q != nil {
		table, first, ok, err := q.probe(ctx, p, in, ev)
		if err != nil {
			return nil, err
		}
		if ok {
			at, end = first, -1
			next = func(i int) int { return int(table.next[i]) }
		}
	}
	for seen := 0; at != end; at, seen = next(at), seen+1 {
		// One probe is O(candidates) with no morsel boundaries: recheck
		// cancellation as nestedLoopsNode does.
		if seen%1024 == 1023 {
			if err := ctx.canceled(); err != nil {
				return nil, err
			}
		}
		ev.row = in.rows[at]
		match := true
		for _, fn := range p.conjs {
			v, err := fn(ctx, ev)
			if err != nil {
				return nil, err
			}
			if truth(v) != sqltypes.True {
				match = false
				break
			}
		}
		if match {
			out.rows = in.rows[at : at+1 : at+1]
			break
		}
	}
	return out, nil
}

// eqProbe is the equality shortcut: the cached inner rows hashed on the
// inner sides of the `inner = outer` conjuncts (keys.go), built lazily under
// a mutex on the first probe. Every conjunct still runs on the candidates, so
// the table only has to return a superset of the rows `=` accepts — which it
// does when the inner keys are typed columns without NaN and the outer values
// are of the same type classes; it stands down to the loop for a plan whose
// inner keys are not, and per probe for an outer value of another class or a
// NaN (both of which `=` may match by coercion where keys never do).
type eqProbe struct {
	innerFns, outerFns []exprFn
	mu                 sync.Mutex
	built              bool
	table              *keyTable // nil once built: stand down
}

// probe answers one outer row: the first candidate row (-1 for none; the
// rest follow through table.next). ok is false when the caller has to run
// the conjuncts over every row.
func (q *eqProbe) probe(ctx *ExecContext, n Node, in *relation, ev *Env) (table *keyTable, first int, ok bool, err error) {
	q.mu.Lock()
	if !q.built {
		var keys *keySet
		if keys, err = buildKeys(ctx, n, in, ev.outer, q.innerFns, nil); err == nil {
			q.built = true
			if keys.ordered() {
				q.table = newRowTable(keys, len(in.rows))
			}
		}
	}
	table = q.table
	q.mu.Unlock()
	if err != nil || table == nil {
		return nil, 0, false, err
	}
	vals := make([]sqltypes.Value, len(q.outerFns))
	for j, fn := range q.outerFns {
		v, err := fn(ctx, ev)
		if err != nil {
			return nil, 0, false, err
		}
		if v.IsNull() {
			return table, -1, true, nil // the comparison is UNKNOWN for every row
		}
		if v.Type() == sqltypes.Float && math.IsNaN(v.Float()) {
			return nil, 0, false, nil
		}
		vals[j] = v
	}
	row, ok := table.probe(vals, make([]probeKey, len(vals)))
	return table, int(row), ok, nil
}

// extremeProbe is the single-comparison shortcut: `inner op outer` holds for
// some inner row exactly when it holds for the row whose inner value is the
// largest (>, >=) or smallest (<, <=) non-NULL one, so each probe is one
// comparison against that cached extreme.
type extremeProbe struct {
	innerFn, outerFn exprFn
	op               string // normalized to read: inner op outer
	mu               sync.Mutex
	found            *extremeValue // nil until the first probe computed it
}

// extremeValue is the extreme of the inner side over the cached rows. It is
// trusted only when every non-NULL inner value had the one runtime type typ
// (relaxed-schema expressions can produce values their static type did not
// promise) and none was NaN, which Compare reports equal to everything.
type extremeValue struct {
	ordered bool
	typ     sqltypes.Type
	row     int // index of the extreme row, -1 when no inner value is non-NULL
	val     sqltypes.Value
}

// probe answers one outer row: the index of a matching inner row or -1.
// answered is false when the shortcut does not apply to these values and
// the caller has to run the conjunct over the rows.
func (x *extremeProbe) probe(ctx *ExecContext, in *relation, ev *Env) (at int, answered bool, err error) {
	x.mu.Lock()
	if x.found == nil {
		x.found, err = x.scan(ctx, in, &Env{cols: in.cols, outer: ev.outer})
	}
	found := x.found
	x.mu.Unlock()
	if err != nil || !found.ordered {
		return -1, false, err
	}
	ov, err := x.outerFn(ctx, ev)
	if err != nil {
		return -1, false, err
	}
	if found.row < 0 || ov.IsNull() {
		return -1, true, nil // every comparison is UNKNOWN
	}
	if comparableClass(found.typ) == 1 {
		if !isOrderedNumber(ov) {
			return -1, false, nil
		}
	} else if ov.Type() != found.typ {
		return -1, false, nil
	}
	if compareTristate(found.val, ov, x.op) == sqltypes.True {
		return found.row, true, nil
	}
	return -1, true, nil
}

func (x *extremeProbe) scan(ctx *ExecContext, in *relation, ev *Env) (*extremeValue, error) {
	found := &extremeValue{ordered: true, row: -1}
	wantMax := x.op == ">" || x.op == ">="
	for i, r := range in.rows {
		ev.row = r
		v, err := x.innerFn(ctx, ev)
		if err != nil {
			return nil, err
		}
		if v.IsNull() {
			continue
		}
		if found.row < 0 {
			if comparableClass(v.Type()) == 0 || (v.Type() == sqltypes.Float && !isOrderedNumber(v)) {
				return &extremeValue{}, nil
			}
			found.typ, found.row, found.val = v.Type(), i, v
			continue
		}
		if v.Type() != found.typ || (v.Type() == sqltypes.Float && !isOrderedNumber(v)) {
			return &extremeValue{}, nil
		}
		if c, _ := sqltypes.Compare(v, found.val); (wantMax && c > 0) || (!wantMax && c < 0) {
			found.row, found.val = i, v
		}
	}
	return found, nil
}

// isOrderedNumber reports whether v is an Int or a Float other than NaN.
func isOrderedNumber(v sqltypes.Value) bool {
	switch v.Type() {
	case sqltypes.Int:
		return !v.IsNull()
	case sqltypes.Float:
		return !v.IsNull() && !math.IsNaN(v.Float())
	}
	return false
}
