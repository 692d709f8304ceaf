package engine

import (
	"fmt"
	"math"
	"strings"

	"sqlshare/internal/sqlparser"
	"sqlshare/internal/sqltypes"
	"sqlshare/internal/storage"
)

// exprFn is a compiled scalar expression, evaluated against an environment.
type exprFn func(ctx *ExecContext, ev *Env) (sqltypes.Value, error)

// scope is the compile-time mirror of the Env chain.
type scope struct {
	cols  []ColMeta
	outer *scope
}

func (s *scope) resolve(table, name string) (depth, idx int, typ sqltypes.Type, err error) {
	d := 0
	for f := s; f != nil; f = f.outer {
		found := -1
		for i, c := range f.cols {
			if !strings.EqualFold(c.Name, name) {
				continue
			}
			if table != "" && !strings.EqualFold(c.Binding, table) {
				continue
			}
			if found >= 0 {
				return 0, 0, 0, fmt.Errorf("engine: ambiguous column reference %q", refString(table, name))
			}
			found = i
		}
		if found >= 0 {
			return d, found, f.cols[found].Type, nil
		}
		d++
	}
	return 0, 0, 0, fmt.Errorf("engine: unknown column %q", refString(table, name))
}

func refString(table, name string) string {
	if table != "" {
		return table + "." + name
	}
	return name
}

func envAt(ev *Env, depth int) *Env {
	for depth > 0 && ev != nil {
		ev = ev.outer
		depth--
	}
	return ev
}

// compileExpr compiles e against sc. Subplans created for subqueries are
// appended to b.pendingSubplans so the builder can attach them to the
// owning operator for plan accounting.
func (b *builder) compileExpr(e sqlparser.Expr, sc *scope) (exprFn, sqltypes.Type, error) {
	switch n := e.(type) {
	case *sqlparser.Literal:
		v := n.Val
		t := v.Type()
		return func(*ExecContext, *Env) (sqltypes.Value, error) { return v, nil }, t, nil

	case *sqlparser.ColumnRef:
		depth, idx, typ, err := sc.resolve(n.Table, n.Name)
		if err != nil {
			return nil, 0, err
		}
		if depth > 0 {
			b.sawCorrelation = true
		}
		b.noteColumnRef(sc, depth, idx)
		return func(_ *ExecContext, ev *Env) (sqltypes.Value, error) {
			fr := envAt(ev, depth)
			if fr == nil || idx >= len(fr.row) {
				return sqltypes.NullValue(), nil
			}
			return fr.row[idx], nil
		}, typ, nil

	case *sqlparser.Unary:
		xf, xt, err := b.compileExpr(n.X, sc)
		if err != nil {
			return nil, 0, err
		}
		switch n.Op {
		case "-":
			return func(ctx *ExecContext, ev *Env) (sqltypes.Value, error) {
				v, err := xf(ctx, ev)
				if err != nil || v.IsNull() {
					return sqltypes.TypedNull(xt), err
				}
				if v.Type() == sqltypes.Int {
					return sqltypes.NewInt(-v.Int()), nil
				}
				return sqltypes.NewFloat(-v.Float()), nil
			}, xt, nil
		case "NOT":
			return func(ctx *ExecContext, ev *Env) (sqltypes.Value, error) {
				v, err := xf(ctx, ev)
				if err != nil {
					return v, err
				}
				return tristateValue(truth(v).Not()), nil
			}, sqltypes.Bool, nil
		default: // unary +
			return xf, xt, nil
		}

	case *sqlparser.Binary:
		return b.compileBinary(n, sc)

	case *sqlparser.CaseExpr:
		b.noteExprOp("case")
		return b.compileCase(n, sc)

	case *sqlparser.CastExpr:
		b.noteExprOp("cast")
		xf, _, err := b.compileExpr(n.X, sc)
		if err != nil {
			return nil, 0, err
		}
		to := n.Type
		return func(ctx *ExecContext, ev *Env) (sqltypes.Value, error) {
			v, err := xf(ctx, ev)
			if err != nil {
				return v, err
			}
			return sqltypes.Cast(v, to)
		}, to, nil

	case *sqlparser.IsNullExpr:
		xf, _, err := b.compileExpr(n.X, sc)
		if err != nil {
			return nil, 0, err
		}
		not := n.Not
		return func(ctx *ExecContext, ev *Env) (sqltypes.Value, error) {
			v, err := xf(ctx, ev)
			if err != nil {
				return v, err
			}
			return sqltypes.NewBool(v.IsNull() != not), nil
		}, sqltypes.Bool, nil

	case *sqlparser.BetweenExpr:
		xf, _, err := b.compileExpr(n.X, sc)
		if err != nil {
			return nil, 0, err
		}
		lof, _, err := b.compileExpr(n.Lo, sc)
		if err != nil {
			return nil, 0, err
		}
		hif, _, err := b.compileExpr(n.Hi, sc)
		if err != nil {
			return nil, 0, err
		}
		not := n.Not
		return func(ctx *ExecContext, ev *Env) (sqltypes.Value, error) {
			x, err := xf(ctx, ev)
			if err != nil {
				return x, err
			}
			lo, err := lof(ctx, ev)
			if err != nil {
				return lo, err
			}
			hi, err := hif(ctx, ev)
			if err != nil {
				return hi, err
			}
			ge := compareTristate(x, lo, ">=")
			le := compareTristate(x, hi, "<=")
			t := ge.And(le)
			if not {
				t = t.Not()
			}
			return tristateValue(t), nil
		}, sqltypes.Bool, nil

	case *sqlparser.LikeExpr:
		b.noteExprOp("like")
		return b.compileLike(n, sc)

	case *sqlparser.InExpr:
		return b.compileIn(n, sc)

	case *sqlparser.ExistsExpr:
		sub, err := b.buildSubplan(n.Query, sc, true)
		if err != nil {
			return nil, 0, err
		}
		not := n.Not
		return func(ctx *ExecContext, ev *Env) (sqltypes.Value, error) {
			rel, err := sub.run(ctx, ev)
			if err != nil {
				return sqltypes.Value{}, err
			}
			return sqltypes.NewBool((rel.len() > 0) != not), nil
		}, sqltypes.Bool, nil

	case *sqlparser.SubqueryExpr:
		sub, err := b.buildSubplan(n.Query, sc, false)
		if err != nil {
			return nil, 0, err
		}
		var t sqltypes.Type = sqltypes.String
		if cols := sub.node.Props().Cols; len(cols) > 0 {
			t = cols[0].Type
		}
		return func(ctx *ExecContext, ev *Env) (sqltypes.Value, error) {
			rel, err := sub.run(ctx, ev)
			if err != nil {
				return sqltypes.Value{}, err
			}
			if rel.len() == 0 {
				return sqltypes.NullValue(), nil
			}
			c := rel.column(0)
			return c.value(0), nil
		}, t, nil

	case *sqlparser.FuncCall:
		if n.Over != nil {
			return nil, 0, fmt.Errorf("engine: window function %s not allowed here", n.Name)
		}
		if isAggregateName(n.Name) {
			return nil, 0, fmt.Errorf("engine: aggregate %s not allowed here", n.Name)
		}
		return b.compileScalarFunc(n, sc)
	}
	return nil, 0, fmt.Errorf("engine: unsupported expression %T", e)
}

func truth(v sqltypes.Value) sqltypes.Tristate {
	if v.IsNull() {
		return sqltypes.Unknown
	}
	switch v.Type() {
	case sqltypes.Bool:
		return sqltypes.TristateOf(v.Bool())
	case sqltypes.Int, sqltypes.Float:
		return sqltypes.TristateOf(v.Float() != 0)
	default:
		return sqltypes.Unknown
	}
}

func tristateValue(t sqltypes.Tristate) sqltypes.Value {
	switch t {
	case sqltypes.True:
		return sqltypes.NewBool(true)
	case sqltypes.False:
		return sqltypes.NewBool(false)
	default:
		return sqltypes.TypedNull(sqltypes.Bool)
	}
}

func compareTristate(a, bv sqltypes.Value, op string) sqltypes.Tristate {
	c, ok := sqltypes.Compare(a, bv)
	if !ok {
		return sqltypes.Unknown
	}
	switch op {
	case "=":
		return sqltypes.TristateOf(c == 0)
	case "<>":
		return sqltypes.TristateOf(c != 0)
	case "<":
		return sqltypes.TristateOf(c < 0)
	case "<=":
		return sqltypes.TristateOf(c <= 0)
	case ">":
		return sqltypes.TristateOf(c > 0)
	case ">=":
		return sqltypes.TristateOf(c >= 0)
	}
	return sqltypes.Unknown
}

func (b *builder) compileBinary(n *sqlparser.Binary, sc *scope) (exprFn, sqltypes.Type, error) {
	if name, ok := exprOpNames[n.Op]; ok {
		b.noteExprOp(name)
	}
	lf, lt, err := b.compileExpr(n.L, sc)
	if err != nil {
		return nil, 0, err
	}
	rf, rt, err := b.compileExpr(n.R, sc)
	if err != nil {
		return nil, 0, err
	}
	op := n.Op
	switch op {
	case "AND", "OR":
		return func(ctx *ExecContext, ev *Env) (sqltypes.Value, error) {
			lv, err := lf(ctx, ev)
			if err != nil {
				return lv, err
			}
			lt := truth(lv)
			// Short-circuit where three-valued logic allows it.
			if op == "AND" && lt == sqltypes.False {
				return tristateValue(sqltypes.False), nil
			}
			if op == "OR" && lt == sqltypes.True {
				return tristateValue(sqltypes.True), nil
			}
			rv, err := rf(ctx, ev)
			if err != nil {
				return rv, err
			}
			rt := truth(rv)
			if op == "AND" {
				return tristateValue(lt.And(rt)), nil
			}
			return tristateValue(lt.Or(rt)), nil
		}, sqltypes.Bool, nil

	case "=", "<>", "<", "<=", ">", ">=":
		return compareFn(lf, rf, op), sqltypes.Bool, nil

	case "||":
		return concatFn(lf, rf), sqltypes.String, nil

	case "+", "-", "*", "/", "%":
		// T-SQL: '+' concatenates when either operand is a string.
		if op == "+" && (lt == sqltypes.String || rt == sqltypes.String) {
			return concatFn(lf, rf), sqltypes.String, nil
		}
		outT := sqltypes.Float
		if lt == sqltypes.Int && rt == sqltypes.Int {
			outT = sqltypes.Int
		}
		return func(ctx *ExecContext, ev *Env) (sqltypes.Value, error) {
			lv, err := lf(ctx, ev)
			if err != nil {
				return lv, err
			}
			rv, err := rf(ctx, ev)
			if err != nil {
				return rv, err
			}
			if lv.IsNull() || rv.IsNull() {
				return sqltypes.TypedNull(outT), nil
			}
			// Runtime string operands (from relaxed-schema data) also
			// concatenate under '+'.
			if op == "+" && (lv.Type() == sqltypes.String || rv.Type() == sqltypes.String) {
				return sqltypes.NewString(lv.String() + rv.String()), nil
			}
			return arith(op, lv, rv)
		}, outT, nil
	}
	return nil, 0, fmt.Errorf("engine: unsupported operator %q", op)
}

// compareFn is the compiled form of `l op r` for the six comparison
// operators.
func compareFn(lf, rf exprFn, op string) exprFn {
	return func(ctx *ExecContext, ev *Env) (sqltypes.Value, error) {
		lv, err := lf(ctx, ev)
		if err != nil {
			return lv, err
		}
		rv, err := rf(ctx, ev)
		if err != nil {
			return rv, err
		}
		return tristateValue(compareTristate(lv, rv, op)), nil
	}
}

func concatFn(lf, rf exprFn) exprFn {
	return func(ctx *ExecContext, ev *Env) (sqltypes.Value, error) {
		lv, err := lf(ctx, ev)
		if err != nil {
			return lv, err
		}
		rv, err := rf(ctx, ev)
		if err != nil {
			return rv, err
		}
		if lv.IsNull() || rv.IsNull() {
			return sqltypes.TypedNull(sqltypes.String), nil
		}
		return sqltypes.NewString(lv.String() + rv.String()), nil
	}
}

func arith(op string, lv, rv sqltypes.Value) (sqltypes.Value, error) {
	bothInt := lv.Type() == sqltypes.Int && rv.Type() == sqltypes.Int
	if bothInt {
		a, c := lv.Int(), rv.Int()
		switch op {
		case "+":
			return sqltypes.NewInt(a + c), nil
		case "-":
			return sqltypes.NewInt(a - c), nil
		case "*":
			return sqltypes.NewInt(a * c), nil
		case "/":
			if c == 0 {
				return sqltypes.Value{}, fmt.Errorf("engine: division by zero")
			}
			return sqltypes.NewInt(a / c), nil // T-SQL integer division
		case "%":
			if c == 0 {
				return sqltypes.Value{}, fmt.Errorf("engine: modulo by zero")
			}
			return sqltypes.NewInt(a % c), nil
		}
	}
	a, aok := numericOf(lv)
	c, cok := numericOf(rv)
	if !aok || !cok {
		return sqltypes.TypedNull(sqltypes.Float), nil
	}
	switch op {
	case "+":
		return sqltypes.NewFloat(a + c), nil
	case "-":
		return sqltypes.NewFloat(a - c), nil
	case "*":
		return sqltypes.NewFloat(a * c), nil
	case "/":
		if c == 0 {
			return sqltypes.Value{}, fmt.Errorf("engine: division by zero")
		}
		return sqltypes.NewFloat(a / c), nil
	case "%":
		if c == 0 {
			return sqltypes.Value{}, fmt.Errorf("engine: modulo by zero")
		}
		return sqltypes.NewFloat(math.Mod(a, c)), nil
	}
	return sqltypes.Value{}, fmt.Errorf("engine: unsupported arithmetic %q", op)
}

// numericOf interprets a value numerically, coercing numeric-looking
// strings (relaxed-schema data is frequently string-typed numbers).
func numericOf(v sqltypes.Value) (float64, bool) {
	if v.IsNull() {
		return 0, false
	}
	if v.IsNumeric() {
		return v.Float(), true
	}
	if v.Type() == sqltypes.String {
		if f, err := sqltypes.Cast(v, sqltypes.Float); err == nil {
			return f.Float(), true
		}
	}
	return 0, false
}

func (b *builder) compileCase(n *sqlparser.CaseExpr, sc *scope) (exprFn, sqltypes.Type, error) {
	var operand exprFn
	if n.Operand != nil {
		var err error
		operand, _, err = b.compileExpr(n.Operand, sc)
		if err != nil {
			return nil, 0, err
		}
	}
	type arm struct{ cond, then exprFn }
	arms := make([]arm, len(n.Whens))
	outT := sqltypes.Null
	for i, w := range n.Whens {
		cf, _, err := b.compileExpr(w.Cond, sc)
		if err != nil {
			return nil, 0, err
		}
		tf, tt, err := b.compileExpr(w.Then, sc)
		if err != nil {
			return nil, 0, err
		}
		outT = sqltypes.Widen(outT, tt)
		arms[i] = arm{cond: cf, then: tf}
	}
	var elseFn exprFn
	if n.Else != nil {
		var err error
		var et sqltypes.Type
		elseFn, et, err = b.compileExpr(n.Else, sc)
		if err != nil {
			return nil, 0, err
		}
		outT = sqltypes.Widen(outT, et)
	}
	hasOperand := operand != nil
	return func(ctx *ExecContext, ev *Env) (sqltypes.Value, error) {
		var opv sqltypes.Value
		if hasOperand {
			var err error
			opv, err = operand(ctx, ev)
			if err != nil {
				return opv, err
			}
		}
		for _, a := range arms {
			cv, err := a.cond(ctx, ev)
			if err != nil {
				return cv, err
			}
			matched := false
			if hasOperand {
				matched = sqltypes.Equal(opv, cv) == sqltypes.True
			} else {
				matched = truth(cv) == sqltypes.True
			}
			if matched {
				return a.then(ctx, ev)
			}
		}
		if elseFn != nil {
			return elseFn(ctx, ev)
		}
		return sqltypes.TypedNull(outT), nil
	}, outT, nil
}

func (b *builder) compileLike(n *sqlparser.LikeExpr, sc *scope) (exprFn, sqltypes.Type, error) {
	xf, _, err := b.compileExpr(n.X, sc)
	if err != nil {
		return nil, 0, err
	}
	pf, _, err := b.compileExpr(n.Pattern, sc)
	if err != nil {
		return nil, 0, err
	}
	var ef exprFn
	if n.Escape != nil {
		ef, _, err = b.compileExpr(n.Escape, sc)
		if err != nil {
			return nil, 0, err
		}
	}
	not := n.Not
	return func(ctx *ExecContext, ev *Env) (sqltypes.Value, error) {
		xv, err := xf(ctx, ev)
		if err != nil {
			return xv, err
		}
		pv, err := pf(ctx, ev)
		if err != nil {
			return pv, err
		}
		if xv.IsNull() || pv.IsNull() {
			return tristateValue(sqltypes.Unknown), nil
		}
		esc := byte(0)
		if ef != nil {
			evv, err := ef(ctx, ev)
			if err != nil {
				return evv, err
			}
			if s := evv.String(); len(s) > 0 {
				esc = s[0]
			}
		}
		m := likeMatch(xv.String(), pv.String(), esc)
		t := sqltypes.TristateOf(m)
		if not {
			t = t.Not()
		}
		return tristateValue(t), nil
	}, sqltypes.Bool, nil
}

// likeMatch implements T-SQL LIKE: % (any run), _ (one char), [abc] and
// [a-z] character classes, [^...] negation, with an optional escape byte.
func likeMatch(s, pattern string, esc byte) bool {
	return likeRec(s, pattern, esc)
}

func likeRec(s, p string, esc byte) bool {
	for len(p) > 0 {
		c := p[0]
		switch {
		case esc != 0 && c == esc && len(p) > 1:
			if len(s) == 0 || s[0] != p[1] {
				return false
			}
			s, p = s[1:], p[2:]
		case c == '%':
			p = p[1:]
			if len(p) == 0 {
				return true
			}
			for i := 0; i <= len(s); i++ {
				if likeRec(s[i:], p, esc) {
					return true
				}
			}
			return false
		case c == '_':
			if len(s) == 0 {
				return false
			}
			s, p = s[1:], p[1:]
		case c == '[':
			end := strings.IndexByte(p, ']')
			if end < 0 {
				// Literal '[' when unterminated.
				if len(s) == 0 || s[0] != '[' {
					return false
				}
				s, p = s[1:], p[1:]
				continue
			}
			if len(s) == 0 {
				return false
			}
			if !classMatch(s[0], p[1:end]) {
				return false
			}
			s, p = s[1:], p[end+1:]
		default:
			if len(s) == 0 || !equalFoldByte(s[0], c) {
				return false
			}
			s, p = s[1:], p[1:]
		}
	}
	return len(s) == 0
}

func classMatch(c byte, class string) bool {
	if class == "" {
		return false
	}
	negate := false
	if class[0] == '^' {
		negate = true
		class = class[1:]
	}
	matched := false
	for i := 0; i < len(class); i++ {
		if i+2 < len(class) && class[i+1] == '-' {
			if lowerByte(class[i]) <= lowerByte(c) && lowerByte(c) <= lowerByte(class[i+2]) {
				matched = true
			}
			i += 2
			continue
		}
		if equalFoldByte(c, class[i]) {
			matched = true
		}
	}
	return matched != negate
}

func lowerByte(c byte) byte {
	if 'A' <= c && c <= 'Z' {
		return c + 'a' - 'A'
	}
	return c
}

// equalFoldByte compares bytes case-insensitively, matching SQL Server's
// default collation behaviour for LIKE.
func equalFoldByte(a, b byte) bool { return lowerByte(a) == lowerByte(b) }

func (b *builder) compileIn(n *sqlparser.InExpr, sc *scope) (exprFn, sqltypes.Type, error) {
	xf, _, err := b.compileExpr(n.X, sc)
	if err != nil {
		return nil, 0, err
	}
	not := n.Not
	if n.Query != nil {
		sub, err := b.buildSubplan(n.Query, sc, false)
		if err != nil {
			return nil, 0, err
		}
		return func(ctx *ExecContext, ev *Env) (sqltypes.Value, error) {
			xv, err := xf(ctx, ev)
			if err != nil {
				return xv, err
			}
			rel, err := sub.run(ctx, ev)
			if err != nil {
				return sqltypes.Value{}, err
			}
			t := inSet(xv, rel)
			if not {
				t = t.Not()
			}
			return tristateValue(t), nil
		}, sqltypes.Bool, nil
	}
	fns := make([]exprFn, len(n.List))
	for i, item := range n.List {
		fns[i], _, err = b.compileExpr(item, sc)
		if err != nil {
			return nil, 0, err
		}
	}
	return func(ctx *ExecContext, ev *Env) (sqltypes.Value, error) {
		xv, err := xf(ctx, ev)
		if err != nil {
			return xv, err
		}
		t := sqltypes.False
		for _, fn := range fns {
			v, err := fn(ctx, ev)
			if err != nil {
				return v, err
			}
			t = t.Or(sqltypes.Equal(xv, v))
			if t == sqltypes.True {
				break
			}
		}
		if not {
			t = t.Not()
		}
		return tristateValue(t), nil
	}, sqltypes.Bool, nil
}

func inSet(x sqltypes.Value, rel *relation) sqltypes.Tristate {
	if x.IsNull() {
		return sqltypes.Unknown
	}
	if len(rel.cols) == 0 {
		return sqltypes.False
	}
	sawNull := false
	c := rel.column(0)
	for i, n := 0, rel.len(); i < n; i++ {
		switch sqltypes.Equal(x, c.value(i)) {
		case sqltypes.True:
			return sqltypes.True
		case sqltypes.Unknown:
			sawNull = true
		}
	}
	if sawNull {
		return sqltypes.Unknown
	}
	return sqltypes.False
}

// splitConjuncts flattens nested ANDs into a clause list (§6.2: predicates
// are split into clauses for subset reasoning).
func splitConjuncts(e sqlparser.Expr) []sqlparser.Expr {
	if bin, ok := e.(*sqlparser.Binary); ok && bin.Op == "AND" {
		return append(splitConjuncts(bin.L), splitConjuncts(bin.R)...)
	}
	return []sqlparser.Expr{e}
}

// evalRows evaluates the select-list expressions for every input row,
// splitting the work into row-range morsels when the owning node n runs
// with parallelism. Every task writes disjoint row slots, so the output
// order is position-identical to serial evaluation.
func evalRows(ctx *ExecContext, n Node, rel *relation, fns []exprFn, outer *Env) ([]storage.Row, error) {
	rows := rel.len()
	out := make([]storage.Row, rows)
	if _, err := parallelRun(ctx, n, rows, morselCount(rows), func(t int) error {
		lo, hi := morselBounds(t, rows)
		ev := &Env{cols: rel.cols, outer: outer}
		rd := rel.reader()
		for i := lo; i < hi; i++ {
			ev.row = rd.row(i)
			row := make(storage.Row, len(fns))
			for j, fn := range fns {
				v, err := fn(ctx, ev)
				if err != nil {
					return err
				}
				row[j] = v
			}
			out[i] = row
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}
