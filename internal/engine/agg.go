package engine

import (
	"fmt"
	"math"

	"sqlshare/internal/sqlparser"
	"sqlshare/internal/sqltypes"
)

// aggSpec is one compiled aggregate call.
type aggSpec struct {
	fc       *sqlparser.FuncCall
	name     string
	distinct bool
	star     bool
	argFn    exprFn // nil for COUNT(*)
	outType  sqltypes.Type
	// argCol is the input column index when the argument is a plain
	// uncorrelated column reference (the vectorized fold reads the column
	// vector directly), -1 otherwise.
	argCol int
}

func aggOutType(name string, argT sqltypes.Type) sqltypes.Type {
	switch name {
	case "COUNT", "COUNT_BIG":
		return sqltypes.Int
	case "AVG", "STDEV", "STDEVP", "VAR", "VARP":
		return sqltypes.Float
	case "SUM":
		if argT == sqltypes.Int {
			return sqltypes.Int
		}
		return sqltypes.Float
	default: // MIN, MAX
		return argT
	}
}

func (b *builder) compileAggSpec(fc *sqlparser.FuncCall, sc *scope) (aggSpec, error) {
	spec := aggSpec{fc: fc, name: fc.Name, distinct: fc.Distinct, star: fc.Star, argCol: -1}
	if fc.Star {
		if fc.Name != "COUNT" && fc.Name != "COUNT_BIG" {
			return spec, fmt.Errorf("engine: %s(*) is not valid", fc.Name)
		}
		spec.outType = sqltypes.Int
		return spec, nil
	}
	if len(fc.Args) != 1 {
		return spec, fmt.Errorf("engine: aggregate %s takes one argument", fc.Name)
	}
	fn, t, err := b.compileExpr(fc.Args[0], sc)
	if err != nil {
		return spec, err
	}
	spec.argFn = fn
	spec.outType = aggOutType(fc.Name, t)
	if cr, ok := fc.Args[0].(*sqlparser.ColumnRef); ok {
		if depth, idx, _, err := sc.resolve(cr.Table, cr.Name); err == nil && depth == 0 {
			spec.argCol = idx
		}
	}
	return spec, nil
}

// foldAggregate reduces the argument values (in row order) to the aggregate
// result: NULLs are skipped and, for DISTINCT aggregates, every repeat of an
// already-seen value is too. Scalar aggregation evaluates the argument vector
// with morsel workers and folds it here; grouped aggregation folds row by row
// (groupFold) — values reach an accumulator in the same row order either way,
// which is what keeps FLOAT results bit-identical across degrees of
// parallelism.
func foldAggregate(spec aggSpec, raw []sqltypes.Value) (sqltypes.Value, error) {
	acc := newAggAcc(spec.name, spec.outType)
	var seen map[string]bool
	if spec.distinct {
		seen = map[string]bool{}
	}
	for _, v := range raw {
		if spec.distinct && !v.IsNull() {
			k := v.Key()
			if seen[k] {
				continue
			}
			seen[k] = true
		}
		if err := acc.add(v); err != nil {
			return sqltypes.Value{}, err
		}
	}
	return acc.result()
}

// aggAcc is the running state of one aggregate: values go in one at a time
// through add, in row order, and result can be read after any of them. It
// is the single definition grouped, scalar, fused-columnar and windowed
// aggregation share — a running window frame reads result once per peer
// group instead of re-folding the frame — and because every path adds in
// the same left-to-right order, FLOAT sums carry the same bits everywhere.
type aggAcc struct {
	name    string
	outType sqltypes.Type
	// n counts the non-NULL values added (for COUNT(*), the rows).
	n int64
	// SUM/AVG and the STDEV/VAR family: the float sum, and for SUM the exact
	// integer sum while every value so far was an Int.
	allInt bool
	si     int64
	sf     float64
	// m is the running MIN/MAX (valid once n > 0).
	m sqltypes.Value
	// fs keeps the STDEV/VAR family's values: the two-pass variance needs
	// the mean first, so these four re-read the list on every result.
	fs []float64
}

func newAggAcc(name string, outType sqltypes.Type) aggAcc {
	return aggAcc{name: name, outType: outType, allInt: true}
}

// add folds one argument value in; NULLs are skipped.
func (a *aggAcc) add(v sqltypes.Value) error {
	if v.IsNull() {
		return nil
	}
	switch a.name {
	case "COUNT", "COUNT_BIG":
	case "MIN":
		if a.n == 0 || sqltypes.SortCompare(v, a.m) < 0 {
			a.m = v
		}
	case "MAX":
		if a.n == 0 || sqltypes.SortCompare(v, a.m) > 0 {
			a.m = v
		}
	default: // SUM, AVG, STDEV, STDEVP, VAR, VARP
		f, ok := numericOf(v)
		if !ok {
			return fmt.Errorf("engine: %s over non-numeric value %q", a.name, v.String())
		}
		a.sf += f
		switch a.name {
		case "SUM":
			if v.Type() == sqltypes.Int {
				a.si += v.Int()
			} else {
				a.allInt = false
			}
		case "AVG":
		default:
			a.fs = append(a.fs, f)
		}
	}
	a.n++
	return nil
}

// result is the aggregate of everything added so far.
func (a *aggAcc) result() (sqltypes.Value, error) {
	switch a.name {
	case "COUNT", "COUNT_BIG":
		return sqltypes.NewInt(a.n), nil
	case "MIN", "MAX":
		if a.n == 0 {
			return sqltypes.TypedNull(a.outType), nil
		}
		return a.m, nil
	case "SUM":
		if a.n == 0 {
			return sqltypes.TypedNull(a.outType), nil
		}
		if a.allInt && a.outType == sqltypes.Int {
			return sqltypes.NewInt(a.si), nil
		}
		return sqltypes.NewFloat(a.sf), nil
	case "AVG":
		if a.n == 0 {
			return sqltypes.TypedNull(sqltypes.Float), nil
		}
		return sqltypes.NewFloat(a.sf / float64(a.n)), nil
	case "STDEV", "STDEVP", "VAR", "VARP":
		pop := a.name == "STDEVP" || a.name == "VARP"
		if a.n == 0 || (!pop && a.n < 2) {
			return sqltypes.TypedNull(sqltypes.Float), nil
		}
		mean := a.sf / float64(a.n)
		var ss float64
		for _, f := range a.fs {
			ss += (f - mean) * (f - mean)
		}
		denom := float64(a.n - 1)
		if pop {
			denom = float64(a.n)
		}
		variance := ss / denom
		if a.name == "VAR" || a.name == "VARP" {
			return sqltypes.NewFloat(variance), nil
		}
		return sqltypes.NewFloat(math.Sqrt(variance)), nil
	}
	return sqltypes.Value{}, fmt.Errorf("engine: unknown aggregate %s", a.name)
}

// collectAggCalls gathers the aggregate function calls (without OVER) in an
// expression, without descending into subqueries (their aggregates belong
// to the subquery's own aggregation) or into an aggregate (nested aggregates
// are invalid).
func collectAggCalls(e sqlparser.Expr, out *[]*sqlparser.FuncCall) {
	walkExpr(e, func(x sqlparser.Expr) bool {
		if fc, ok := x.(*sqlparser.FuncCall); ok && fc.Over == nil && isAggregateName(fc.Name) {
			*out = append(*out, fc)
			return false
		}
		return true
	})
}

// collectWindowCalls gathers window function calls (with OVER), without
// descending into subqueries.
func collectWindowCalls(e sqlparser.Expr, out *[]*sqlparser.FuncCall) {
	walkExpr(e, func(x sqlparser.Expr) bool {
		if fc, ok := x.(*sqlparser.FuncCall); ok && fc.Over != nil {
			*out = append(*out, fc)
			return false
		}
		return true
	})
}
