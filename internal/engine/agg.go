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
	// argCol is the input column when the argument is a plain uncorrelated
	// column reference, -1 otherwise: the column the fused and the grouped
	// folds read instead of calling argFn.
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
	spec.argCol = localCol(fc.Args[0], sc)
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
// through add — or, typed, addInt and addFloat — in row order, and result can
// be read after any of them. It is the single definition grouped, scalar,
// fused-columnar and windowed aggregation share — a running window frame
// reads result once per peer group instead of re-folding the frame — and
// because every path adds in the same left-to-right order, FLOAT sums carry
// the same bits everywhere.
type aggAcc struct {
	name    string
	outType sqltypes.Type
	op      aggOp
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

// aggOp is what add does with a value, decided once from the name.
type aggOp uint8

const (
	aggSum    aggOp = iota // SUM
	aggAvg                 // AVG
	aggCount               // COUNT, COUNT_BIG
	aggMin                 // MIN
	aggMax                 // MAX
	aggSpread              // STDEV, STDEVP, VAR, VARP: keep the values too
)

func newAggAcc(name string, outType sqltypes.Type) aggAcc {
	op := aggSpread
	switch name {
	case "COUNT", "COUNT_BIG":
		op = aggCount
	case "MIN":
		op = aggMin
	case "MAX":
		op = aggMax
	case "SUM":
		op = aggSum
	case "AVG":
		op = aggAvg
	}
	return aggAcc{name: name, outType: outType, op: op, allInt: true}
}

// add folds one argument value in; NULLs are skipped.
func (a *aggAcc) add(v sqltypes.Value) error {
	switch {
	case v.IsNull():
	case a.op == aggCount:
		a.n++
	case a.op == aggMin || a.op == aggMax:
		a.addExtreme(v)
	case v.Type() == sqltypes.Int:
		a.addInt(v.Int())
	default:
		f, ok := numericOf(v)
		if !ok {
			return fmt.Errorf("engine: %s over non-numeric value %q", a.name, v.String())
		}
		a.addFloat(f)
	}
	return nil
}

// addInt is add of the INT x.
func (a *aggAcc) addInt(x int64) {
	if a.op > aggAvg {
		a.addOther(sqltypes.Int, x, float64(x))
		return
	}
	a.sf += float64(x)
	a.si += x
	a.n++
}

// addFloat is add of the FLOAT f — and, for SUM and the rest of the numeric
// aggregates, of any non-INT number f.
func (a *aggAcc) addFloat(f float64) {
	if a.op > aggAvg {
		a.addOther(sqltypes.Float, 0, f)
		return
	}
	a.sf += f
	a.allInt = false
	a.n++
}

// addOther is addInt (t Int, x as f too) or addFloat (t Float, f) for every
// aggregate but SUM and AVG. A running MIN or MAX of the value's own type is
// compared in place, as SortCompare compares two INTs or two FLOATs: NaN
// ties with everything, and a tie keeps the incumbent.
func (a *aggAcc) addOther(t sqltypes.Type, x int64, f float64) {
	switch {
	case a.op == aggCount:
	case a.op == aggSpread:
		a.sf += f
		a.fs = append(a.fs, f)
	case a.n == 0 || a.m.Type() != t:
		if t == sqltypes.Int {
			a.addExtreme(sqltypes.NewInt(x))
		} else {
			a.addExtreme(sqltypes.NewFloat(f))
		}
		return
	case t == sqltypes.Int:
		if m := a.m.Int(); (a.op == aggMin && x < m) || (a.op == aggMax && x > m) {
			a.m = sqltypes.NewInt(x)
		}
	default:
		if m := a.m.Float(); (a.op == aggMin && f < m) || (a.op == aggMax && f > m) {
			a.m = sqltypes.NewFloat(f)
		}
	}
	a.n++
}

// addExtreme folds the non-NULL v into a running MIN or MAX.
func (a *aggAcc) addExtreme(v sqltypes.Value) {
	if a.n == 0 {
		a.m = v
	} else if c := sqltypes.SortCompare(v, a.m); (a.op == aggMin && c < 0) || (a.op == aggMax && c > 0) {
		a.m = v
	}
	a.n++
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
