// vector.go implements the columnar execution path: predicate kernels that
// evaluate scan filters against typed segment vectors into selection
// bitmaps, zone-map pruning that skips whole segments before touching data,
// and fused scalar aggregation that folds typed arrays without materializing
// intermediate rows. Correctness
// contract: every kernel mirrors the row engine's comparison semantics
// (sqltypes.Compare, including its NaN-compares-equal and
// string-coercion behaviors) bit for bit, because byte-identical results
// are the cache-consistency invariant of the version-fenced result cache.
// Survivor rows are emitted as indices into the table's canonical row view,
// so downstream operators see exactly the values the row path sees.
package engine

import (
	"fmt"
	"math/bits"
	"strings"
	"sync/atomic"
	"time"

	"sqlshare/internal/sqlparser"
	"sqlshare/internal/sqltypes"
	"sqlshare/internal/storage"
)

// vectorizedDisabled gates the columnar path process-wide (false = the
// default, vectorized execution on). Stored inverted so the zero value
// enables vectorization. The differential corpus suite and the bench/
// oracle flip it to compare against the pure row path.
var vectorizedDisabled atomic.Bool

// SetVectorizedEnabled turns the vectorized execution path on or off,
// returning the previous setting. Results are identical either way — only
// the execution strategy changes — so flipping it mid-stream is safe.
func SetVectorizedEnabled(on bool) (prev bool) {
	return !vectorizedDisabled.Swap(!on)
}

// VectorizedEnabled reports whether the vectorized path is active.
func VectorizedEnabled() bool { return !vectorizedDisabled.Load() }

// segmentsHook, when set, observes zone-map pruning: for each vectorized
// scan, the number of segments actually scanned and the number skipped
// outright. The server points this at the sqlshare_segments_scanned_total /
// sqlshare_segments_skipped_total counters.
var segmentsHook atomic.Pointer[func(scanned, skipped int64)]

// SetSegmentsHook installs (or, with nil, removes) the segment-pruning
// observer.
func SetSegmentsHook(f func(scanned, skipped int64)) {
	if f == nil {
		segmentsHook.Store(nil)
		return
	}
	segmentsHook.Store(&f)
}

// noteSegments records one vectorized scan's segment accounting on the
// process-wide hook and, when tracing, on the operator's accumulator.
func (ctx *ExecContext) noteSegments(n Node, scanned, skipped int64) {
	if h := segmentsHook.Load(); h != nil {
		(*h)(scanned, skipped)
	}
	if t := ctx.tracer; t != nil {
		t.mu.Lock()
		acc := t.stats[n]
		if acc == nil {
			acc = &opAccum{}
			t.stats[n] = acc
		}
		acc.segsScanned += scanned
		acc.segsSkipped += skipped
		t.mu.Unlock()
	}
}

// noteFusedScan attributes a scan that executed fused inside a parent
// operator (vectorized scalar aggregation): the scan ran once and produced
// rows survivors, but never produced a relation for execOp to measure.
func (ctx *ExecContext) noteFusedScan(n Node, rows int64) {
	if t := ctx.tracer; t != nil {
		t.mu.Lock()
		acc := t.stats[n]
		if acc == nil {
			acc = &opAccum{}
			t.stats[n] = acc
		}
		acc.execs++
		acc.rows += rows
		t.mu.Unlock()
	}
	if p := ctx.Progress; p != nil {
		p.Ops.Add(1)
		p.Rows.Add(rows)
	}
}

// ---------------------------------------------------------------- vec preds

// vecPred is one scan conjunct in kernel form: a column compared to a
// constant (or tested for NULL). Only predicates of this shape vectorize;
// anything else stays a compiled closure and runs as a residual on kernel
// survivors.
type vecPred struct {
	col int
	op  string // "=", "<>", "<", "<=", ">", ">=", "isnull", "isnotnull"
	lit sqltypes.Value
}

// extractVecPreds recognizes pushed-down conjuncts the kernels can run:
// column-vs-literal comparisons (either operand order), IS [NOT] NULL on a
// plain column, and non-negated BETWEEN with literal bounds (decomposed
// into >= lo AND <= hi, which is exactly its three-valued expansion; NOT
// BETWEEN is *not* decomposable — ge=Unknown with le=False yields
// False.Not()=True, which two negated conjuncts cannot express).
func extractVecPreds(c sqlparser.Expr, cols []ColMeta) ([]vecPred, bool) {
	switch n := c.(type) {
	case *sqlparser.Binary:
		switch n.Op {
		case "=", "<>", "<", "<=", ">", ">=":
		default:
			return nil, false
		}
		if cr, ok := n.L.(*sqlparser.ColumnRef); ok {
			if lit, ok := n.R.(*sqlparser.Literal); ok {
				if col, ok := vecColIndex(cr, cols); ok {
					return []vecPred{{col: col, op: n.Op, lit: lit.Val}}, true
				}
			}
		}
		if cr, ok := n.R.(*sqlparser.ColumnRef); ok {
			if lit, ok := n.L.(*sqlparser.Literal); ok {
				if col, ok := vecColIndex(cr, cols); ok {
					return []vecPred{{col: col, op: flipCmp(n.Op), lit: lit.Val}}, true
				}
			}
		}
	case *sqlparser.IsNullExpr:
		cr, ok := n.X.(*sqlparser.ColumnRef)
		if !ok {
			return nil, false
		}
		col, ok := vecColIndex(cr, cols)
		if !ok {
			return nil, false
		}
		op := "isnull"
		if n.Not {
			op = "isnotnull"
		}
		return []vecPred{{col: col, op: op}}, true
	case *sqlparser.BetweenExpr:
		if n.Not {
			return nil, false
		}
		cr, ok := n.X.(*sqlparser.ColumnRef)
		if !ok {
			return nil, false
		}
		col, ok := vecColIndex(cr, cols)
		if !ok {
			return nil, false
		}
		lo, ok := n.Lo.(*sqlparser.Literal)
		if !ok {
			return nil, false
		}
		hi, ok := n.Hi.(*sqlparser.Literal)
		if !ok {
			return nil, false
		}
		return []vecPred{
			{col: col, op: ">=", lit: lo.Val},
			{col: col, op: "<=", lit: hi.Val},
		}, true
	}
	return nil, false
}

// vecColIndex resolves a column reference against the scan's own columns
// exactly as scope.resolve does for its innermost frame: case-insensitive
// name match, optional binding match, and exactly one hit. Zero hits means
// the reference is correlated (resolves outward) and two means ambiguous;
// neither vectorizes.
func vecColIndex(cr *sqlparser.ColumnRef, cols []ColMeta) (int, bool) {
	found := -1
	for i, c := range cols {
		if !strings.EqualFold(c.Name, cr.Name) {
			continue
		}
		if cr.Table != "" && !strings.EqualFold(c.Binding, cr.Table) {
			continue
		}
		if found >= 0 {
			return 0, false
		}
		found = i
	}
	if found < 0 {
		return 0, false
	}
	return found, true
}

// ---------------------------------------------------------------- zone maps

// segPredSkips reports whether the zone map of v proves no row of its
// segment can satisfy p, so the whole segment can be skipped without
// touching data. Min/Max-based pruning is only attempted when the
// literal's comparison semantics provably agree with the vector's storage
// order (zoneProbe); otherwise the segment is skipped only when the
// comparison is constant-Unknown for every possible row value
// (zoneConstFalse).
func segPredSkips(v *storage.Vector, p vecPred) bool {
	switch p.op {
	case "isnull":
		return !v.HasNulls
	case "isnotnull":
		return v.AllNull
	}
	if v.AllNull || p.lit.IsNull() {
		return true // comparisons against or over NULL are never True
	}
	probe, ok := zoneProbe(v, p.lit)
	if !ok {
		return zoneConstFalse(v, p.lit)
	}
	if v.NoPrune {
		return false
	}
	cmin, okMin := sqltypes.Compare(v.Min, probe)
	cmax, okMax := sqltypes.Compare(v.Max, probe)
	if !okMin || !okMax {
		return false
	}
	switch p.op {
	case "=":
		return cmax < 0 || cmin > 0
	case "<>":
		return cmin == 0 && cmax == 0
	case "<":
		return cmin >= 0
	case "<=":
		return cmin > 0
	case ">":
		return cmax <= 0
	case ">=":
		return cmax < 0
	}
	return false
}

// zoneProbe converts the literal into a probe whose Compare ordering
// against the vector's Min/Max matches what the kernel computes per row.
func zoneProbe(v *storage.Vector, lit sqltypes.Value) (sqltypes.Value, bool) {
	switch v.Enc {
	case storage.EncInt, storage.EncFloat, storage.EncBool:
		if lit.IsNumeric() {
			return lit, true
		}
		if lit.Type() == sqltypes.String {
			if f, ok := sqltypes.ParseNumeric(lit.Str()); ok {
				return sqltypes.NewFloat(f), true
			}
		}
	case storage.EncTime:
		if lit.Type() == sqltypes.DateTime {
			return lit, true
		}
		if lit.Type() == sqltypes.String {
			if t, ok := sqltypes.ParseDateTime(lit.Str()); ok {
				return sqltypes.NewDateTime(t), true
			}
		}
	case storage.EncString, storage.EncDict:
		// Lexical order; only a string literal compares lexically. A
		// numeric or datetime literal compares through per-row parsing,
		// which Min/Max cannot bound.
		if lit.Type() == sqltypes.String {
			return lit, true
		}
	}
	return sqltypes.Value{}, false
}

// zoneConstFalse reports literal/vector pairings for which Compare is
// Unknown for every possible row value, making any comparison op False
// everywhere — e.g. an unparseable string literal against a numeric
// column, or a numeric literal against a datetime column.
func zoneConstFalse(v *storage.Vector, lit sqltypes.Value) bool {
	switch v.Enc {
	case storage.EncInt, storage.EncFloat, storage.EncBool:
		if lit.Type() == sqltypes.DateTime {
			return true
		}
		if lit.Type() == sqltypes.String {
			_, ok := sqltypes.ParseNumeric(lit.Str())
			return !ok
		}
	case storage.EncTime:
		if lit.IsNumeric() {
			return true
		}
		if lit.Type() == sqltypes.String {
			_, ok := sqltypes.ParseDateTime(lit.Str())
			return !ok
		}
	}
	return false
}

// ---------------------------------------------------------------- kernels

// vecCmpFloat mirrors sqltypes.Compare's float ordering, including its
// NaN-compares-equal behavior (neither < nor > holds, so the default arm
// reports 0).
func vecCmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func opBits(op string) (lt, eq, gt bool) {
	switch op {
	case "=":
		return false, true, false
	case "<>":
		return true, false, true
	case "<":
		return true, false, false
	case "<=":
		return true, true, false
	case ">":
		return false, false, true
	case ">=":
		return false, true, true
	}
	return false, false, false
}

// segMatcher compiles p into a per-row predicate over one segment's column
// vector. A false second return means the predicate is constant-False for
// this segment (every row drops). rows/base give the canonical row view
// backing the segment, used by the generic fallback for EncValues vectors.
func segMatcher(vec *storage.Vector, rows []storage.Row, base, col int, p vecPred) (func(i int) bool, bool) {
	switch p.op {
	case "isnull":
		return vec.IsNull, true
	case "isnotnull":
		if vec.AllNull {
			return nil, false
		}
		return func(i int) bool { return !vec.IsNull(i) }, true
	}
	if p.lit.IsNull() {
		return nil, false
	}
	lt, eq, gt := opBits(p.op)
	keep := func(c int) bool {
		if c < 0 {
			return lt
		}
		if c > 0 {
			return gt
		}
		return eq
	}
	lit := p.lit
	switch vec.Enc {
	case storage.EncInt:
		if lit.Type() == sqltypes.Int {
			l := lit.Int()
			return func(i int) bool {
				if vec.IsNull(i) {
					return false
				}
				x := vec.Ints[i]
				if x < l {
					return lt
				}
				if x > l {
					return gt
				}
				return eq
			}, true
		}
		lf, ok := numericProbe(lit)
		if !ok {
			return nil, false
		}
		return func(i int) bool {
			return !vec.IsNull(i) && keep(vecCmpFloat(float64(vec.Ints[i]), lf))
		}, true
	case storage.EncFloat:
		lf, ok := numericProbe(lit)
		if !ok {
			return nil, false
		}
		return func(i int) bool {
			if vec.IsNull(i) {
				return false
			}
			x := vec.Floats[i]
			if x < lf {
				return lt
			}
			if x > lf {
				return gt
			}
			return eq
		}, true
	case storage.EncBool:
		lf, ok := numericProbe(lit)
		if !ok {
			return nil, false
		}
		return func(i int) bool {
			if vec.IsNull(i) {
				return false
			}
			var x float64
			if vec.Bools[i] {
				x = 1
			}
			return keep(vecCmpFloat(x, lf))
		}, true
	case storage.EncTime:
		var tm time.Time
		switch {
		case lit.Type() == sqltypes.DateTime:
			tm = lit.Time()
		case lit.Type() == sqltypes.String:
			t, ok := sqltypes.ParseDateTime(lit.Str())
			if !ok {
				return nil, false
			}
			tm = t
		default:
			return nil, false
		}
		return func(i int) bool {
			if vec.IsNull(i) {
				return false
			}
			x := vec.Times[i]
			if x.Before(tm) {
				return lt
			}
			if x.After(tm) {
				return gt
			}
			return eq
		}, true
	case storage.EncString:
		sm, ok := stringMatcher(lit, keep)
		if !ok {
			return nil, false
		}
		return func(i int) bool { return !vec.IsNull(i) && sm(vec.Strs[i]) }, true
	case storage.EncDict:
		sm, ok := stringMatcher(lit, keep)
		if !ok {
			return nil, false
		}
		// One comparison per dictionary entry instead of per row.
		keepCode := make([]bool, len(vec.Dict))
		for c, s := range vec.Dict {
			keepCode[c] = sm(s)
		}
		return func(i int) bool { return !vec.IsNull(i) && keepCode[vec.Codes[i]] }, true
	}
	// EncValues (mixed or all-NULL): generic Compare against the row view.
	return func(i int) bool {
		c, ok := sqltypes.Compare(rows[base+i][col], lit)
		return ok && keep(c)
	}, true
}

// numericProbe yields the float probe a numeric vector compares against:
// numeric literals convert directly, string literals through the same
// parse Compare applies. A false return means the comparison is Unknown
// for every row (constant-False predicate).
func numericProbe(lit sqltypes.Value) (float64, bool) {
	if lit.IsNumeric() {
		return lit.Float(), true
	}
	if lit.Type() == sqltypes.String {
		return sqltypes.ParseNumeric(lit.Str())
	}
	return 0, false
}

// stringMatcher compiles a comparison of a string column value against the
// literal, mirroring Compare's coercions: string literals compare
// lexically, numeric literals through per-value numeric parsing, datetime
// literals through per-value timestamp parsing (parse failure → Unknown →
// drop).
func stringMatcher(lit sqltypes.Value, keep func(int) bool) (func(s string) bool, bool) {
	switch {
	case lit.Type() == sqltypes.String:
		ls := lit.Str()
		return func(s string) bool { return keep(strings.Compare(s, ls)) }, true
	case lit.IsNumeric():
		lf := lit.Float()
		return func(s string) bool {
			f, ok := sqltypes.ParseNumeric(s)
			return ok && keep(vecCmpFloat(f, lf))
		}, true
	case lit.Type() == sqltypes.DateTime:
		tm := lit.Time()
		return func(s string) bool {
			t, ok := sqltypes.ParseDateTime(s)
			if !ok {
				return false
			}
			if t.Before(tm) {
				return keep(-1)
			}
			if t.After(tm) {
				return keep(1)
			}
			return keep(0)
		}, true
	}
	return nil, false
}

// ---------------------------------------------------------------- bitmaps

// resetSel returns a selection bitmap for n rows with every bit set (and
// tail bits beyond n clear), reusing buf's capacity when possible.
func resetSel(buf []uint64, n int) []uint64 {
	w := (n + 63) / 64
	if cap(buf) < w {
		buf = make([]uint64, w)
	}
	buf = buf[:w]
	for i := range buf {
		buf[i] = ^uint64(0)
	}
	if r := n % 64; r != 0 && w > 0 {
		buf[w-1] = (uint64(1) << uint(r)) - 1
	}
	return buf
}

// applyMatch intersects the selection with m, evaluating m only on rows
// still selected.
func applyMatch(sel []uint64, m func(i int) bool) {
	for w := range sel {
		word := sel[w]
		if word == 0 {
			continue
		}
		rem := word
		for rem != 0 {
			b := bits.TrailingZeros64(rem)
			rem &^= 1 << uint(b)
			if !m(w*64 + b) {
				word &^= 1 << uint(b)
			}
		}
		sel[w] = word
	}
}

func zeroSel(sel []uint64) {
	for i := range sel {
		sel[i] = 0
	}
}

// ---------------------------------------------------------------- vec scan

// execVec is the columnar scan: zone maps prune whole segments, kernels
// evaluate the vectorized conjunct prefix into selection bitmaps, residual
// closures run in original order on kernel survivors, and surviving rows
// are emitted as indices into the canonical row view — so the output is the
// row path's output, row for row and byte for byte.
func (s *scanNode) execVec(ctx *ExecContext, env *Env) (*relation, error) {
	rows, segs := s.table.ScanSegments()
	rel := &relation{cols: s.props.Cols, rows: rows}
	bases := make([]int, len(segs)+1)
	for i, sg := range segs {
		bases[i+1] = bases[i] + sg.Len()
	}
	cand := make([]int, 0, len(segs))
	skipped := 0
	for i, sg := range segs {
		skip := false
		for _, p := range s.vecPreds {
			if segPredSkips(sg.Col(p.col), p) {
				skip = true
				break
			}
		}
		if skip {
			skipped++
		} else {
			cand = append(cand, i)
		}
	}
	ctx.noteSegments(s, int64(len(cand)), int64(skipped))
	if len(cand) == 0 {
		return &relation{cols: s.props.Cols}, nil
	}
	candRows := 0
	for _, si := range cand {
		candRows += segs[si].Len()
	}
	// Segments are the morsel unit. Group candidate segments into a few
	// whole-segment tasks per worker so per-task overhead stays negligible
	// even when kernels make each segment cheap; merging slots in task
	// order reproduces row order.
	maxTasks := ctx.DOP
	if maxTasks < 1 {
		maxTasks = 1
	}
	maxTasks *= 4
	per := (len(cand) + maxTasks - 1) / maxTasks
	ntasks := (len(cand) + per - 1) / per
	kept := make([][]int32, ntasks)
	residual := s.preds[s.nVec:]
	if _, err := parallelRun(ctx, s, candRows, ntasks, func(t int) error {
		lo, hi := t*per, t*per+per
		if hi > len(cand) {
			hi = len(cand)
		}
		var out []int32
		var ev *Env
		if len(residual) > 0 {
			ev = &Env{cols: s.props.Cols, outer: env}
		}
		var sel []uint64
		for _, si := range cand[lo:hi] {
			sg := segs[si]
			base := bases[si]
			sel = resetSel(sel, sg.Len())
			for _, p := range s.vecPreds {
				m, ok := segMatcher(sg.Col(p.col), rows, base, p.col, p)
				if !ok {
					zeroSel(sel)
					break
				}
				applyMatch(sel, m)
			}
			for w := range sel {
				rem := sel[w]
				for rem != 0 {
					b := bits.TrailingZeros64(rem)
					rem &^= 1 << uint(b)
					i := base + w*64 + b
					if ev != nil {
						ev.row = rows[i]
						keep := true
						for _, p := range residual {
							v, err := p(ctx, ev)
							if err != nil {
								return err
							}
							if truth(v) != sqltypes.True {
								keep = false
								break
							}
						}
						if !keep {
							continue
						}
					}
					out = append(out, int32(i))
				}
			}
		}
		kept[t] = out
		return nil
	}); err != nil {
		return nil, err
	}
	return rel.pick(concatSlots(kept)), nil
}

// scanTaskLayout sizes the per-task row range for row-path predicate
// scans. The default morsel is tuned for operators whose per-row work
// dwarfs scheduling overhead; a cheap-predicate scan at low DOP spends a
// measurable fraction of its time on task bookkeeping instead (on a
// one-core host a DOP-2 scan ran slower than the serial one). Widening
// each task to at least 1/(8·DOP) of the input keeps a few tasks per
// worker for stealing while making per-task overhead noise. Output order
// is unaffected: tasks remain contiguous ranges merged in task order.
func scanTaskLayout(n, dop int) (tasks, width int) {
	if n <= 0 {
		return 0, 1
	}
	if dop < 1 {
		dop = 1
	}
	width = parMorselRows
	if w := (n + dop*8 - 1) / (dop * 8); w > width {
		width = w
	}
	return (n + width - 1) / width, width
}

// ---------------------------------------------------------------- fused agg

// fusedAggScan reports the scan a scalar aggregation can fold directly —
// the input is a bare non-seek scan and every aggregate is a non-DISTINCT
// COUNT/SUM/AVG/MIN/MAX over a plain column (or COUNT(*)) — or nil.
func fusedAggScan(a *streamAggregateNode) *scanNode {
	if !a.scalar || len(a.children) != 1 {
		return nil
	}
	sc, ok := a.children[0].(*scanNode)
	if !ok || sc.seek != nil {
		return nil
	}
	for _, spec := range a.specs {
		if spec.distinct {
			return nil
		}
		switch spec.name {
		case "COUNT", "COUNT_BIG", "SUM", "AVG", "MIN", "MAX":
		default:
			return nil
		}
		if !spec.star && spec.argCol < 0 {
			return nil
		}
	}
	return sc
}

// vecAggState is the accumulator of one fused aggregate: the shared aggAcc,
// which updateVecAgg advances straight from the typed column arrays where
// it can, plus the first fold error. Accumulation order is row order —
// segments stream serially — so FLOAT results are bit-identical to the row
// path's fold.
type vecAggState struct {
	aggAcc
	err error
}

// execVecScalar evaluates a scalar aggregation fused with its scan: zone
// maps prune segments, kernels select survivors, and each aggregate folds
// the column's typed array directly, without materializing the scan output
// or per-row argument vectors. Error precedence mirrors the row path:
// residual predicate errors surface immediately, then the scan's row-limit
// check on the survivor count, then the first failing aggregate in spec
// order.
func (a *streamAggregateNode) execVecScalar(ctx *ExecContext, env *Env, s *scanNode) (*relation, error) {
	rows, segs := s.table.ScanSegments()
	bases := make([]int, len(segs)+1)
	for i, sg := range segs {
		bases[i+1] = bases[i] + sg.Len()
	}
	var scanned, skipped int64
	states := make([]vecAggState, len(a.specs))
	for i, spec := range a.specs {
		states[i].aggAcc = newAggAcc(spec.name, spec.outType)
	}
	residual := s.preds[s.nVec:]
	var ev *Env
	if len(residual) > 0 {
		ev = &Env{cols: s.props.Cols, outer: env}
	}
	var sel []uint64
	var surv []int
	var survivors int64
	for si, sg := range segs {
		if err := ctx.canceled(); err != nil {
			return nil, err
		}
		skip := false
		for _, p := range s.vecPreds {
			if segPredSkips(sg.Col(p.col), p) {
				skip = true
				break
			}
		}
		if skip {
			skipped++
			continue
		}
		scanned++
		base := bases[si]
		n := sg.Len()
		// surv == nil means "all n rows survive" — the common unfiltered
		// aggregate pays no bitmap work at all.
		surv = surv[:0]
		all := len(s.vecPreds) == 0 && ev == nil
		if !all {
			sel = resetSel(sel, n)
			for _, p := range s.vecPreds {
				m, ok := segMatcher(sg.Col(p.col), rows, base, p.col, p)
				if !ok {
					zeroSel(sel)
					break
				}
				applyMatch(sel, m)
			}
			for w := range sel {
				rem := sel[w]
				for rem != 0 {
					b := bits.TrailingZeros64(rem)
					rem &^= 1 << uint(b)
					i := w*64 + b
					if ev != nil {
						ev.row = rows[base+i]
						keep := true
						for _, p := range residual {
							v, err := p(ctx, ev)
							if err != nil {
								return nil, err
							}
							if truth(v) != sqltypes.True {
								keep = false
								break
							}
						}
						if !keep {
							continue
						}
					}
					surv = append(surv, i)
				}
			}
			survivors += int64(len(surv))
			if len(surv) == 0 {
				continue
			}
		} else {
			survivors += int64(n)
		}
		for k := range a.specs {
			updateVecAgg(&states[k], &a.specs[k], sg, rows, base, n, surv, all)
		}
	}
	ctx.noteSegments(s, scanned, skipped)
	ctx.noteFusedScan(s, survivors)
	if err := ctx.checkRowLimit(s, int(survivors)); err != nil {
		return nil, err
	}
	for k := range states {
		if states[k].err != nil {
			return nil, states[k].err
		}
	}
	row := make(storage.Row, len(a.specs))
	for k, spec := range a.specs {
		if spec.star {
			row[k] = sqltypes.NewInt(survivors)
			continue
		}
		v, err := states[k].result()
		if err != nil {
			return nil, err
		}
		row[k] = v
	}
	return &relation{cols: a.props.Cols, rows: []storage.Row{row}}, nil
}

// updateVecAgg folds one segment's surviving rows into one aggregate's
// accumulator. surv lists surviving row offsets within the segment; when
// all is true every row 0..n-1 survives and surv is ignored. Typed fast
// paths cover homogeneous int/float/bool vectors; everything else goes
// through the same Value-level operations the row fold uses.
func updateVecAgg(st *vecAggState, spec *aggSpec, sg *storage.Segment, rows []storage.Row, base, n int, surv []int, all bool) {
	if st.err != nil || spec.star {
		return
	}
	vec := sg.Col(spec.argCol)
	each := func(f func(i int)) {
		if all {
			for i := 0; i < n; i++ {
				f(i)
			}
			return
		}
		for _, i := range surv {
			f(i)
		}
	}
	switch spec.name {
	case "COUNT", "COUNT_BIG":
		if !vec.HasNulls {
			if all {
				st.n += int64(n)
			} else {
				st.n += int64(len(surv))
			}
			return
		}
		each(func(i int) {
			if !vec.IsNull(i) {
				st.n++
			}
		})
	case "SUM", "AVG":
		switch vec.Enc {
		case storage.EncInt:
			each(func(i int) {
				if vec.IsNull(i) {
					return
				}
				x := vec.Ints[i]
				st.sf += float64(x)
				st.si += x
				st.n++
			})
		case storage.EncFloat:
			each(func(i int) {
				if vec.IsNull(i) {
					return
				}
				st.sf += vec.Floats[i]
				st.allInt = false
				st.n++
			})
		case storage.EncBool:
			each(func(i int) {
				if vec.IsNull(i) {
					return
				}
				if vec.Bools[i] {
					st.sf++
				}
				st.allInt = false
				st.n++
			})
		default:
			name := spec.name
			each(func(i int) {
				if st.err != nil {
					return
				}
				v := rows[base+i][spec.argCol]
				if v.IsNull() {
					return
				}
				f, ok := numericOf(v)
				if !ok {
					st.err = fmt.Errorf("engine: %s over non-numeric value %q", name, v.String())
					return
				}
				st.sf += f
				if v.Type() == sqltypes.Int {
					st.si += v.Int()
				} else {
					st.allInt = false
				}
				st.n++
			})
		}
	case "MIN", "MAX":
		min := spec.name == "MIN"
		switch {
		case vec.Enc == storage.EncInt && (st.n == 0 || st.m.Type() == sqltypes.Int):
			var cur int64
			have := st.n > 0
			if have {
				cur = st.m.Int()
			}
			each(func(i int) {
				if vec.IsNull(i) {
					return
				}
				x := vec.Ints[i]
				if !have || (min && x < cur) || (!min && x > cur) {
					cur, have = x, true
				}
				st.n++
			})
			if have {
				st.m = sqltypes.NewInt(cur)
			}
		case vec.Enc == storage.EncFloat && !vec.NoPrune && (st.n == 0 || st.m.Type() == sqltypes.Float):
			// NaN-free (NoPrune false): strict </> mirrors SortCompare's
			// keep-first fold exactly (cmpFloat ties — exact equality or
			// ±0.0, which render identically — keep the incumbent).
			var cur float64
			have := st.n > 0
			if have {
				cur = st.m.Float()
			}
			each(func(i int) {
				if vec.IsNull(i) {
					return
				}
				x := vec.Floats[i]
				if !have || (min && x < cur) || (!min && x > cur) {
					cur, have = x, true
				}
				st.n++
			})
			if have {
				st.m = sqltypes.NewFloat(cur)
			}
		default:
			each(func(i int) {
				v := rows[base+i][spec.argCol]
				if v.IsNull() {
					return
				}
				st.n++
				if st.n == 1 {
					st.m = v
					return
				}
				c := sqltypes.SortCompare(v, st.m)
				if (min && c < 0) || (!min && c > 0) {
					st.m = v
				}
			})
		}
	}
}

// ---------------------------------------------------------------- plan prop

// annotateVectorized marks the operators the executor runs on the columnar
// path: scans with at least one kernel-form conjunct, pure column
// projections (which compose a column map), and scalar aggregations fused
// with their scan. The property
// is static — it describes the plan's capability, not the process-wide
// toggle — so EXPLAIN output and the plan artifacts stored beside a cached
// result stay valid across toggle flips (results are identical either way).
func annotateVectorized(n Node) {
	for _, c := range n.Children() {
		annotateVectorized(c)
	}
	switch v := n.(type) {
	case *scanNode:
		v.props.Vectorized = v.seek == nil && len(v.preds) > 0 && v.nVec > 0
	case *projectNode:
		v.props.Vectorized = v.srcCols != nil
	case *streamAggregateNode:
		v.props.Vectorized = fusedAggScan(v) != nil
	}
}
