// vector.go implements how a scan picks its rows. There is one loop,
// selectRows: the segments a scan's span overlaps are its morsels, and in
// each one the kernel-form conjunct prefix, when kernels run, evaluates
// against the typed vectors into a selection bitmap (after the zone maps
// have skipped the segments it rules out), and the other conjuncts run as
// compiled closures, in order, on the survivors. The fused scalar aggregate
// picks each segment's survivors through the same rowFilter and folds the
// typed arrays without materializing intermediate rows. Correctness
// contract: the zone maps and kernels compare a column with the literal's
// sqltypes.Probe, the coercion sqltypes.Compare applies, so they agree with
// the closures bit for bit, because byte-identical results are the
// cache-consistency invariant of the version-fenced result cache. Survivors
// are indices into the table's clustered order, so downstream operators see
// the same rows whether kernels ran or not.
package engine

import (
	"math/bits"
	"strings"
	"sync/atomic"
	"time"

	"sqlshare/internal/sqlparser"
	"sqlshare/internal/sqltypes"
	"sqlshare/internal/storage"
)

// vectorizedDisabled gates the kernels, zone maps and fused aggregate
// process-wide (false = the default, vectorized execution on). Stored
// inverted so the zero value enables vectorization. The differential suites
// and the bench/ oracle flip it to compare against every conjunct run as a
// closure.
var vectorizedDisabled atomic.Bool

// SetVectorizedEnabled turns the vectorized execution path on or off,
// returning the previous setting. Results are identical either way — only
// the execution strategy changes — so flipping it mid-stream is safe.
func SetVectorizedEnabled(on bool) (prev bool) {
	return !vectorizedDisabled.Swap(!on)
}

// VectorizedEnabled reports whether the vectorized path is active.
func VectorizedEnabled() bool { return !vectorizedDisabled.Load() }

// noteSegments records one vectorized scan's segment accounting on the
// operator's accumulator (ExecContext.Segments sums them).
func (ctx *ExecContext) noteSegments(n Node, scanned, skipped int64) {
	ctx.tracer.note(n, func(a *Actual) {
		a.SegmentsScanned += scanned
		a.SegmentsSkipped += skipped
	})
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

// extractVecPreds is the one recognizer of a pushed-down conjunct as
// column-vs-literal comparisons, read by the seek (seekPred) and the
// kernels: a comparison (either operand order), IS [NOT] NULL on a
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
// touching data. The literal's probe for the vector's cell type decides:
// a never probe skips every segment, a per-row one none, and a native one
// compares with Min and Max. A mixed-type vector is never skipped.
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
	if v.Enc == storage.EncValues {
		return false
	}
	probe := sqltypes.NewProbe(p.lit, v.CellType())
	switch {
	case probe.Mode == sqltypes.ProbeNever:
		return true
	case probe.Mode == sqltypes.ProbePerRow || v.NoPrune:
		return false
	}
	cmin, okMin := sqltypes.Compare(v.Min, probe.Lit)
	cmax, okMax := sqltypes.Compare(v.Max, probe.Lit)
	if !okMin || !okMax {
		return false
	}
	// A cell compares below the probe only if Min does, above it only if
	// Max does, and equal to it only if the probe lies between them.
	lt, eq, gt := opBits(p.op)
	return !(lt && cmin < 0 || eq && cmin <= 0 && cmax >= 0 || gt && cmax > 0)
}

// ---------------------------------------------------------------- kernels

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
// vector: a typed loop over the literal's probe for the vector's cell type,
// or Compare against each cell of a mixed-type vector. A false second
// return means the predicate is constant-False for this segment (every row
// drops).
func segMatcher(vec *storage.Vector, p vecPred) (func(i int) bool, bool) {
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
	if vec.Enc == storage.EncValues {
		// Mixed or all-NULL: generic Compare against the cell.
		return func(i int) bool {
			c, ok := sqltypes.Compare(vec.Value(i), p.lit)
			return ok && keep(c)
		}, true
	}
	probe := sqltypes.NewProbe(p.lit, vec.CellType())
	if probe.Mode == sqltypes.ProbeNever {
		return nil, false
	}
	lit := probe.Lit
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
		lf := lit.Float()
		return func(i int) bool {
			if vec.IsNull(i) {
				return false
			}
			x := float64(vec.Ints[i])
			if x < lf {
				return lt
			}
			if x > lf {
				return gt
			}
			return eq
		}, true
	case storage.EncFloat:
		lf := lit.Float()
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
		lf := lit.Float()
		return func(i int) bool {
			if vec.IsNull(i) {
				return false
			}
			var x float64
			if vec.Bools[i] {
				x = 1
			}
			if x < lf {
				return lt
			}
			if x > lf {
				return gt
			}
			return eq
		}, true
	case storage.EncTime:
		ln, ok := lit.UnixNano()
		if !ok {
			// The vector holds only DATETIMEs within the nanosecond range,
			// so a literal beyond it orders the same way against every row.
			c := 1
			if lit.Time().Unix() > 0 {
				c = -1
			}
			if !keep(c) {
				return nil, false
			}
			return func(i int) bool { return !vec.IsNull(i) }, true
		}
		return func(i int) bool {
			if vec.IsNull(i) {
				return false
			}
			x := vec.Times[i]
			if x < ln {
				return lt
			}
			if x > ln {
				return gt
			}
			return eq
		}, true
	case storage.EncString:
		sm := stringMatcher(probe, keep)
		return func(i int) bool { return !vec.IsNull(i) && sm(vec.Strs[i]) }, true
	}
	// EncDict: one comparison per dictionary entry instead of per row.
	sm := stringMatcher(probe, keep)
	keepCode := make([]bool, len(vec.Dict))
	for c, s := range vec.Dict {
		keepCode[c] = sm(s)
	}
	return func(i int) bool { return !vec.IsNull(i) && keepCode[vec.Codes[i]] }, true
}

// stringMatcher compiles a comparison of a VARCHAR cell with a probe: in
// lexical order when it is native, through the probe's parse of the cell
// when it is per-row (a cell that does not parse drops).
func stringMatcher(probe sqltypes.Probe, keep func(int) bool) func(s string) bool {
	if probe.Mode == sqltypes.ProbeNative {
		ls := probe.Lit.Str()
		return func(s string) bool { return keep(strings.Compare(s, ls)) }
	}
	return func(s string) bool {
		c, ok := probe.CompareString(s)
		return ok && keep(c)
	}
}

// ---------------------------------------------------------------- row picking

// rowFilter is a scan's conjuncts as one task runs them over segment rows:
// the kernels into a selection bitmap, then the residual closures, in
// conjunct order, on the kernel survivors, over the cells they read.
type rowFilter struct {
	kernels  []vecPred
	residual []exprFn
	fill     []int    // the table columns the residual reads
	ev       *Env     // the residual's row; nil when there is no residual
	sel      []uint64 // the selection bitmap, reused segment to segment
}

// filter is the scan's conjuncts as rowFilter runs them. Kernels run only
// on an unseeked scan with a kernel-form prefix while vectorized execution
// is on; otherwise every conjunct is a closure. nVec, not len(vecPreds),
// ends the prefix: one BETWEEN is two kernels.
func (s *scanNode) filter() rowFilter {
	if s.seek == nil && s.nVec > 0 && VectorizedEnabled() {
		return rowFilter{kernels: s.vecPreds, residual: s.preds[s.nVec:], fill: s.predReads(s.nVec)}
	}
	return rowFilter{residual: s.preds, fill: s.predReads(0)}
}

// forTask is f with its own row and bitmap, for one task over s.
func (f rowFilter) forTask(s *scanNode, env *Env) rowFilter {
	if len(f.residual) > 0 {
		f.ev = &Env{cols: s.cols, outer: env, row: make(storage.Row, len(s.cols))}
	}
	return f
}

// skips reports whether sg's zone maps prove no row passes the kernels.
func (f *rowFilter) skips(sg *storage.Segment) bool {
	for _, p := range f.kernels {
		if segPredSkips(sg.Col(p.col), p) {
			return true
		}
	}
	return false
}

// match appends base+o to out for each row o in [lo, hi) of sg on which
// every conjunct holds, in row order. The first residual error stops it.
func (f *rowFilter) match(ctx *ExecContext, sg *storage.Segment, lo, hi, base int, out []int32) ([]int32, error) {
	// Bit i of the selection is row at+i: the bitmap starts at lo's word.
	at := lo &^ 63
	f.sel = rangeSel(f.sel, lo-at, hi-at)
	for _, p := range f.kernels {
		m, ok := segMatcher(sg.Col(p.col), p)
		if !ok {
			return out, nil
		}
		applyMatch(f.sel, at, m)
	}
	for w, rem := range f.sel {
		for rem != 0 {
			o := at + w*64 + bits.TrailingZeros64(rem)
			rem &= rem - 1
			if f.ev != nil {
				if ok, err := f.pass(ctx, sg, o); !ok {
					if err != nil {
						return nil, err
					}
					continue
				}
			}
			out = append(out, int32(base+o))
		}
	}
	return out, nil
}

// pass reports whether every residual conjunct holds on row o of sg.
func (f *rowFilter) pass(ctx *ExecContext, sg *storage.Segment, o int) (bool, error) {
	for _, c := range f.fill {
		sg.Col(c).Load(o, &f.ev.row[c])
	}
	for _, p := range f.residual {
		v, err := p(ctx, f.ev)
		if err != nil || truth(v) != sqltypes.True {
			return false, err
		}
	}
	return true, nil
}

// rangeSel returns a selection bitmap with bits lo … hi-1 set, reusing
// buf's capacity when possible.
func rangeSel(buf []uint64, lo, hi int) []uint64 {
	w := (hi + 63) / 64
	if cap(buf) < w {
		buf = make([]uint64, w)
	}
	buf = buf[:w]
	for i := range buf {
		buf[i] = ^uint64(0)
	}
	clear(buf[:lo/64])
	buf[lo/64] &^= uint64(1)<<uint(lo%64) - 1
	if r := hi % 64; r != 0 {
		buf[w-1] &= uint64(1)<<uint(r) - 1
	}
	return buf
}

// applyMatch intersects the selection of rows at, at+1, … with m,
// evaluating m only on rows still selected.
func applyMatch(sel []uint64, at int, m func(i int) bool) {
	for w := range sel {
		word := sel[w]
		if word == 0 {
			continue
		}
		rem := word
		for rem != 0 {
			b := bits.TrailingZeros64(rem)
			rem &^= 1 << uint(b)
			if !m(at + w*64 + b) {
				word &^= 1 << uint(b)
			}
		}
		sel[w] = word
	}
}

// selectRows returns the rows of sp, as indices into it, on which every
// conjunct of the scan holds, in clustered order. The segments sp overlaps
// are the morsels, the first and last clipped to sp; when kernels run, zone
// maps first drop the segments no row of which can pass. The rest are
// grouped into at most 4·DOP tasks of whole segments, so per-task overhead
// stays noise even where kernels make a segment cheap, and merging the
// tasks' slots in task order reproduces row order.
func (s *scanNode) selectRows(ctx *ExecContext, env *Env, sp storage.Span) ([]int32, error) {
	filt := s.filter()
	// cand is the segments to read: rows [lo, hi) of sg lie in sp, and
	// sg's first row is span row base.
	type segRows struct {
		sg           *storage.Segment
		lo, hi, base int
	}
	var cand []segRows
	overlapped, rows := 0, 0
	if sp.N > 0 {
		per := sp.Segs[0].Len()
		first, last := sp.Off/per, (sp.Off+sp.N-1)/per
		overlapped = last - first + 1
		cand = make([]segRows, 0, overlapped)
		for k := first; k <= last; k++ {
			sg := sp.Segs[k]
			if filt.skips(sg) {
				continue
			}
			base := k*per - sp.Off
			c := segRows{sg, max(0, -base), min(sg.Len(), sp.N-base), base}
			cand = append(cand, c)
			rows += c.hi - c.lo
		}
	}
	if filt.kernels != nil {
		ctx.noteSegments(s, int64(len(cand)), int64(overlapped-len(cand)))
	}
	if len(cand) == 0 {
		return nil, nil
	}
	maxTasks := 4 * max(ctx.DOP, 1)
	width := (len(cand) + maxTasks - 1) / maxTasks
	kept := make([][]int32, (len(cand)+width-1)/width)
	if _, err := parallelRun(ctx, s, rows, len(kept), func(t int) error {
		f := filt.forTask(s, env)
		var out []int32
		for _, c := range cand[t*width : min(t*width+width, len(cand))] {
			var err error
			if out, err = f.match(ctx, c.sg, c.lo, c.hi, c.base, out); err != nil {
				return err
			}
		}
		kept[t] = out
		return nil
	}); err != nil {
		return nil, err
	}
	return concatSlots(kept), nil
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

// execVecScalar evaluates a scalar aggregation fused with its scan: segment
// by segment, the scan's rowFilter picks the survivors and each aggregate
// folds the column's typed array directly, without materializing the scan
// output or per-row argument vectors. Error precedence mirrors the unfused
// plan: residual predicate errors surface immediately, then the scan's
// row-limit check on the survivor count, then the first failing aggregate
// in spec order.
func (a *streamAggregateNode) execVecScalar(ctx *ExecContext, env *Env, s *scanNode) (*relation, error) {
	segs := s.table.All().Segs
	states := make([]vecAggState, len(a.specs))
	cols := make([]int, len(a.specs)) // the table column each argument reads
	for i, spec := range a.specs {
		states[i].aggAcc = newAggAcc(spec.name, spec.outType)
		if !spec.star {
			cols[i] = s.tableCol(spec.argCol)
		}
	}
	f := s.filter().forTask(s, env)
	var surv []int32
	var scanned, survivors, bytes int64
	start := time.Now()
	for _, sg := range segs {
		if err := ctx.canceled(); err != nil {
			return nil, err
		}
		if f.skips(sg) {
			continue
		}
		scanned++
		n := sg.Len()
		// With no conjunct every row survives and surv stays nil: the
		// common unfiltered aggregate pays no bitmap work at all.
		if len(s.preds) > 0 {
			var err error
			if surv, err = f.match(ctx, sg, 0, n, 0, surv[:0]); err != nil {
				return nil, err
			}
			if len(surv) == 0 {
				continue
			}
			n = len(surv)
		}
		survivors += int64(n)
		// The survivors are measured as the unfused scan's output would be.
		for j := range s.props.Cols {
			bytes += vecBytes(sg.Col(s.tableCol(j)), surv)
		}
		for i := range a.specs {
			updateVecAgg(&states[i], &a.specs[i], cols[i], sg, n, surv)
		}
	}
	ctx.noteSegments(s, scanned, int64(len(segs))-scanned)
	// The scan ran once, fused, and produced no relation for execOp to note:
	// its wall is the fused loop's.
	ctx.noteOp(s, survivors, bytes, time.Since(start))
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

// updateVecAgg folds n surviving rows of one segment's table column col
// into one aggregate's accumulator: the rows at offsets surv, or with surv
// nil the segment's first n rows. Int and Float vectors go in through the
// accumulator's typed adds, everything else through add of the cell — the
// operations the grouped fold uses.
func updateVecAgg(st *vecAggState, spec *aggSpec, col int, sg *storage.Segment, n int, surv []int32) {
	if st.err != nil || spec.star {
		return
	}
	vec := sg.Col(col)
	each := func(f func(i int)) {
		if surv == nil {
			for i := 0; i < n; i++ {
				f(i)
			}
			return
		}
		for _, i := range surv {
			f(int(i))
		}
	}
	switch {
	case st.op == aggCount && !vec.HasNulls:
		st.n += int64(n)
	case vec.Enc == storage.EncInt:
		each(func(i int) {
			if !vec.IsNull(i) {
				st.addInt(vec.Ints[i])
			}
		})
	case vec.Enc == storage.EncFloat:
		each(func(i int) {
			if !vec.IsNull(i) {
				st.addFloat(vec.Floats[i])
			}
		})
	default:
		each(func(i int) {
			if st.err == nil {
				st.err = st.add(vec.Value(i))
			}
		})
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
