package engine

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"sqlshare/internal/sqltypes"
	"sqlshare/internal/storage"
)

// ---------------------------------------------------------------- scans

type seekInfo struct {
	op  string // "=", "<", "<=", ">", ">="
	val sqltypes.Value
}

// scanNode reads a base table: "Clustered Index Scan" or, when a sargable
// predicate on the leading clustered-key column exists, "Clustered Index
// Seek". All SQLShare tables carry a clustered index (§3.4).
type scanNode struct {
	base
	table *storage.Table
	preds []exprFn
	seek  *seekInfo
	// vecPreds holds the kernel form of the leading nVec entries of preds
	// (the vectorizable conjunct prefix); preds[nVec:] run as residual
	// closures on kernel survivors.
	vecPreds []vecPred
	nVec     int
}

func (s *scanNode) exec(ctx *ExecContext, env *Env) (*relation, error) {
	if s.seek == nil && s.nVec > 0 && VectorizedEnabled() {
		return s.execVec(ctx, env)
	}
	var rows []storage.Row
	if s.seek != nil {
		switch s.seek.op {
		case "=":
			rows = s.table.SeekEqual(s.seek.val)
		case "<":
			rows = s.table.SeekRange(sqltypes.Value{}, s.seek.val, false, false)
		case "<=":
			rows = s.table.SeekRange(sqltypes.Value{}, s.seek.val, false, true)
		case ">":
			rows = s.table.SeekRange(s.seek.val, sqltypes.Value{}, false, false)
		case ">=":
			rows = s.table.SeekRange(s.seek.val, sqltypes.Value{}, true, false)
		}
		// NULLs cluster at the front and never satisfy a comparison; a
		// range seek with an open lower bound must skip them. They are a
		// contiguous prefix of the clustered order, so binary-search the
		// first non-NULL row instead of stepping over them one by one.
		if s.seek.op == "<" || s.seek.op == "<=" {
			rows = rows[sort.Search(len(rows), func(i int) bool {
				return !rows[i][0].IsNull()
			}):]
		}
	} else {
		rows = s.table.Scan()
	}
	rel := &relation{cols: s.props.Cols}
	if len(s.preds) == 0 {
		// No predicates: the scan output aliases the table's clustered
		// slice directly instead of copying every row. This is safe
		// because relations are read-only downstream — operators reslice
		// and rearrange row slices but never write into a row they did
		// not allocate (the no-mutation invariant; see relation).
		rel.rows = rows
		return rel, nil
	}
	// Pushed-down predicate evaluation over contiguous row-range tasks.
	// Each task filters its range into its own slot; merging slots in task
	// order reproduces the serial output order exactly. Task width grows
	// with the input (scanTaskLayout) so cheap predicates are not dominated
	// by per-task overhead at low DOP.
	ntasks, width := scanTaskLayout(len(rows), ctx.DOP)
	kept := make([][]storage.Row, ntasks)
	if _, err := parallelRun(ctx, s, len(rows), len(kept), func(t int) error {
		lo, hi := t*width, t*width+width
		if hi > len(rows) {
			hi = len(rows)
		}
		ev := &Env{cols: s.props.Cols, outer: env}
		var out []storage.Row
		for _, r := range rows[lo:hi] {
			ev.row = r
			keep := true
			for _, p := range s.preds {
				v, err := p(ctx, ev)
				if err != nil {
					return err
				}
				if truth(v) != sqltypes.True {
					keep = false
					break
				}
			}
			if keep {
				out = append(out, r)
			}
		}
		kept[t] = out
		return nil
	}); err != nil {
		return nil, err
	}
	rel.rows = concatRowSlots(kept)
	return rel, nil
}

// constantScanNode produces a single zero-column row, for FROM-less
// SELECTs ("Constant Scan" in SQL Server plans).
type constantScanNode struct{ base }

func (c *constantScanNode) exec(*ExecContext, *Env) (*relation, error) {
	return &relation{cols: nil, rows: []storage.Row{{}}}, nil
}

// ---------------------------------------------------------------- filter

type filterNode struct {
	base
	pred exprFn
}

func (f *filterNode) exec(ctx *ExecContext, env *Env) (*relation, error) {
	in, err := execNode(ctx, f.children[0], env)
	if err != nil {
		return nil, err
	}
	defer ctx.releaseRel(in)
	out := &relation{cols: in.cols}
	kept := make([][]storage.Row, morselCount(len(in.rows)))
	if _, err := parallelRun(ctx, f, len(in.rows), len(kept), func(t int) error {
		lo, hi := morselBounds(t, len(in.rows))
		ev := &Env{cols: in.cols, outer: env}
		var rows []storage.Row
		for _, r := range in.rows[lo:hi] {
			ev.row = r
			v, err := f.pred(ctx, ev)
			if err != nil {
				return err
			}
			if truth(v) == sqltypes.True {
				rows = append(rows, r)
			}
		}
		kept[t] = rows
		return nil
	}); err != nil {
		return nil, err
	}
	out.rows = concatRowSlots(kept)
	return out, nil
}

// ---------------------------------------------------------------- project

// projectNode evaluates the select list. Its PhysicalOp is "Compute Scalar"
// when any item computes a new value; a pure column rearrangement has an
// empty PhysicalOp and is invisible to plan extraction, matching how SQL
// Server folds trivial projection into its scans.
type projectNode struct {
	base
	fns []exprFn
	// srcCols, when non-nil, means every output item is a plain column
	// reference into the input (srcCols[i] = input column index), so the
	// projection is a pure gather that skips expression evaluation.
	srcCols []int
}

func (p *projectNode) exec(ctx *ExecContext, env *Env) (*relation, error) {
	in, err := execNode(ctx, p.children[0], env)
	if err != nil {
		return nil, err
	}
	defer ctx.releaseRel(in)
	if p.srcCols != nil && VectorizedEnabled() {
		// Column gather: index-pick the referenced columns per row. The
		// compiled column-ref closures return exactly in.rows[r][c], so
		// the output is value-identical to the expression path.
		out := make([]storage.Row, len(in.rows))
		ntasks, width := scanTaskLayout(len(in.rows), ctx.DOP)
		if _, err := parallelRun(ctx, p, len(in.rows), ntasks, func(t int) error {
			lo, hi := t*width, t*width+width
			if hi > len(in.rows) {
				hi = len(in.rows)
			}
			for ri := lo; ri < hi; ri++ {
				r := in.rows[ri]
				nr := make(storage.Row, len(p.srcCols))
				for i, c := range p.srcCols {
					nr[i] = r[c]
				}
				out[ri] = nr
			}
			return nil
		}); err != nil {
			return nil, err
		}
		return &relation{cols: p.props.Cols, rows: out}, nil
	}
	rows, err := evalRows(ctx, p, in, p.fns, env)
	if err != nil {
		return nil, err
	}
	return &relation{cols: p.props.Cols, rows: rows}, nil
}

// ---------------------------------------------------------------- joins

type joinSide uint8

const (
	joinInner joinSide = iota
	joinLeftOuter
	joinRightOuter
	joinFullOuter
)

// nestedLoopsNode implements cross joins and non-equi joins.
type nestedLoopsNode struct {
	base
	side joinSide
	pred exprFn // nil = cross join
}

func (n *nestedLoopsNode) exec(ctx *ExecContext, env *Env) (*relation, error) {
	left, err := execNode(ctx, n.children[0], env)
	if err != nil {
		return nil, err
	}
	defer ctx.releaseRel(left)
	right, err := execNode(ctx, n.children[1], env)
	if err != nil {
		return nil, err
	}
	defer ctx.releaseRel(right)
	out := &relation{cols: n.props.Cols}
	ev := &Env{cols: n.props.Cols, outer: env}
	rightMatched := make([]bool, len(right.rows))
	lw, rw := relWidth(left), relWidth(right)
	for li, lr := range left.rows {
		// O(n·m) with no morsel boundaries: recheck cancellation every few
		// outer rows so a kill lands promptly mid-join.
		if li%64 == 0 {
			if err := ctx.canceled(); err != nil {
				return nil, err
			}
		}
		matched := false
		for ri, rr := range right.rows {
			joined := joinRows(lr, rr)
			if n.pred != nil {
				ev.row = joined
				v, err := n.pred(ctx, ev)
				if err != nil {
					return nil, err
				}
				if truth(v) != sqltypes.True {
					continue
				}
			}
			matched = true
			rightMatched[ri] = true
			out.rows = append(out.rows, joined)
		}
		if !matched && (n.side == joinLeftOuter || n.side == joinFullOuter) {
			out.rows = append(out.rows, joinRows(lr, nullRow(rw)))
		}
	}
	if n.side == joinRightOuter || n.side == joinFullOuter {
		for ri, rr := range right.rows {
			if !rightMatched[ri] {
				out.rows = append(out.rows, joinRows(nullRow(lw), rr))
			}
		}
	}
	return out, nil
}

func relWidth(r *relation) int { return len(r.cols) }

func joinRows(l, r storage.Row) storage.Row {
	out := make(storage.Row, 0, len(l)+len(r))
	out = append(out, l...)
	return append(out, r...)
}

func nullRow(w int) storage.Row {
	r := make(storage.Row, w)
	for i := range r {
		r[i] = sqltypes.NullValue()
	}
	return r
}

// hashMatchNode implements equi-joins (inner and outer) by building a hash
// table on the right input ("Hash Match").
type hashMatchNode struct {
	base
	side      joinSide
	leftKeys  []exprFn // evaluated against the left relation
	rightKeys []exprFn // evaluated against the right relation
	residual  exprFn   // extra non-equi conjuncts, evaluated on joined rows
}

func (h *hashMatchNode) exec(ctx *ExecContext, env *Env) (*relation, error) {
	left, err := execNode(ctx, h.children[0], env)
	if err != nil {
		return nil, err
	}
	defer ctx.releaseRel(left)
	right, err := execNode(ctx, h.children[1], env)
	if err != nil {
		return nil, err
	}
	defer ctx.releaseRel(right)
	// Build phase, step 1: evaluate the build-side join keys over
	// row-range morsels. Key strings land in per-row slots, so the pass
	// is order-independent.
	nr := len(right.rows)
	rkeys := make([]string, nr)
	rnull := make([]bool, nr)
	rpart := make([]uint8, nr)
	if _, err := parallelRun(ctx, h, nr, morselCount(nr), func(t int) error {
		lo, hi := morselBounds(t, nr)
		rev := &Env{cols: right.cols, outer: env}
		for ri := lo; ri < hi; ri++ {
			rev.row = right.rows[ri]
			key, null, err := hashKey(ctx, rev, h.rightKeys)
			if err != nil {
				return err
			}
			if null {
				rnull[ri] = true // NULL keys never join
				continue
			}
			rkeys[ri] = key
			rpart[ri] = uint8(hashPartition(key, joinPartitions))
		}
		return nil
	}); err != nil {
		return nil, err
	}
	// Account for the build table's working state: the key strings plus the
	// per-entry bookkeeping of the partition hash maps, held until the join
	// returns. This is the allocation a runaway many-to-many join makes
	// before its output materializes, so the budget must see it.
	if ctx.accounting() {
		var keyBytes int64
		for ri := 0; ri < nr; ri++ {
			if !rnull[ri] {
				keyBytes += int64(len(rkeys[ri])) + hashEntryOverhead
			}
		}
		if err := ctx.reserve(h, keyBytes); err != nil {
			return nil, err
		}
		defer ctx.release(keyBytes)
	}
	// Build phase, step 2: one hash table per partition, built in
	// parallel. Each partition scans the (cheap) partition vector and
	// inserts its rows in ascending row order — the same per-key list
	// order the serial single-table build produces.
	builds := make([]map[string][]int, joinPartitions)
	if _, err := parallelRun(ctx, h, nr, joinPartitions, func(p int) error {
		m := map[string][]int{}
		for ri := 0; ri < nr; ri++ {
			if !rnull[ri] && rpart[ri] == uint8(p) {
				m[rkeys[ri]] = append(m[rkeys[ri]], ri)
			}
		}
		builds[p] = m
		return nil
	}); err != nil {
		return nil, err
	}
	// Probe phase: morsel-parallel over the left input. Each task joins
	// its contiguous left range into its own slot; merging slots in task
	// order reproduces the serial output order (left order, and per left
	// row the build list's ascending right order). Right-match flags are
	// set atomically — multiple probes may match the same build row.
	out := &relation{cols: h.props.Cols}
	rightMatched := make([]int32, nr)
	lw, rw := relWidth(left), relWidth(right)
	nl := len(left.rows)
	slots := make([][]storage.Row, morselCount(nl))
	// outCharged accumulates the bytes each probe task has already reserved
	// for its output slot, so an exploding many-to-many join trips the
	// budget while probing, morsel by morsel, instead of only after the full
	// output exists. The total moves onto out.memBytes below, which tells
	// execNode the output charge is already paid.
	var outCharged atomic.Int64
	if _, err := parallelRun(ctx, h, nl, len(slots), func(t int) error {
		lo, hi := morselBounds(t, nl)
		lev := &Env{cols: left.cols, outer: env}
		jev := &Env{cols: h.props.Cols, outer: env}
		var rows []storage.Row
		// charged tracks how much of rows this task has already reserved, so
		// the budget is consulted while the morsel grows (an exploding
		// many-to-many morsel can emit a million rows — waiting for the end
		// of the task would let it blow far past the limit first).
		charged := 0
		chargeRows := func() error {
			if !ctx.accounting() || len(rows) == charged {
				return nil
			}
			b := rowsBytes(rows[charged:])
			charged = len(rows)
			if err := ctx.reserve(h, b); err != nil {
				return err
			}
			outCharged.Add(b)
			return nil
		}
		for li, lr := range left.rows[lo:hi] {
			// A many-to-many probe can emit thousands of rows per left row,
			// so the between-morsels cancellation check alone would let a
			// killed query run on for the rest of the morsel. Recheck per
			// left row (amortized to noise by the match fan-out), and charge
			// the rows emitted since the last checkpoint on the same cadence.
			if li%64 == 0 {
				if err := ctx.canceled(); err != nil {
					return err
				}
				if err := chargeRows(); err != nil {
					return err
				}
			}
			lev.row = lr
			key, null, err := hashKey(ctx, lev, h.leftKeys)
			matched := false
			if err != nil {
				return err
			}
			if !null {
				for _, ri := range builds[hashPartition(key, joinPartitions)][key] {
					joined := joinRows(lr, right.rows[ri])
					if h.residual != nil {
						jev.row = joined
						v, err := h.residual(ctx, jev)
						if err != nil {
							return err
						}
						if truth(v) != sqltypes.True {
							continue
						}
					}
					matched = true
					atomic.StoreInt32(&rightMatched[ri], 1)
					rows = append(rows, joined)
				}
			}
			if !matched && (h.side == joinLeftOuter || h.side == joinFullOuter) {
				rows = append(rows, joinRows(lr, nullRow(rw)))
			}
		}
		if err := chargeRows(); err != nil {
			return err
		}
		slots[t] = rows
		return nil
	}); err != nil {
		return nil, err
	}
	out.rows = concatRowSlots(slots)
	if h.side == joinRightOuter || h.side == joinFullOuter {
		unmatchedStart := len(out.rows)
		for ri, rr := range right.rows {
			if rightMatched[ri] == 0 {
				out.rows = append(out.rows, joinRows(nullRow(lw), rr))
			}
		}
		if ctx.accounting() {
			b := rowsBytes(out.rows[unmatchedStart:])
			if err := ctx.reserve(h, b); err != nil {
				return nil, err
			}
			outCharged.Add(b)
		}
	}
	if ctx.accounting() {
		// The output is already charged piecemeal; record it on the relation
		// so execNode doesn't charge it a second time.
		out.memBytes = outCharged.Load()
	}
	return out, nil
}

// hashEntryOverhead approximates the per-entry bookkeeping of a build-side
// hash table (map header slot plus the row-index list entry), charged on top
// of the key string itself.
const hashEntryOverhead = 24

func hashKey(ctx *ExecContext, ev *Env, keys []exprFn) (string, bool, error) {
	var k string
	for _, fn := range keys {
		v, err := fn(ctx, ev)
		if err != nil {
			return "", false, err
		}
		if v.IsNull() {
			return "", true, nil
		}
		k += v.Key() + "\x1f"
	}
	return k, false, nil
}

// mergeJoinNode joins two inputs already sorted on their leading join
// column — chosen when both sides are clustered scans keyed on the join
// column ("Merge Join"). Inner joins only.
type mergeJoinNode struct {
	base
	leftIdx, rightIdx int
}

func (m *mergeJoinNode) exec(ctx *ExecContext, env *Env) (*relation, error) {
	left, err := execNode(ctx, m.children[0], env)
	if err != nil {
		return nil, err
	}
	defer ctx.releaseRel(left)
	right, err := execNode(ctx, m.children[1], env)
	if err != nil {
		return nil, err
	}
	defer ctx.releaseRel(right)
	out := &relation{cols: m.props.Cols}
	i, j := 0, 0
	for i < len(left.rows) && j < len(right.rows) {
		lv := left.rows[i][m.leftIdx]
		rv := right.rows[j][m.rightIdx]
		if lv.IsNull() {
			i++
			continue
		}
		if rv.IsNull() {
			j++
			continue
		}
		c := sqltypes.SortCompare(lv, rv)
		switch {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			// Emit the cross product of the equal runs.
			jEnd := j
			for jEnd < len(right.rows) && sqltypes.SortCompare(right.rows[jEnd][m.rightIdx], rv) == 0 {
				jEnd++
			}
			iEnd := i
			for iEnd < len(left.rows) && sqltypes.SortCompare(left.rows[iEnd][m.leftIdx], lv) == 0 {
				iEnd++
			}
			for a := i; a < iEnd; a++ {
				for b := j; b < jEnd; b++ {
					out.rows = append(out.rows, joinRows(left.rows[a], right.rows[b]))
				}
			}
			i, j = iEnd, jEnd
		}
	}
	return out, nil
}

// ---------------------------------------------------------------- sort

// sortKey orders rows either by a precomputed column index or by an
// expression evaluated per row.
type sortKey struct {
	idx  int // used when fn == nil
	fn   exprFn
	desc bool
}

// sortNode sorts, optionally deduplicates ("Distinct Sort"), and optionally
// trims hidden trailing sort columns.
type sortNode struct {
	base
	keys           []sortKey
	distinct       bool
	distinctPrefix int // 0 = full row
	trimTo         int // 0 = keep all columns
}

func (s *sortNode) exec(ctx *ExecContext, env *Env) (*relation, error) {
	in, err := execNode(ctx, s.children[0], env)
	if err != nil {
		return nil, err
	}
	defer ctx.releaseRel(in)
	// Evaluate key vectors once, over row-range morsels (per-row slots, so
	// evaluation order is irrelevant).
	n := len(in.rows)
	keyVals := make([][]sqltypes.Value, n)
	if _, err := parallelRun(ctx, s, n, morselCount(n), func(t int) error {
		lo, hi := morselBounds(t, n)
		ev := &Env{cols: in.cols, outer: env}
		for i := lo; i < hi; i++ {
			r := in.rows[i]
			kv := make([]sqltypes.Value, len(s.keys))
			for j, k := range s.keys {
				if k.fn == nil {
					kv[j] = r[k.idx]
					continue
				}
				ev.row = r
				v, err := k.fn(ctx, ev)
				if err != nil {
					return err
				}
				kv[j] = v
			}
			keyVals[i] = kv
		}
		return nil
	}); err != nil {
		return nil, err
	}
	// The sort buffer — every row's evaluated key vector — is working state
	// held until the sort returns; charge it against the budget.
	if ctx.accounting() {
		var kb int64
		for _, kv := range keyVals {
			for _, v := range kv {
				kb += int64(v.SizeBytes())
			}
		}
		if err := ctx.reserve(s, kb); err != nil {
			return nil, err
		}
		defer ctx.release(kb)
	}
	// less is a total strict order — sort keys, ties broken by original
	// row index — so per-chunk sort + k-way merge reproduces exactly what
	// a stable sort of the whole input produces.
	less := func(a, b int) bool {
		ka, kb := keyVals[a], keyVals[b]
		for j := range s.keys {
			c := sqltypes.SortCompare(ka[j], kb[j])
			if c == 0 {
				continue
			}
			if s.keys[j].desc {
				return c > 0
			}
			return c < 0
		}
		return a < b
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	// Parallel sort: split the index array into contiguous chunks, sort
	// each chunk in parallel, then k-way merge. With one chunk this is a
	// plain serial sort.
	chunks := morselCount(n)
	if chunks > 16 {
		chunks = 16
	}
	if chunks < 1 {
		chunks = 1
	}
	bound := func(t int) int { return t * n / chunks }
	if _, err := parallelRun(ctx, s, n, chunks, func(t int) error {
		part := order[bound(t):bound(t+1)]
		sort.Slice(part, func(a, b int) bool { return less(part[a], part[b]) })
		return nil
	}); err != nil {
		return nil, err
	}
	if chunks > 1 {
		order = mergeSortedChunks(order, chunks, bound, less)
	}
	out := &relation{cols: in.cols}
	var lastKey string
	for _, idx := range order {
		r := in.rows[idx]
		if s.distinct {
			w := s.distinctPrefix
			if w <= 0 || w > len(r) {
				w = len(r)
			}
			var k string
			for _, v := range r[:w] {
				k += v.Key() + "\x1f"
			}
			if out.rows != nil && k == lastKey {
				continue
			}
			lastKey = k
		}
		out.rows = append(out.rows, r)
	}
	if s.trimTo > 0 && s.trimTo < len(in.cols) {
		out.cols = in.cols[:s.trimTo]
		for i, r := range out.rows {
			out.rows[i] = r[:s.trimTo]
		}
	}
	return out, nil
}

// ---------------------------------------------------------------- aggregate

// streamAggregateNode groups its (sorted) input and computes aggregates
// ("Stream Aggregate"). Output columns are the group keys followed by the
// aggregate results.
type streamAggregateNode struct {
	base
	groupFns []exprFn
	specs    []aggSpec
	scalar   bool // aggregate without GROUP BY: exactly one output row
}

func (a *streamAggregateNode) exec(ctx *ExecContext, env *Env) (*relation, error) {
	if VectorizedEnabled() {
		if sc := fusedAggScan(a); sc != nil {
			return a.execVecScalar(ctx, env, sc)
		}
	}
	in, err := execNode(ctx, a.children[0], env)
	if err != nil {
		return nil, err
	}
	defer ctx.releaseRel(in)
	out := &relation{cols: a.props.Cols}
	n := len(in.rows)
	if a.scalar {
		// Scalar aggregation: the expensive part — evaluating each
		// aggregate's argument per row — runs over row-range morsels into
		// per-row slots; the fold then consumes the slots in row order, so
		// FLOAT accumulation order (and with it the result, bit for bit)
		// is identical to serial execution at every DOP.
		argVecs := make([][]sqltypes.Value, len(a.specs))
		evalSpecs := make([]int, 0, len(a.specs))
		for i, spec := range a.specs {
			if !spec.star {
				argVecs[i] = make([]sqltypes.Value, n)
				evalSpecs = append(evalSpecs, i)
			}
		}
		if len(evalSpecs) > 0 {
			if _, err := parallelRun(ctx, a, n, morselCount(n), func(t int) error {
				lo, hi := morselBounds(t, n)
				ev := &Env{cols: in.cols, outer: env}
				for ri := lo; ri < hi; ri++ {
					ev.row = in.rows[ri]
					for _, si := range evalSpecs {
						v, err := a.specs[si].argFn(ctx, ev)
						if err != nil {
							return err
						}
						argVecs[si][ri] = v
					}
				}
				return nil
			}); err != nil {
				return nil, err
			}
		}
		// Aggregation state: the per-row argument vectors held through the
		// fold.
		if ctx.accounting() {
			var ab int64
			for _, si := range evalSpecs {
				for _, v := range argVecs[si] {
					ab += int64(v.SizeBytes())
				}
			}
			if err := ctx.reserve(a, ab); err != nil {
				return nil, err
			}
			defer ctx.release(ab)
		}
		row := make(storage.Row, len(a.specs))
		for i, spec := range a.specs {
			var v sqltypes.Value
			var err error
			if spec.star {
				v = sqltypes.NewInt(int64(n))
			} else {
				v, err = foldAggregate(spec, argVecs[i])
			}
			if err != nil {
				return nil, err
			}
			row[i] = v
		}
		out.rows = []storage.Row{row}
		return out, nil
	}
	// Grouped aggregation, phase 1: evaluate the group key of every row
	// over row-range morsels into per-row slots.
	keys := make([]string, n)
	kvs := make([][]sqltypes.Value, n)
	if _, err := parallelRun(ctx, a, n, morselCount(n), func(t int) error {
		lo, hi := morselBounds(t, n)
		ev := &Env{cols: in.cols, outer: env}
		for ri := lo; ri < hi; ri++ {
			ev.row = in.rows[ri]
			kv := make([]sqltypes.Value, len(a.groupFns))
			var key string
			for i, fn := range a.groupFns {
				v, err := fn(ctx, ev)
				if err != nil {
					return err
				}
				kv[i] = v
				key += v.Key() + "\x1f"
			}
			keys[ri] = key
			kvs[ri] = kv
		}
		return nil
	}); err != nil {
		return nil, err
	}
	// Aggregation state: the per-row group-key strings and key-value vectors
	// held through grouping and finalization.
	if ctx.accounting() {
		var gb int64
		for ri := 0; ri < n; ri++ {
			gb += int64(len(keys[ri]))
			for _, v := range kvs[ri] {
				gb += int64(v.SizeBytes())
			}
		}
		if err := ctx.reserve(a, gb); err != nil {
			return nil, err
		}
		defer ctx.release(gb)
	}
	// Phase 2: assign rows to groups serially in row order — first-seen
	// group order and per-group row order are then exactly the serial
	// ones, which pins both the stable group sort below and the FLOAT
	// accumulation order inside each group.
	type group struct {
		keyVals []sqltypes.Value
		rows    []storage.Row
	}
	idx := map[string]int{}
	var groups []*group
	for ri, r := range in.rows {
		gi, ok := idx[keys[ri]]
		if !ok {
			gi = len(groups)
			idx[keys[ri]] = gi
			groups = append(groups, &group{keyVals: kvs[ri]})
		}
		groups[gi].rows = append(groups[gi].rows, r)
	}
	// Deterministic output: order groups by key values.
	sort.SliceStable(groups, func(i, j int) bool {
		for k := range groups[i].keyVals {
			c := sqltypes.SortCompare(groups[i].keyVals[k], groups[j].keyVals[k])
			if c != 0 {
				return c < 0
			}
		}
		return false
	})
	// Phase 3: finalize groups in parallel — each task owns whole groups
	// (per-group output slots), and within a group every aggregate folds
	// over the group's rows in original row order, exactly as serial
	// execution does.
	outRows := make([]storage.Row, len(groups))
	if _, err := parallelRun(ctx, a, n, len(groups), func(gi int) error {
		g := groups[gi]
		row := make(storage.Row, 0, len(a.groupFns)+len(a.specs))
		row = append(row, g.keyVals...)
		for _, spec := range a.specs {
			v, err := computeAggregate(ctx, spec, in.cols, g.rows, env)
			if err != nil {
				return err
			}
			row = append(row, v)
		}
		outRows[gi] = row
		return nil
	}); err != nil {
		return nil, err
	}
	out.rows = outRows
	if len(outRows) == 0 {
		out.rows = nil
	}
	return out, nil
}

// ---------------------------------------------------------------- top

type topNode struct {
	base
	count   int64
	percent bool
}

func (t *topNode) exec(ctx *ExecContext, env *Env) (*relation, error) {
	in, err := execNode(ctx, t.children[0], env)
	if err != nil {
		return nil, err
	}
	defer ctx.releaseRel(in)
	n := t.count
	if t.percent {
		n = int64(math.Ceil(float64(len(in.rows)) * float64(t.count) / 100.0))
	}
	if n < 0 {
		n = 0
	}
	if n > int64(len(in.rows)) {
		n = int64(len(in.rows))
	}
	return &relation{cols: in.cols, rows: in.rows[:n]}, nil
}

// ---------------------------------------------------------------- set ops

// concatenationNode is UNION ALL ("Concatenation"). Children must be
// column-compatible by position; output uses the first child's names.
type concatenationNode struct{ base }

func (c *concatenationNode) exec(ctx *ExecContext, env *Env) (*relation, error) {
	out := &relation{cols: c.props.Cols}
	width := len(c.props.Cols)
	for _, ch := range c.children {
		rel, err := execNode(ctx, ch, env)
		if err != nil {
			return nil, err
		}
		for _, r := range rel.rows {
			if len(r) != width {
				return nil, fmt.Errorf("engine: UNION operand arity mismatch: %d vs %d", len(r), width)
			}
			out.rows = append(out.rows, r)
		}
		ctx.releaseRel(rel)
	}
	return out, nil
}

// hashSetOpNode implements INTERSECT and EXCEPT with distinct semantics
// ("Hash Match" with a semi/anti-semi logical op).
type hashSetOpNode struct {
	base
	anti bool // true = EXCEPT
}

func (h *hashSetOpNode) exec(ctx *ExecContext, env *Env) (*relation, error) {
	left, err := execNode(ctx, h.children[0], env)
	if err != nil {
		return nil, err
	}
	defer ctx.releaseRel(left)
	right, err := execNode(ctx, h.children[1], env)
	if err != nil {
		return nil, err
	}
	defer ctx.releaseRel(right)
	rightSet := map[string]bool{}
	for _, r := range right.rows {
		rightSet[rowKey(r)] = true
	}
	out := &relation{cols: h.props.Cols}
	emitted := map[string]bool{}
	for _, r := range left.rows {
		k := rowKey(r)
		if emitted[k] {
			continue
		}
		if rightSet[k] != h.anti {
			emitted[k] = true
			out.rows = append(out.rows, r)
		}
	}
	return out, nil
}

func rowKey(r storage.Row) string {
	var k string
	for _, v := range r {
		k += v.Key() + "\x1f"
	}
	return k
}

// ---------------------------------------------------------------- windows

// segmentNode marks partition boundaries ("Segment"). Materially it is a
// pass-through; it exists so plans carry the same operator sequence SQL
// Server emits for windowed queries.
type segmentNode struct{ base }

func (s *segmentNode) exec(ctx *ExecContext, env *Env) (*relation, error) {
	return execNode(ctx, s.children[0], env)
}

// windowCall is one window function computed by a windowProjectNode.
type windowCall struct {
	name    string
	argFn   exprFn // aggregate argument; nil for ranking functions
	ntileFn exprFn // NTILE bucket count
	outType sqltypes.Type
}

// windowProjectNode computes window functions over its (pre-sorted) input,
// appending one column per call. Its PhysicalOp is "Sequence Project" for
// ranking functions and "Stream Aggregate" for windowed aggregates
// (preceded by a "Window Spool" pass-through), mirroring SQL Server.
type windowProjectNode struct {
	base
	partFns   []exprFn
	orderKeys []sortKey // empty = whole-partition frames for aggregates
	calls     []windowCall
	inCols    []ColMeta
}

func (w *windowProjectNode) exec(ctx *ExecContext, env *Env) (*relation, error) {
	in, err := execNode(ctx, w.children[0], env)
	if err != nil {
		return nil, err
	}
	defer ctx.releaseRel(in)
	// Evaluate every row's partition key over row-range morsels, then
	// assign rows to partitions serially so the (already sorted) input
	// order is preserved within and across partitions.
	n := len(in.rows)
	keys := make([]string, n)
	if _, err := parallelRun(ctx, w, n, morselCount(n), func(t int) error {
		lo, hi := morselBounds(t, n)
		ev := &Env{cols: in.cols, outer: env}
		for i := lo; i < hi; i++ {
			ev.row = in.rows[i]
			var key string
			for _, fn := range w.partFns {
				v, err := fn(ctx, ev)
				if err != nil {
					return err
				}
				key += v.Key() + "\x1f"
			}
			keys[i] = key
		}
		return nil
	}); err != nil {
		return nil, err
	}
	partIdx := map[string][]int{}
	var partOrder []string
	for i := range in.rows {
		if _, ok := partIdx[keys[i]]; !ok {
			partOrder = append(partOrder, keys[i])
		}
		partIdx[keys[i]] = append(partIdx[keys[i]], i)
	}
	width := len(in.cols)
	outRows := make([]storage.Row, len(in.rows))
	for i, r := range in.rows {
		nr := make(storage.Row, width, width+len(w.calls))
		copy(nr, r)
		outRows[i] = nr
	}
	// Partitions are disjoint row sets, so they can be computed in
	// parallel: each task appends this partition's window columns to its
	// own rows only, in the fixed call order.
	if _, err := parallelRun(ctx, w, n, len(partOrder), func(p int) error {
		idxs := partIdx[partOrder[p]]
		for _, call := range w.calls {
			vals, err := w.computeCall(ctx, env, in, idxs, call)
			if err != nil {
				return err
			}
			for j, ri := range idxs {
				outRows[ri] = append(outRows[ri], vals[j])
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return &relation{cols: w.props.Cols, rows: outRows}, nil
}

// computeCall evaluates one window function over one partition (idxs are
// row indices into in.rows, in window order).
func (w *windowProjectNode) computeCall(ctx *ExecContext, env *Env, in *relation, idxs []int, call windowCall) ([]sqltypes.Value, error) {
	out := make([]sqltypes.Value, len(idxs))
	ev := &Env{cols: in.cols, outer: env}
	orderKeyAt := func(i int) ([]sqltypes.Value, error) {
		r := in.rows[idxs[i]]
		kv := make([]sqltypes.Value, len(w.orderKeys))
		for j, k := range w.orderKeys {
			if k.fn == nil {
				kv[j] = r[k.idx]
				continue
			}
			ev.row = r
			v, err := k.fn(ctx, ev)
			if err != nil {
				return nil, err
			}
			kv[j] = v
		}
		return kv, nil
	}
	sameOrderKey := func(a, b []sqltypes.Value) bool {
		for j := range a {
			if sqltypes.SortCompare(a[j], b[j]) != 0 {
				return false
			}
		}
		return true
	}
	switch call.name {
	case "ROW_NUMBER":
		for i := range idxs {
			out[i] = sqltypes.NewInt(int64(i + 1))
		}
	case "RANK", "DENSE_RANK":
		rank, dense := int64(1), int64(1)
		var prev []sqltypes.Value
		for i := range idxs {
			kv, err := orderKeyAt(i)
			if err != nil {
				return nil, err
			}
			if i > 0 && !sameOrderKey(kv, prev) {
				rank = int64(i + 1)
				dense++
			}
			if call.name == "RANK" {
				out[i] = sqltypes.NewInt(rank)
			} else {
				out[i] = sqltypes.NewInt(dense)
			}
			prev = kv
		}
	case "NTILE":
		ev.row = in.rows[idxs[0]]
		nv, err := call.ntileFn(ctx, ev)
		if err != nil {
			return nil, err
		}
		n, err := intArg(nv)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("engine: NTILE requires a positive bucket count")
		}
		total := int64(len(idxs))
		big := total % n
		size := total / n
		pos := int64(0)
		for b := int64(1); b <= n && pos < total; b++ {
			sz := size
			if b <= big {
				sz++
			}
			for k := int64(0); k < sz && pos < total; k++ {
				out[pos] = sqltypes.NewInt(b)
				pos++
			}
		}
	default: // windowed aggregate
		// The frame is RANGE UNBOUNDED PRECEDING .. CURRENT ROW, peers
		// included (the SQL default) — without ORDER BY the whole partition
		// is one peer group. Frames only ever grow, so one accumulator runs
		// through the partition: each peer group's arguments are evaluated
		// (once per row), folded in, and the group's rows all read the same
		// result.
		acc := newAggAcc(call.name, call.outType)
		var args, kv []sqltypes.Value // kv: the order key of row start
		for start := 0; start < len(idxs); {
			end := len(idxs)
			if len(w.orderKeys) > 0 {
				if start == 0 {
					var err error
					if kv, err = orderKeyAt(0); err != nil {
						return nil, err
					}
				}
				for end = start + 1; end < len(idxs); end++ {
					nk, err := orderKeyAt(end)
					if err != nil {
						return nil, err
					}
					if !sameOrderKey(nk, kv) {
						kv = nk
						break
					}
				}
			}
			if call.argFn == nil { // COUNT(*)
				acc.n += int64(end - start)
			} else {
				// Evaluate the whole group before folding any of it, so an
				// argument error outranks a fold error as it does in
				// computeAggregate.
				args = args[:0]
				for _, ri := range idxs[start:end] {
					ev.row = in.rows[ri]
					v, err := call.argFn(ctx, ev)
					if err != nil {
						return nil, err
					}
					args = append(args, v)
				}
				for _, v := range args {
					if err := acc.add(v); err != nil {
						return nil, err
					}
				}
			}
			v, err := acc.result()
			if err != nil {
				return nil, err
			}
			for i := start; i < end; i++ {
				out[i] = v
			}
			start = end
		}
	}
	return out, nil
}

// windowSpoolNode is the pass-through that precedes windowed aggregates in
// SQL Server plans ("Window Spool").
type windowSpoolNode struct{ base }

func (w *windowSpoolNode) exec(ctx *ExecContext, env *Env) (*relation, error) {
	return execNode(ctx, w.children[0], env)
}
