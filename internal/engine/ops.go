package engine

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"unsafe"

	"sqlshare/internal/sqltypes"
	"sqlshare/internal/storage"
)

// ---------------------------------------------------------------- scans

// seekInfo is the key range a seek reads on the leading clustered column:
// eq for `=`, otherwise a lower and/or an upper bound. A NULL bound (the zero
// Value) leaves that end open; a literal NULL is never a seek key.
type seekInfo struct {
	eq           bool
	lo, hi       sqltypes.Value // eq: lo is the key
	incLo, incHi bool
}

// bound narrows the range by `col op val`, reporting false when that end is
// already taken (the conjunct then stays a row predicate).
func (k *seekInfo) bound(op string, val sqltypes.Value) bool {
	switch {
	case k.eq:
		return false
	case (op == ">" || op == ">=") && k.lo.IsNull():
		k.lo, k.incLo = val, op == ">="
	case (op == "<" || op == "<=") && k.hi.IsNull():
		k.hi, k.incHi = val, op == "<="
	default:
		return false
	}
	return true
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
	rel := &relation{cols: s.props.Cols}
	var rows []storage.Row
	switch k := s.seek; {
	case k == nil && len(s.preds) == 0 && ctx.measuring():
		// The whole table by reference: its size is already measured, column
		// by column, in the segment statistics.
		var segs []*storage.Segment
		rows, segs = s.table.ScanSegments()
		var size int64
		for _, sg := range segs {
			for c := range s.props.Cols {
				size += sg.Col(c).Bytes
			}
		}
		rel.setBytes(size)
	case k == nil:
		rows = s.table.Scan()
	case k.eq:
		rows = s.table.SeekEqual(k.lo)
	default:
		rows = s.table.SeekRange(k.lo, k.hi, k.incLo, k.incHi)
		// NULLs cluster at the front and never satisfy a comparison; a
		// range with an open lower end must skip them. They are a
		// contiguous prefix of the clustered order, so binary-search the
		// first non-NULL row instead of stepping over them one by one.
		if k.lo.IsNull() {
			rows = rows[sort.Search(len(rows), func(i int) bool {
				return !rows[i][0].IsNull()
			}):]
		}
	}
	// The scan output aliases the table's clustered slice instead of copying
	// any row; a predicate narrows it to an index vector (see relation).
	rel.rows = rows
	if len(s.preds) == 0 {
		return rel, nil
	}
	// Pushed-down predicate evaluation over contiguous row-range tasks.
	// Each task filters its range into its own slot; merging slots in task
	// order reproduces the serial output order exactly. Task width grows
	// with the input (scanTaskLayout) so cheap predicates are not dominated
	// by per-task overhead at low DOP.
	ntasks, width := scanTaskLayout(len(rows), ctx.DOP)
	kept := make([][]int32, ntasks)
	if _, err := parallelRun(ctx, s, len(rows), len(kept), func(t int) error {
		lo, hi := t*width, t*width+width
		if hi > len(rows) {
			hi = len(rows)
		}
		ev := &Env{cols: s.props.Cols, outer: env}
		var out []int32
		for i := lo; i < hi; i++ {
			ev.row = rows[i]
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
				out = append(out, int32(i))
			}
		}
		kept[t] = out
		return nil
	}); err != nil {
		return nil, err
	}
	return rel.pick(concatSlots(kept)), nil
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
	in, err := execOp(ctx, f.children[0], env)
	if err != nil {
		return nil, err
	}
	defer ctx.releaseRel(in)
	n := in.len()
	kept := make([][]int32, morselCount(n))
	if _, err := parallelRun(ctx, f, n, len(kept), func(t int) error {
		lo, hi := morselBounds(t, n)
		ev := &Env{cols: in.cols, outer: env}
		rd := in.reader()
		var sel []int32
		for i := lo; i < hi; i++ {
			ev.row = rd.row(i)
			v, err := f.pred(ctx, ev)
			if err != nil {
				return err
			}
			if truth(v) == sqltypes.True {
				sel = append(sel, int32(i))
			}
		}
		kept[t] = sel
		return nil
	}); err != nil {
		return nil, err
	}
	return in.pick(concatSlots(kept)), nil
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
	// projection only composes the input's column map.
	srcCols []int
}

func (p *projectNode) exec(ctx *ExecContext, env *Env) (*relation, error) {
	in, err := execOp(ctx, p.children[0], env)
	if err != nil {
		return nil, err
	}
	defer ctx.releaseRel(in)
	if p.srcCols != nil {
		// The compiled column-ref closures return exactly the input's cell,
		// so the mapped output is value-identical to the expression path.
		return in.project(p.props.Cols, p.srcCols), nil
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
	left, err := execOp(ctx, n.children[0], env)
	if err != nil {
		return nil, err
	}
	defer ctx.releaseRel(left)
	right, err := execOp(ctx, n.children[1], env)
	if err != nil {
		return nil, err
	}
	defer ctx.releaseRel(right)
	// The predicate reads each candidate pair in one reused scratch row; a
	// pair is recorded only when it matches.
	nl, nr := left.len(), right.len()
	ev := &Env{cols: n.props.Cols, outer: env}
	pr := newPairReader(left, right)
	rightMatched := make([]bool, nr)
	var lidx, ridx []int32
	for li := 0; li < nl; li++ {
		// O(n·m) with no morsel boundaries: recheck cancellation every few
		// outer rows so a kill lands promptly mid-join.
		if li%64 == 0 {
			if err := ctx.canceled(); err != nil {
				return nil, err
			}
		}
		if n.pred != nil {
			pr.setLeft(li)
		}
		matched := false
		for ri := 0; ri < nr; ri++ {
			if n.pred != nil {
				ev.row = pr.pair(ri)
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
			lidx, ridx = append(lidx, int32(li)), append(ridx, int32(ri))
		}
		if !matched && (n.side == joinLeftOuter || n.side == joinFullOuter) {
			lidx, ridx = append(lidx, int32(li)), append(ridx, -1)
		}
	}
	if n.side == joinRightOuter || n.side == joinFullOuter {
		for ri, m := range rightMatched {
			if !m {
				lidx, ridx = append(lidx, -1), append(ridx, int32(ri))
			}
		}
	}
	return joinRel(n.props.Cols, left, right, lidx, ridx), nil
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
	left, err := execOp(ctx, h.children[0], env)
	if err != nil {
		return nil, err
	}
	defer ctx.releaseRel(left)
	right, err := execOp(ctx, h.children[1], env)
	if err != nil {
		return nil, err
	}
	defer ctx.releaseRel(right)
	// Build phase: the build-side join keys as typed columns (evaluated over
	// row-range morsels), then one table of distinct keys, each chaining its
	// rows in ascending row order. Rows with a NULL key never join and stay
	// out of it.
	nr := right.len()
	rkeys, err := buildKeys(ctx, h, right, env, h.rightKeys)
	if err != nil {
		return nil, err
	}
	build := newRowTable(rkeys, nr)
	// Account for the build table's working state — the key columns and the
	// table over them, held until the join returns. This is the allocation a
	// runaway many-to-many join makes before its output materializes, so the
	// budget must see it.
	if ctx.accounting() {
		b := rkeys.bytes() + build.bytes()
		if err := ctx.reserve(h, b); err != nil {
			return nil, err
		}
		defer ctx.release(b)
	}
	// Probe phase: morsel-parallel over the left input. Each task emits the
	// index pairs of its contiguous left range into its own slots; merging
	// slots in task order reproduces the serial output order (left order,
	// and per left row the build chain's ascending right order). Right-match
	// flags are set atomically — multiple probes may match the same build row.
	rightMatched := make([]int32, nr)
	nl := left.len()
	lslots := make([][]int32, morselCount(nl))
	rslots := make([][]int32, len(lslots))
	// outBytes accumulates the logical size of every output row — its left
	// row's size plus its right row's — as the probe tasks emit them; with
	// accounting on each batch is also reserved as it is measured, so an
	// exploding many-to-many join trips the budget while probing, morsel by
	// morsel, instead of only after the full output exists. The total is the
	// output's size (execOp does not measure it again) and, under accounting,
	// its charge (execOp does not charge it again).
	var outBytes atomic.Int64
	measure := ctx.measuring()
	var rsize []int64
	if measure {
		rsize = rowSizes(right)
	}
	nullBytes := int64(sqltypes.NullValue().SizeBytes())
	lnull, rnull := nullBytes*int64(len(left.cols)), nullBytes*int64(len(right.cols))
	if _, err := parallelRun(ctx, h, nl, len(lslots), func(t int) error {
		lo, hi := morselBounds(t, nl)
		lrd := left.reader()
		lev := &Env{cols: left.cols, outer: env}
		jev := &Env{cols: h.props.Cols, outer: env}
		var pr *pairReader
		if h.residual != nil {
			pr = newPairReader(left, right)
		}
		keyVals := make([]sqltypes.Value, len(h.leftKeys))
		scratch := make([]probeKey, len(h.leftKeys))
		lidx, ridx := make([]int32, 0, hi-lo), make([]int32, 0, hi-lo)
		// pending is the size of the pairs emitted since the budget was last
		// consulted, which happens while the morsel grows (an exploding
		// many-to-many morsel can emit a million rows — waiting for the end of
		// the task would let it blow far past the limit first).
		var pending int64
		charge := func() error {
			b := pending
			pending = 0
			outBytes.Add(b)
			return ctx.reserve(h, b)
		}
		for li := lo; li < hi; li++ {
			// A many-to-many probe can emit thousands of rows per left row,
			// so the between-morsels cancellation check alone would let a
			// killed query run on for the rest of the morsel. Recheck per
			// left row (amortized to noise by the match fan-out), and charge
			// the rows emitted since the last checkpoint on the same cadence.
			if (li-lo)%64 == 0 {
				if err := ctx.canceled(); err != nil {
					return err
				}
				if err := charge(); err != nil {
					return err
				}
			}
			lrow := lrd.row(li)
			var lsize int64
			if measure {
				lsize = rowBytes(lrow)
			}
			lev.row = lrow
			null := false
			for j, fn := range h.leftKeys {
				v, err := fn(ctx, lev)
				if err != nil {
					return err
				}
				if v.IsNull() {
					null = true // NULL keys never join
					break
				}
				keyVals[j] = v
			}
			matched := false
			if !null {
				// A probe value of another type class than the build column
				// (ok false) shares a key with none of its rows.
				ri, _ := build.probe(keyVals, scratch)
				if ri >= 0 && pr != nil {
					pr.setLeft(li)
				}
				for ; ri >= 0; ri = build.next[ri] {
					if h.residual != nil {
						jev.row = pr.pair(int(ri))
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
					lidx, ridx = append(lidx, int32(li)), append(ridx, ri)
					if measure {
						pending += lsize + rsize[ri]
					}
				}
			}
			if !matched && (h.side == joinLeftOuter || h.side == joinFullOuter) {
				lidx, ridx = append(lidx, int32(li)), append(ridx, -1)
				if measure {
					pending += lsize + rnull
				}
			}
		}
		if err := charge(); err != nil {
			return err
		}
		lslots[t], rslots[t] = lidx, ridx
		return nil
	}); err != nil {
		return nil, err
	}
	lidx, ridx := concatSlots(lslots), concatSlots(rslots)
	if h.side == joinRightOuter || h.side == joinFullOuter {
		var tail int64
		for ri, m := range rightMatched {
			if m == 0 {
				lidx, ridx = append(lidx, -1), append(ridx, int32(ri))
				if measure {
					tail += lnull + rsize[ri]
				}
			}
		}
		outBytes.Add(tail)
		if err := ctx.reserve(h, tail); err != nil {
			return nil, err
		}
	}
	out := joinRel(h.props.Cols, left, right, lidx, ridx)
	if measure {
		out.setBytes(outBytes.Load())
		if ctx.accounting() {
			// Already charged piecemeal; execOp must not charge it again.
			out.memBytes = out.bytes
		}
	}
	return out, nil
}

// mergeJoinNode joins two inputs already sorted on their leading column,
// the join column — chosen when both sides are clustered scans keyed on it
// ("Merge Join"). Inner joins only.
type mergeJoinNode struct{ base }

func (m *mergeJoinNode) exec(ctx *ExecContext, env *Env) (*relation, error) {
	left, err := execOp(ctx, m.children[0], env)
	if err != nil {
		return nil, err
	}
	defer ctx.releaseRel(left)
	right, err := execOp(ctx, m.children[1], env)
	if err != nil {
		return nil, err
	}
	defer ctx.releaseRel(right)
	nl, nr := left.len(), right.len()
	lrd, rrd := left.reader(), right.reader()
	lkey := func(i int) sqltypes.Value { return lrd.row(i)[0] }
	rkey := func(j int) sqltypes.Value { return rrd.row(j)[0] }
	var lidx, ridx []int32
	i, j := 0, 0
	for i < nl && j < nr {
		lv, rv := lkey(i), rkey(j)
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
			for jEnd < nr && sqltypes.SortCompare(rkey(jEnd), rv) == 0 {
				jEnd++
			}
			iEnd := i
			for iEnd < nl && sqltypes.SortCompare(lkey(iEnd), lv) == 0 {
				iEnd++
			}
			for a := i; a < iEnd; a++ {
				for b := j; b < jEnd; b++ {
					lidx, ridx = append(lidx, int32(a)), append(ridx, int32(b))
				}
			}
			i, j = iEnd, jEnd
		}
	}
	return joinRel(m.props.Cols, left, right, lidx, ridx), nil
}

// ---------------------------------------------------------------- sort

// sortKey orders rows either by a precomputed column index or by an
// expression evaluated per row.
type sortKey struct {
	idx  int // used when fn == nil
	fn   exprFn
	desc bool
}

// sortNode sorts, optionally deduplicates on its keys ("Distinct Sort"), and
// optionally trims hidden trailing sort columns.
type sortNode struct {
	base
	keys     []sortKey
	distinct bool
	trimTo   int // 0 = keep all columns
	// top is the Top directly above an ORDER BY sort: the sort then passes on
	// only the rows that Top will keep (SQL Server's "Top N Sort").
	top *topNode
}

func (s *sortNode) exec(ctx *ExecContext, env *Env) (*relation, error) {
	in, err := execOp(ctx, s.children[0], env)
	if err != nil {
		return nil, err
	}
	defer ctx.releaseRel(in)
	n := in.len()
	fns, desc := keyFns(s.keys)
	keys, err := buildKeys(ctx, s, in, env, fns)
	if err != nil {
		return nil, err
	}
	keys.desc = desc
	// The sort buffer — the key columns and the index array ordered against
	// them — is working state held until the sort returns; charge it against
	// the budget.
	if ctx.accounting() {
		kb := keys.bytes() + 8*int64(n)
		if err := ctx.reserve(s, kb); err != nil {
			return nil, err
		}
		defer ctx.release(kb)
	}
	// goal is how many rows the parent wants. When the order is a strict
	// weak one, each chunk keeps a heap of its goal smallest rows instead of
	// sorting all of them; otherwise the rows are fully sorted and cut.
	goal := n
	if s.top != nil {
		goal = s.top.limit(n)
	}
	bounded := goal < n && keys.ordered()
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	// Parallel sort: split the index array into contiguous chunks, sort
	// each chunk in parallel, then k-way merge. keys.less is a total strict
	// order, so this reproduces exactly what a stable sort of the whole input
	// produces, at every chunk count.
	chunks := morselCount(n)
	if chunks > 16 {
		chunks = 16
	}
	parts := make([][]int, chunks)
	if _, err := parallelRun(ctx, s, n, chunks, func(t int) error {
		part := order[t*n/chunks : (t+1)*n/chunks]
		if bounded {
			part = smallest(part, goal, keys.less)
		}
		sort.Slice(part, func(a, b int) bool { return keys.less(part[a], part[b]) })
		parts[t] = part
		return nil
	}); err != nil {
		return nil, err
	}
	order = mergeSortedChunks(parts, goal, keys.less)
	var sel []int32
	if s.distinct {
		// One row per key: the first of each group along the sorted order.
		g := keys.group(len(order), order, true)
		if ctx.accounting() {
			gb := g.bytes()
			if err := ctx.reserve(s, gb); err != nil {
				return nil, err
			}
			defer ctx.release(gb)
		}
		sel = g.first
	} else {
		sel = make([]int32, len(order))
		for i, r := range order {
			sel[i] = int32(r)
		}
	}
	out := in.pick(sel)
	if s.trimTo > 0 && s.trimTo < len(in.cols) {
		out = out.trim(s.trimTo)
	} else if len(sel) == n && in.sized {
		out.setBytes(in.bytes) // a permutation of rows already measured
	}
	return out, nil
}

// smallest rearranges part so that its first k entries are its k smallest
// under less (in heap order) and returns them: a max-heap of k candidates
// that each later entry enters only by beating the root.
func smallest(part []int, k int, less func(a, b int) bool) []int {
	if k >= len(part) {
		return part
	}
	heap := part[:k]
	down := func(i int) {
		for {
			c := 2*i + 1
			if c >= k {
				return
			}
			if c+1 < k && less(heap[c], heap[c+1]) {
				c++
			}
			if !less(heap[i], heap[c]) {
				return
			}
			heap[i], heap[c] = heap[c], heap[i]
			i = c
		}
	}
	for i := k/2 - 1; i >= 0; i-- {
		down(i)
	}
	if k > 0 {
		for _, x := range part[k:] {
			if less(x, heap[0]) {
				heap[0] = x
				down(0)
			}
		}
	}
	return heap
}

// ---------------------------------------------------------------- aggregate

// streamAggregateNode groups its input and computes aggregates. Output
// columns are the group keys followed by the aggregate results, one row per
// group in key order. When the builder guarantees the input arrives ordered
// on the group keys (sorted: the clustered order of a scan grouped on its
// leading column) it streams — a group ends where the key changes;
// otherwise, and always under the "Hash Match" name, it assigns groups
// through a hash table (keySet.group decides).
type streamAggregateNode struct {
	base
	groupFns []exprFn
	specs    []aggSpec
	scalar   bool // aggregate without GROUP BY: exactly one output row
	sorted   bool // the input is ordered on the group keys, ascending
}

func (a *streamAggregateNode) exec(ctx *ExecContext, env *Env) (*relation, error) {
	if VectorizedEnabled() {
		if sc := fusedAggScan(a); sc != nil {
			return a.execVecScalar(ctx, env, sc)
		}
	}
	in, err := execOp(ctx, a.children[0], env)
	if err != nil {
		return nil, err
	}
	defer ctx.releaseRel(in)
	out := &relation{cols: a.props.Cols}
	n := in.len()
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
				rd := in.reader()
				for ri := lo; ri < hi; ri++ {
					ev.row = rd.row(ri)
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
	// Grouped aggregation, phase 1: the group keys of every row as typed
	// columns, evaluated over row-range morsels.
	keys, err := buildKeys(ctx, a, in, env, a.groupFns)
	if err != nil {
		return nil, err
	}
	// Phase 2: give every row its group id, serially in row order, so ids
	// run in first-seen order at every DOP; input in key order streams.
	g := keys.group(n, nil, a.sorted)
	gids, first := g.ids, g.first
	ns := len(a.specs)
	// Aggregation state: the key columns, the group ids, and one accumulator
	// per group per aggregate, held through the fold.
	if ctx.accounting() {
		gb := keys.bytes() + g.bytes() + int64(len(first)*ns)*int64(unsafe.Sizeof(aggAcc{}))
		if err := ctx.reserve(a, gb); err != nil {
			return nil, err
		}
		defer ctx.release(gb)
	}
	// Phase 3: one pass over the input in row order folds every row's
	// arguments into its group's accumulators — each argument is evaluated
	// exactly once and each group sees its values in row order, which pins
	// FLOAT sums bit for bit.
	accs := make([]aggAcc, len(first)*ns)
	for i := range accs {
		spec := &a.specs[i%ns]
		accs[i] = newAggAcc(spec.name, spec.outType)
	}
	fold := groupFold{specs: a.specs, accs: accs}
	ev := &Env{cols: in.cols, outer: env}
	rd := in.reader()
	for ri := 0; ri < n; ri++ {
		if ri%1024 == 1023 {
			if err := ctx.canceled(); err != nil {
				return nil, err
			}
		}
		ev.row = rd.row(ri)
		fold.add(ctx, ev, int(gids[ri])*ns)
	}
	// Deterministic output: order groups by key values (stable, so groups
	// SortCompare ties keep first-seen order).
	groups := make([]int32, len(first))
	for g := range groups {
		groups[g] = int32(g)
	}
	sort.SliceStable(groups, func(i, j int) bool {
		return keys.cmp(int(first[groups[i]]), int(first[groups[j]])) < 0
	})
	// Phase 4: one output row per group, in that order — the key values of
	// the group's first row, then the results. An aggregate that failed
	// surfaces here, so the error reported is the first in group order, as
	// when groups were finalized one after another.
	for _, g := range groups {
		if err := fold.err(int(g) * ns); err != nil {
			return nil, err
		}
		row := make(storage.Row, 0, len(a.groupFns)+ns)
		ev.row = rd.row(int(first[g]))
		for _, fn := range a.groupFns {
			v, err := fn(ctx, ev)
			if err != nil {
				return nil, err
			}
			row = append(row, v)
		}
		for si := 0; si < ns; si++ {
			v, err := accs[int(g)*ns+si].result()
			if err != nil {
				return nil, err
			}
			row = append(row, v)
		}
		out.rows = append(out.rows, row)
	}
	return out, nil
}

// groupFold folds rows into per-group accumulators; accs[base+si] is
// aggregate si of the group whose accumulators start at base.
type groupFold struct {
	specs []aggSpec
	accs  []aggAcc
	// seen is the DISTINCT aggregates' per-accumulator set of folded keys.
	seen map[int]map[string]struct{}
	// failed records, per accumulator, its first argument-evaluation error
	// and its first fold error. An accumulator's argument error outranks its
	// fold error wherever the two arose (every argument of a group used to
	// be evaluated before any was folded), so a failed fold keeps evaluating.
	failed map[int]*[2]error
}

// add folds the current row of ev into the accumulators starting at base.
func (f *groupFold) add(ctx *ExecContext, ev *Env, base int) {
	for si := range f.specs {
		spec, at := &f.specs[si], base+si
		if spec.star {
			f.accs[at].n++
			continue
		}
		fail := f.failed[at]
		if fail != nil && fail[0] != nil {
			continue
		}
		v, err := spec.argFn(ctx, ev)
		if err != nil {
			f.fail(at, 0, err)
			continue
		}
		if fail != nil {
			continue
		}
		if spec.distinct && !v.IsNull() {
			if f.seen == nil {
				f.seen = map[int]map[string]struct{}{}
			}
			set := f.seen[at]
			if set == nil {
				set = map[string]struct{}{}
				f.seen[at] = set
			}
			k := v.Key()
			if _, dup := set[k]; dup {
				continue
			}
			set[k] = struct{}{}
		}
		if err := f.accs[at].add(v); err != nil {
			f.fail(at, 1, err)
		}
	}
}

func (f *groupFold) fail(at, kind int, err error) {
	if f.failed == nil {
		f.failed = map[int]*[2]error{}
	}
	if f.failed[at] == nil {
		f.failed[at] = &[2]error{}
	}
	f.failed[at][kind] = err
}

// err is the error of the group whose accumulators start at base: that of
// its first failed aggregate.
func (f *groupFold) err(base int) error {
	for si := range f.specs {
		if fail := f.failed[base+si]; fail != nil {
			if fail[0] != nil {
				return fail[0]
			}
			return fail[1]
		}
	}
	return nil
}

// ---------------------------------------------------------------- top

type topNode struct {
	base
	count   int64
	percent bool
}

// limit is how many of rows input rows the operator keeps.
func (t *topNode) limit(rows int) int {
	n := t.count
	if t.percent {
		n = int64(math.Ceil(float64(rows) * float64(t.count) / 100.0))
	}
	if n < 0 {
		n = 0
	}
	if n > int64(rows) {
		n = int64(rows)
	}
	return int(n)
}

func (t *topNode) exec(ctx *ExecContext, env *Env) (*relation, error) {
	in, err := execOp(ctx, t.children[0], env)
	if err != nil {
		return nil, err
	}
	defer ctx.releaseRel(in)
	n := in.len()
	k := n
	// A sort that was told the row goal has already applied it.
	if srt, ok := t.children[0].(*sortNode); !ok || srt.top != t {
		k = t.limit(n)
	}
	out := in.prefix(k)
	if k == n && in.sized {
		out.setBytes(in.bytes)
	}
	return out, nil
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
	// A row's identity under set semantics is its group in one key set over
	// the left rows followed by the right rows. Groups are numbered in the
	// order the rows meet them, so the left rows' groups come first, in left
	// order, each with its first left row.
	nl := len(left.rows)
	both := &relation{cols: left.cols, rows: append(left.rows[:nl:nl], right.rows...)}
	fns := make([]exprFn, len(h.props.Cols))
	for j := range fns {
		fns[j] = colFn(j)
	}
	keys, err := buildKeys(ctx, h, both, env, fns)
	if err != nil {
		return nil, err
	}
	g := keys.group(len(both.rows), nil, false)
	if ctx.accounting() {
		b := keys.bytes() + g.bytes() + 24*int64(len(both.rows))
		if err := ctx.reserve(h, b); err != nil {
			return nil, err
		}
		defer ctx.release(b)
	}
	inRight := make([]bool, len(g.first))
	for _, id := range g.ids[nl:] {
		inRight[id] = true
	}
	out := &relation{cols: h.props.Cols}
	for id, r := range g.first {
		if int(r) >= nl {
			break
		}
		if inRight[id] != h.anti {
			out.rows = append(out.rows, left.rows[r])
		}
	}
	return out, nil
}

// ---------------------------------------------------------------- windows

// segmentNode marks partition boundaries ("Segment"). Materially it is a
// pass-through; it exists so plans carry the same operator sequence SQL
// Server emits for windowed queries.
type segmentNode struct{ base }

func (s *segmentNode) exec(ctx *ExecContext, env *Env) (*relation, error) {
	return execOp(ctx, s.children[0], env)
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
	in, err := execOp(ctx, w.children[0], env)
	if err != nil {
		return nil, err
	}
	defer ctx.releaseRel(in)
	// The output rows are the window's own: each input row's cells, then the
	// window columns. The keys and the functions read the input cells there.
	n, width := in.len(), len(in.cols)
	outRows := make([]storage.Row, n)
	rd := in.reader()
	for i := range outRows {
		nr := make(storage.Row, width, width+len(w.calls))
		copy(nr, rd.row(i))
		outRows[i] = nr
	}
	own := &relation{cols: in.cols, rows: outRows}
	// Partitions are the groups of the partition keys, on which the input
	// arrives sorted; each keeps its rows in input order. Peers are rows
	// whose order keys compare equal.
	pkeys, err := buildKeys(ctx, w, own, env, w.partFns)
	if err != nil {
		return nil, err
	}
	parts := pkeys.group(n, nil, true)
	peers, err := w.peerKeys(ctx, env, own)
	if err != nil {
		return nil, err
	}
	if ctx.accounting() {
		b := pkeys.bytes() + parts.bytes() + 8*int64(n)
		if peers != nil {
			b += peers.bytes()
		}
		if err := ctx.reserve(w, b); err != nil {
			return nil, err
		}
		defer ctx.release(b)
	}
	byPart := make([][]int, len(parts.first))
	for i, id := range parts.ids {
		byPart[id] = append(byPart[id], i)
	}
	// Partitions are disjoint row sets, so they can be computed in
	// parallel: each task appends this partition's window columns to its
	// own rows only, in the fixed call order.
	if _, err := parallelRun(ctx, w, n, len(byPart), func(p int) error {
		idxs := byPart[p]
		for _, call := range w.calls {
			vals, err := w.computeCall(ctx, env, own, peers, idxs, call)
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

// peerKeys is the order keys over in's rows, nil without ORDER BY. The Sort
// below the window has evaluated the same keys on the same rows.
func (w *windowProjectNode) peerKeys(ctx *ExecContext, env *Env, in *relation) (*keySet, error) {
	if len(w.orderKeys) == 0 {
		return nil, nil
	}
	fns, _ := keyFns(w.orderKeys)
	return buildKeys(ctx, w, in, env, fns)
}

// computeCall evaluates one window function over one partition (idxs are
// row indices into in, in window order); peers holds the order keys (see
// peerKeys).
func (w *windowProjectNode) computeCall(ctx *ExecContext, env *Env, in *relation, peers *keySet, idxs []int, call windowCall) ([]sqltypes.Value, error) {
	out := make([]sqltypes.Value, len(idxs))
	ev := &Env{cols: in.cols, outer: env}
	rd := in.reader()
	// peer reports whether the rows at positions i and j share their order
	// keys.
	peer := func(i, j int) bool { return peers == nil || peers.cmp(idxs[i], idxs[j]) == 0 }
	switch call.name {
	case "ROW_NUMBER":
		for i := range idxs {
			out[i] = sqltypes.NewInt(int64(i + 1))
		}
	case "RANK", "DENSE_RANK":
		rank, dense := int64(1), int64(1)
		for i := range idxs {
			if i > 0 && !peer(i, i-1) {
				rank = int64(i + 1)
				dense++
			}
			if call.name == "RANK" {
				out[i] = sqltypes.NewInt(rank)
			} else {
				out[i] = sqltypes.NewInt(dense)
			}
		}
	case "NTILE":
		ev.row = rd.row(idxs[0])
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
		var args []sqltypes.Value
		for start := 0; start < len(idxs); {
			end := start + 1
			for end < len(idxs) && peer(end, start) {
				end++
			}
			if call.argFn == nil { // COUNT(*)
				acc.n += int64(end - start)
			} else {
				// Evaluate the whole group before folding any of it, so an
				// argument error outranks a fold error as it does in
				// computeAggregate.
				args = args[:0]
				for _, ri := range idxs[start:end] {
					ev.row = rd.row(ri)
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
	return execOp(ctx, w.children[0], env)
}
