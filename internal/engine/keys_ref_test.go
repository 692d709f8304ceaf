package engine

import (
	"sort"

	"sqlshare/internal/sqltypes"
	"sqlshare/internal/storage"
)

// The operators in ops.go read typed key columns (keys.go). What they
// replaced is kept here, as test oracles in the manner of refWindowNode: the
// sort that ordered one []Value per row through SortCompare, the grouped
// aggregate that built a key string, a key slice and a row list per group and
// then copied each group's arguments out before folding them, the join
// that hashed key strings, and INTERSECT/EXCEPT over row key strings. A plan
// with these (and refWindowNode) swapped in (withReferenceOps) must agree
// with the plan as compiled, result for result and error for error.

// computeAggregate evaluates one aggregate over the rows of a group: the
// argument is evaluated per row in row order and the values are folded.
func computeAggregate(ctx *ExecContext, spec aggSpec, cols []ColMeta, rows []storage.Row, outer *Env) (sqltypes.Value, error) {
	if spec.star {
		return sqltypes.NewInt(int64(len(rows))), nil
	}
	ev := &Env{cols: cols, outer: outer}
	raw := make([]sqltypes.Value, len(rows))
	for i, r := range rows {
		ev.row = r
		v, err := spec.argFn(ctx, ev)
		if err != nil {
			return sqltypes.Value{}, err
		}
		raw[i] = v
	}
	return foldAggregate(spec, raw)
}

// refSortNode is the sort over per-row key slices.
type refSortNode struct{ *sortNode }

func (r refSortNode) exec(ctx *ExecContext, env *Env) (*relation, error) {
	s := r.sortNode
	in, err := execNode(ctx, s.children[0], env)
	if err != nil {
		return nil, err
	}
	defer ctx.releaseRel(in)
	n := len(in.rows)
	keyVals := make([][]sqltypes.Value, n)
	if _, err := parallelRun(ctx, s, n, morselCount(n), func(t int) error {
		lo, hi := morselBounds(t, n)
		ev := &Env{cols: in.cols, outer: env}
		for i := lo; i < hi; i++ {
			row := in.rows[i]
			kv := make([]sqltypes.Value, len(s.keys))
			for j, k := range s.keys {
				if k.fn == nil {
					kv[j] = row[k.idx]
					continue
				}
				ev.row = row
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
	chunks := morselCount(n)
	if chunks > 16 {
		chunks = 16
	}
	// Chunking and the merge are the operator's own: what is under test is
	// the order, which here comes from SortCompare over the key slices.
	parts := make([][]int, chunks)
	if _, err := parallelRun(ctx, s, n, chunks, func(t int) error {
		part := order[t*n/chunks : (t+1)*n/chunks]
		sort.Slice(part, func(a, b int) bool { return less(part[a], part[b]) })
		parts[t] = part
		return nil
	}); err != nil {
		return nil, err
	}
	order = mergeSortedChunks(parts, n, less)
	out := &relation{cols: in.cols}
	// A DISTINCT sort keeps the first row of each key along the sorted
	// order. Comparing a row with its neighbour only would keep equal keys
	// the order does not make adjacent: a NaN ties with every number.
	seen := map[string]bool{}
	for _, idx := range order {
		row := in.rows[idx]
		if s.distinct {
			var k string
			for _, v := range keyVals[idx] {
				k += v.Key() + "\x1f"
			}
			if seen[k] {
				continue
			}
			seen[k] = true
		}
		out.rows = append(out.rows, row)
	}
	if s.trimTo > 0 && s.trimTo < len(in.cols) {
		out.cols = in.cols[:s.trimTo]
		for i, row := range out.rows {
			out.rows[i] = row[:s.trimTo]
		}
	}
	// The Top above, not finding the sortNode it gave its row goal to, cuts
	// the fully sorted rows itself.
	return out, nil
}

// refAggNode is grouped aggregation over key strings and per-group row lists.
type refAggNode struct{ *streamAggregateNode }

func (r refAggNode) exec(ctx *ExecContext, env *Env) (*relation, error) {
	a := r.streamAggregateNode
	if a.scalar {
		return a.exec(ctx, env)
	}
	in, err := execNode(ctx, a.children[0], env)
	if err != nil {
		return nil, err
	}
	defer ctx.releaseRel(in)
	out := &relation{cols: a.props.Cols}
	n := len(in.rows)
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
	type group struct {
		keyVals []sqltypes.Value
		rows    []storage.Row
	}
	idx := map[string]int{}
	var groups []*group
	for ri, row := range in.rows {
		gi, ok := idx[keys[ri]]
		if !ok {
			gi = len(groups)
			idx[keys[ri]] = gi
			groups = append(groups, &group{keyVals: kvs[ri]})
		}
		groups[gi].rows = append(groups[gi].rows, row)
	}
	sort.SliceStable(groups, func(i, j int) bool {
		for k := range groups[i].keyVals {
			c := sqltypes.SortCompare(groups[i].keyVals[k], groups[j].keyVals[k])
			if c != 0 {
				return c < 0
			}
		}
		return false
	})
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

// refHashNode is the equi-join over key strings.
type refHashNode struct{ *hashMatchNode }

func (r refHashNode) exec(ctx *ExecContext, env *Env) (*relation, error) {
	h := r.hashMatchNode
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
	hashKey := func(ev *Env, keys []exprFn) (string, bool, error) {
		var k string
		for _, fn := range keys {
			v, err := fn(ctx, ev)
			if err != nil {
				return "", false, err
			}
			if v.IsNull() {
				return "", true, nil // NULL keys never join
			}
			k += v.Key() + "\x1f"
		}
		return k, false, nil
	}
	build := map[string][]int{}
	rev := &Env{cols: right.cols, outer: env}
	for ri, row := range right.rows {
		rev.row = row
		key, null, err := hashKey(rev, h.rightKeys)
		if err != nil {
			return nil, err
		}
		if !null {
			build[key] = append(build[key], ri)
		}
	}
	out := &relation{cols: h.props.Cols}
	rightMatched := make([]bool, len(right.rows))
	lw, rw := relWidth(left), relWidth(right)
	lev := &Env{cols: left.cols, outer: env}
	jev := &Env{cols: h.props.Cols, outer: env}
	for _, lr := range left.rows {
		lev.row = lr
		key, null, err := hashKey(lev, h.leftKeys)
		if err != nil {
			return nil, err
		}
		matched := false
		if !null {
			for _, ri := range build[key] {
				joined := joinRows(lr, right.rows[ri])
				if h.residual != nil {
					jev.row = joined
					v, err := h.residual(ctx, jev)
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
		}
		if !matched && (h.side == joinLeftOuter || h.side == joinFullOuter) {
			out.rows = append(out.rows, joinRows(lr, nullRow(rw)))
		}
	}
	if h.side == joinRightOuter || h.side == joinFullOuter {
		for ri, rr := range right.rows {
			if !rightMatched[ri] {
				out.rows = append(out.rows, joinRows(nullRow(lw), rr))
			}
		}
	}
	return out, nil
}

// refSetOpNode is INTERSECT/EXCEPT over row key strings.
type refSetOpNode struct{ *hashSetOpNode }

func (r refSetOpNode) exec(ctx *ExecContext, env *Env) (*relation, error) {
	h := r.hashSetOpNode
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
	keyOf := func(row storage.Row) string {
		var k string
		for _, v := range row {
			k += v.Key() + "\x1f"
		}
		return k
	}
	rightSet := map[string]bool{}
	for _, row := range right.rows {
		rightSet[keyOf(row)] = true
	}
	out := &relation{cols: h.props.Cols}
	emitted := map[string]bool{}
	for _, row := range left.rows {
		k := keyOf(row)
		if !emitted[k] && rightSet[k] != h.anti {
			emitted[k] = true
			out.rows = append(out.rows, row)
		}
	}
	return out, nil
}

// withReferenceOps swaps every sort, grouped aggregate, hash join, set
// operation and window of the plan for its reference and reports how many it
// replaced.
func withReferenceOps(p *Plan) int {
	swapped := 0
	ref := func(n Node) Node {
		switch v := n.(type) {
		case *sortNode:
			swapped++
			return refSortNode{v}
		case *streamAggregateNode:
			if !v.scalar {
				swapped++
				return refAggNode{v}
			}
		case *hashMatchNode:
			swapped++
			return refHashNode{v}
		case *hashSetOpNode:
			swapped++
			return refSetOpNode{v}
		case *windowProjectNode:
			swapped++
			return refWindowNode{v}
		}
		return n
	}
	var walk func(n Node)
	walk = func(n Node) {
		ch := n.Children()
		for i, c := range ch {
			walk(c)
			ch[i] = ref(c)
		}
	}
	walk(p.Root)
	p.Root = ref(p.Root)
	return swapped
}
