package engine

import (
	"strings"

	"sqlshare/internal/sqlparser"
	"sqlshare/internal/sqltypes"
)

// The builder emits a query's plain tree: a scan reads its whole table, a
// WHERE clause is a Filter above the FROM items it reads, a view is its
// body's block, an equi-join hashes, a GROUP BY hashes and a Sort orders
// every row it is given. rewrite is the one pass that then decides where
// each conjunct runs and which order each operator relies on: every
// placement and order rule of the planner is one of its cases. It runs
// bottom-up, so a rule sees its inputs rewritten — a view's conjuncts are in
// their scan before its reader's arrive — and it changes no operator's
// output columns, so everything the builder compiled against them holds.
//
//   - A WHERE conjunct that reads one FROM item's scan moves into it, as a
//     seek when it bounds the leading clustered column (placeFilter).
//   - A view body that selects bare columns of a scan becomes that scan
//     (mergeView).
//   - An inner equi-join on one key of two unfiltered scans, each sorted on
//     its side of the key, merges (pickJoin).
//   - A GROUP BY on the column the scan below it is sorted on streams.
//   - A Top hands its row goal to the Sort below it, which then keeps only
//     the rows the Top will.
//
// The order rules read one property, the column a scan's rows are sorted on
// (scanNode.leading); only a scan directly below counts as ordered.
func (b *builder) rewrite(n Node) Node {
	ch := n.Children()
	for i, c := range ch {
		ch[i] = b.rewrite(c)
	}
	switch v := n.(type) {
	case *filterNode:
		if v.where {
			return b.placeFilter(v)
		}
	case *projectNode:
		if v.view {
			return mergeView(v)
		}
	case *hashMatchNode:
		return b.pickJoin(v)
	case *streamAggregateNode:
		if sc, ok := v.children[0].(*scanNode); ok && v.groupCol >= 0 && v.groupCol == sc.leading() {
			v.sorted = true
			v.props.PhysicalOp = "Stream Aggregate"
		}
	case *topNode:
		if srt, ok := v.children[0].(*sortNode); ok && !srt.distinct {
			srt.top = v
		}
	case *semiProbeNode:
		v.inner.node = v.children[0]
	}
	return n
}

// placeFilter moves each conjunct of a WHERE Filter that reads one FROM
// item's scan into that scan, in the order written, and keeps the rest. A
// join the WHERE's own equalities formed (combineFromItems) then chooses its
// strategy again, after the placement; a join written in FROM chose before
// it, when the rewrite reached it.
func (b *builder) placeFilter(f *filterNode) Node {
	in := f.children[0]
	targets := map[string]*scanNode{}
	pushTargets(in, true, targets)
	var kept []conjunct
	for _, c := range f.conjs {
		if !b.tryPushdown(c, in, targets, f.outer) {
			kept = append(kept, c)
		}
	}
	in = b.repickJoins(in)
	if len(kept) == 0 {
		return in
	}
	f.children[0] = in
	f.keep(kept)
	return f
}

// pushTargets collects, by binding, the scans of the FROM items below a
// WHERE that its conjuncts may move into: through joins, on the sides an
// outer join does not pad with NULLs. A later scan of one binding replaces
// an earlier one.
func pushTargets(n Node, ok bool, into map[string]*scanNode) {
	var side joinSide
	switch v := n.(type) {
	case *scanNode:
		if ok {
			into[strings.ToLower(v.binding)] = v
		}
		return
	case *hashMatchNode:
		side = v.side
	case *nestedLoopsNode:
		side = v.side
	case *mergeJoinNode:
		side = joinInner
	default:
		return
	}
	ch := n.Children()
	pushTargets(ch[0], ok && side != joinRightOuter && side != joinFullOuter, into)
	pushTargets(ch[1], ok && side != joinLeftOuter && side != joinFullOuter, into)
}

// tryPushdown moves a WHERE conjunct over the FROM items in into the one
// scan among targets it reads, as a seek when it bounds the scan's leading
// clustered column. It reports whether the conjunct moved.
func (b *builder) tryPushdown(cj conjunct, in Node, targets map[string]*scanNode, outer *scope) bool {
	c := cj.expr
	if exprHasSubquery(c) {
		return false
	}
	refs := exprBindings(c)
	var target *scanNode
	for r := range refs {
		if r == "" {
			// Unqualified: resolvable only if exactly one target has the
			// column; be conservative when several scans exist.
			if len(targets) != 1 {
				return false
			}
			continue
		}
		sc, ok := targets[r]
		if !ok {
			return false
		}
		if target != nil && target != sc {
			return false
		}
		target = sc
	}
	if target == nil {
		if len(targets) != 1 {
			return false
		}
		for _, sc := range targets {
			target = sc
		}
	}
	// An unqualified name that another FROM item also has is ambiguous, and
	// one only another item has is that item's: the conjunct stays above the
	// join either way, where the name resolves against every FROM column.
	owned := true
	walkColumnRefs(c, func(cr *sqlparser.ColumnRef) {
		if cr.Table == "" && namedCols(in.Props().Cols, cr.Name) != namedCols(target.cols, cr.Name) {
			owned = false
		}
	})
	if !owned {
		return false
	}
	// The Filter compiled the conjunct, and noted what it references, against
	// the FROM items. When they are the scan itself, handing on its own first
	// columns, that closure reads the scan's rows as they are; otherwise
	// compile it again against the scan's own columns, which also verifies
	// that every depth-0 reference resolves there.
	sc := &scope{cols: target.cols, outer: outer}
	fn := cj.fn
	if in != Node(target) || !isSeq(target.out) {
		var err error
		if fn, _, err = b.compileQuiet(c, sc); err != nil {
			return false
		}
	}
	// The conjunct's kernel form is its one reading as a comparison of a
	// column with a literal. A comparison that bounds the leading clustered
	// column (seekPred) seeks; a second one that bounds the other end of the
	// same column closes the range, so the seek reads exactly the rows
	// between the two keys.
	vps, vec := extractVecPreds(c, target.cols)
	if p, ok := seekPred(target, vps); ok {
		switch {
		case target.seek == nil:
			target.seek = &seekInfo{}
			if p.op == "=" {
				target.seek.eq, target.seek.lo = true, p.lit
			} else {
				target.seek.bound(p.op, p.lit)
			}
			target.props.PhysicalOp = "Clustered Index Seek"
			target.props.LogicalOp = "Clustered Index Seek"
			target.props.Filters = append(target.props.Filters, cj.sql)
			// Update the estimate for the seek selectivity.
			sel := 0.1
			if p.op != "=" {
				sel = 0.3
			}
			target.props.EstRows *= sel
			return true
		case target.seek.bound(p.op, p.lit):
			target.props.Filters = append(target.props.Filters, cj.sql)
			target.props.EstRows *= 0.3
			return true
		}
	}
	// Kernel-form conjuncts extend the scan's vectorizable prefix; once a
	// conjunct fails to extract, later ones stay closures too so residual
	// evaluation preserves the original conjunct order (and with it error
	// ordering).
	if vec && target.nVec == len(target.preds) {
		target.vecPreds = append(target.vecPreds, vps...)
		target.nVec++
	}
	target.preds = append(target.preds, fn)
	target.predCols = append(target.predCols, readCols(c, target.cols))
	target.props.Filters = append(target.props.Filters, cj.sql)
	target.props.EstRows *= 0.3
	return true
}

// readCols is the columns of cols conjunct c reads — every one named as one
// of its references is — or nil when c holds a subquery, a window or a
// computed LIKE escape, whose reads the walk does not see.
func readCols(c sqlparser.Expr, cols []ColMeta) []int {
	read := []int{}
	opaque := exprHasSubquery(c)
	walkExpr(c, func(x sqlparser.Expr) bool {
		switch n := x.(type) {
		case *sqlparser.ColumnRef:
			for i, col := range cols {
				if strings.EqualFold(col.Name, n.Name) {
					read = append(read, i)
				}
			}
		case *sqlparser.FuncCall:
			opaque = opaque || n.Over != nil
		case *sqlparser.LikeExpr:
			if _, lit := n.Escape.(*sqlparser.Literal); n.Escape != nil && !lit {
				opaque = true
			}
		}
		return true
	})
	if opaque {
		return nil
	}
	return read
}

// mergeView makes a view body that only selects bare columns of the scan
// below it that scan. The scan's own columns are renamed to the view's
// select list — the columns the view does not select lose their names, so
// nothing resolves to them — and the scan hands the select list on through
// its column map: no row is copied for the view, and the reader's WHERE
// moves into the same scan after the view's own conjuncts. A view that
// selects one column twice has no such renaming and keeps its projection.
// The renamed columns carry no Source, as a projection's output does not.
func mergeView(p *projectNode) Node {
	sc, ok := p.children[0].(*scanNode)
	if !ok {
		return p
	}
	cols := make([]ColMeta, len(sc.cols))
	for i, c := range sc.cols {
		cols[i] = ColMeta{Type: c.Type}
	}
	out := make([]int, len(p.srcCols))
	for j, c := range p.srcCols {
		t := sc.tableCol(c)
		if cols[t].Name != "" {
			return p
		}
		cols[t] = p.props.Cols[j]
		out[j] = t
	}
	sc.cols, sc.out, sc.props.Cols = cols, out, p.props.Cols
	sc.binding = p.props.Cols[0].Binding
	return sc
}

// equiKeys is what the rewrite reads of an equi-join's condition: each
// side's key expressions with the scope they compile in, and the input
// column each side's first key is when it is a bare column (-1 otherwise).
type equiKeys struct {
	exprs  [2][]sqlparser.Expr
	scopes [2]*scope
	cols   [2]int
	where  bool // formed from WHERE equalities by combineFromItems
}

// pickJoin chooses an equi-join's strategy: an inner join on one key of two
// unfiltered scans, each sorted on its side of the key, merges; every other
// join hashes, and only then do its keys count as referenced (noteKeys) —
// a merge join compares the scans' rows in place.
func (b *builder) pickJoin(h *hashMatchNode) Node {
	if !mergeable(h) {
		b.noteKeys(h)
		return h
	}
	m := &mergeJoinNode{cols: h.keys.cols, hash: h}
	m.props = Props{PhysicalOp: "Merge Join", LogicalOp: "Inner Join", Cols: h.props.Cols, Filters: h.props.Filters}
	m.children = h.children
	return m
}

func mergeable(h *hashMatchNode) bool {
	if h.side != joinInner || len(h.leftKeys) != 1 || h.residual != nil {
		return false
	}
	for i, c := range h.children[:2] {
		sc, ok := c.(*scanNode)
		if !ok || sc.seek != nil || len(sc.preds) > 0 || h.keys.cols[i] < 0 || h.keys.cols[i] != sc.leading() {
			return false
		}
	}
	return true
}

// repickJoins turns each merge join a WHERE formed below it back into its
// hash join when a conjunct the WHERE placed has since filtered one of its
// scans.
func (b *builder) repickJoins(n Node) Node {
	switch v := n.(type) {
	case *mergeJoinNode:
		if h := v.hash; h.keys.where && !mergeable(h) {
			b.noteKeys(h)
			return h
		}
	case *hashMatchNode, *nestedLoopsNode:
		ch := n.Children()
		ch[0], ch[1] = b.repickJoins(ch[0]), b.repickJoins(ch[1])
	}
	return n
}

// noteKeys compiles a hash join's keys again, now noting the columns and
// operators they reference.
func (b *builder) noteKeys(h *hashMatchNode) {
	k := h.keys
	for i := range k.exprs[0] {
		h.leftKeys[i], _, _ = b.compileExpr(k.exprs[0][i], k.scopes[0])
		h.rightKeys[i], _, _ = b.compileExpr(k.exprs[1][i], k.scopes[1])
	}
}

// namedCols counts the columns called name.
func namedCols(cols []ColMeta, name string) int {
	n := 0
	for _, c := range cols {
		if strings.EqualFold(c.Name, name) {
			n++
		}
	}
	return n
}

// seekPred is the seek bound of a conjunct whose kernel form is vps, with
// its literal as the probe for the leading column's declared type: a
// single =, <, <=, > or >= on that column whose probe is native, on a table
// whose clustered order is the comparisons' order (Table.Ordered). A seek
// binary-searches the clustered order, so any other probe (a number
// against a VARCHAR column, which compares numerically while the rows sort
// lexically) runs as a scan predicate.
func seekPred(sc *scanNode, vps []vecPred) (vecPred, bool) {
	if len(vps) != 1 || vps[0].col != 0 || !sc.table.Ordered() {
		return vecPred{}, false
	}
	p := vps[0]
	switch p.op {
	case "=", "<", "<=", ">", ">=":
		probe := sqltypes.NewProbe(p.lit, sc.cols[0].Type)
		p.lit = probe.Lit
		return p, probe.Mode == sqltypes.ProbeNative
	}
	return vecPred{}, false
}

func flipCmp(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	default:
		return op
	}
}
