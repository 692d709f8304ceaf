package engine

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"sqlshare/internal/sqlparser"
	"sqlshare/internal/sqltypes"
	"sqlshare/internal/storage"
)

const maxViewDepth = 64

// builder turns a query AST into a physical plan.
type builder struct {
	res            Resolver
	viewDepth      int
	tableOrder     []string
	tableSeen      map[string]bool
	colRefs        map[string]map[string]bool
	exprOps        map[string]int
	sawCorrelation bool
	pendingSubs    []Node
	hiddenSeq      int
	// viewOrder maps each scan a view was merged into (mergeIntoScan) to
	// the scan column behind each item of the view's select list.
	viewOrder map[*scanNode][]int
}

func newBuilder(res Resolver) *builder {
	return &builder{
		res:       res,
		tableSeen: map[string]bool{},
		colRefs:   map[string]map[string]bool{},
		exprOps:   map[string]int{},
		viewOrder: map[*scanNode][]int{},
	}
}

// exprOpNames maps SQL arithmetic to the Table 4 vocabulary used in plan
// expression extraction.
var exprOpNames = map[string]string{
	"+": "ADD", "-": "SUB", "*": "MULT", "/": "DIV", "%": "MOD", "||": "CONCAT",
}

// noteExprOp records one expression operator occurrence during compilation.
// Because compilation sees the fully view-expanded tree, expressions inside
// referenced views are counted — matching the paper's plan-XML extraction.
func (b *builder) noteExprOp(name string) { b.exprOps[name]++ }

func (b *builder) noteTable(name string) {
	// Internal physical-table names (the catalog's hidden base tables) are
	// not user-visible objects; keep them out of plan metadata.
	if strings.HasPrefix(name, "~") {
		return
	}
	if !b.tableSeen[name] {
		b.tableSeen[name] = true
		b.tableOrder = append(b.tableOrder, name)
	}
}

func (b *builder) noteColumnRef(sc *scope, depth, idx int) {
	f := sc
	for depth > 0 && f != nil {
		f = f.outer
		depth--
	}
	if f == nil || idx >= len(f.cols) {
		return
	}
	c := f.cols[idx]
	if c.Source == "" {
		return
	}
	m := b.colRefs[c.Source]
	if m == nil {
		m = map[string]bool{}
		b.colRefs[c.Source] = m
	}
	m[c.Name] = true
}

func (b *builder) referencedColumns() map[string][]string {
	out := make(map[string][]string, len(b.colRefs))
	for t, cols := range b.colRefs {
		names := make([]string, 0, len(cols))
		for c := range cols {
			names = append(names, c)
		}
		sort.Strings(names)
		out[t] = names
	}
	return out
}

func (b *builder) drainSubs() []Node {
	subs := b.pendingSubs
	b.pendingSubs = nil
	return subs
}

// subplan is a compiled expression-level subquery.
type subplan struct {
	node       Node
	correlated bool
	// mu guards cache: predicate expressions containing uncorrelated
	// subqueries may be evaluated concurrently by parallel workers, and
	// holding the lock across the fill ensures the subquery still executes
	// exactly once per plan.
	mu    sync.Mutex
	cache *relation
}

func (s *subplan) run(ctx *ExecContext, ev *Env) (*relation, error) {
	if s.correlated {
		// Correlated subplans depend on the outer row and are never
		// cached; each evaluation is independent, so no lock is needed.
		rel, err := execNode(ctx, s.node, ev)
		if err != nil {
			return nil, err
		}
		// The expression consumes the subquery result immediately and drops
		// it; release its memory charge here so per-outer-row executions
		// don't accumulate in the live estimate. (The uncorrelated cache
		// below stays charged: it lives for the whole execution.)
		ctx.releaseRel(rel)
		return rel, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cache != nil {
		return s.cache, nil
	}
	rel, err := execNode(ctx, s.node, ev)
	if err != nil {
		return nil, err
	}
	s.cache = rel
	return rel, nil
}

// buildSubplan compiles an expression-level subquery against the scope of
// the expression that holds it. exists marks the query of an EXISTS
// predicate, which is only ever tested for emptiness: buildSelect may then
// answer it with a semiProbeNode over an inner plan that runs once.
func (b *builder) buildSubplan(q sqlparser.QueryExpr, sc *scope, exists bool) (*subplan, error) {
	saved := b.sawCorrelation
	b.sawCorrelation = false
	var node Node
	var err error
	if sel, ok := q.(*sqlparser.Select); ok && exists {
		node, err = b.buildSelect(sel, sc, asExists)
	} else {
		node, err = b.buildQuery(q, sc)
	}
	if err != nil {
		return nil, err
	}
	corr := b.sawCorrelation
	b.sawCorrelation = saved || corr
	b.pendingSubs = append(b.pendingSubs, node)
	return &subplan{node: node, correlated: corr}, nil
}

func (b *builder) buildQuery(q sqlparser.QueryExpr, outer *scope) (Node, error) {
	switch n := q.(type) {
	case *sqlparser.Select:
		return b.buildSelect(n, outer, asOperand)
	case *sqlparser.SetOp:
		return b.buildSetOp(n, outer)
	case *sqlparser.With:
		return b.buildWith(n, outer)
	}
	return nil, fmt.Errorf("engine: unsupported query node %T", q)
}

// buildWith compiles a WITH query by layering the CTE definitions over the
// resolver for the duration of the body (and of later CTEs, which may
// reference earlier ones). CTEs expand inline, like views.
func (b *builder) buildWith(w *sqlparser.With, outer *scope) (Node, error) {
	saved := b.res
	defer func() { b.res = saved }()
	overlay := map[string]sqlparser.QueryExpr{}
	for _, cte := range w.CTEs {
		name := strings.ToLower(cte.Name)
		if _, dup := overlay[name]; dup {
			return nil, fmt.Errorf("engine: duplicate CTE name %q", cte.Name)
		}
		overlay[name] = cte.Query
	}
	b.res = cteResolver{overlay: overlay, next: saved}
	return b.buildQuery(w.Body, outer)
}

// cteResolver resolves CTE names before delegating to the base resolver.
type cteResolver struct {
	overlay map[string]sqlparser.QueryExpr
	next    Resolver
}

// ResolveDataset implements Resolver.
func (c cteResolver) ResolveDataset(name string) (Resolution, error) {
	if q, ok := c.overlay[strings.ToLower(name)]; ok {
		return Resolution{View: q}, nil
	}
	return c.next.ResolveDataset(name)
}

// ---------------------------------------------------------------- set ops

func (b *builder) buildSetOp(s *sqlparser.SetOp, outer *scope) (Node, error) {
	left, err := b.buildQuery(s.Left, outer)
	if err != nil {
		return nil, err
	}
	right, err := b.buildQuery(s.Right, outer)
	if err != nil {
		return nil, err
	}
	lc, rc := left.Props().Cols, right.Props().Cols
	if len(lc) != len(rc) {
		return nil, fmt.Errorf("engine: %s operands have different column counts (%d vs %d)",
			s.Kind, len(lc), len(rc))
	}
	// Output schema: left names, widened types, no binding.
	cols := make([]ColMeta, len(lc))
	for i := range lc {
		cols[i] = ColMeta{Name: lc[i].Name, Type: sqltypes.Widen(lc[i].Type, rc[i].Type)}
	}
	var node Node
	switch s.Kind {
	case UnionKind:
		cat := &concatenationNode{}
		cat.props = Props{PhysicalOp: "Concatenation", LogicalOp: "Union All", Cols: cols}
		cat.children = []Node{left, right}
		node = cat
		if !s.All {
			d := &sortNode{distinct: true}
			d.props = Props{PhysicalOp: "Sort", LogicalOp: "Distinct Sort", Cols: cols}
			for i := range cols {
				d.keys = append(d.keys, sortKey{idx: i})
			}
			d.children = []Node{cat}
			node = d
		}
	case IntersectKind, ExceptKind:
		h := &hashSetOpNode{anti: s.Kind == ExceptKind}
		logical := "Left Semi Join"
		if h.anti {
			logical = "Left Anti Semi Join"
		}
		h.props = Props{PhysicalOp: "Hash Match", LogicalOp: logical, Cols: cols}
		h.children = []Node{left, right}
		node = h
	}
	if len(s.OrderBy) > 0 {
		sc := &scope{cols: cols, outer: outer}
		srt := &sortNode{}
		srt.props = Props{PhysicalOp: "Sort", LogicalOp: "Sort", Cols: cols}
		for _, o := range s.OrderBy {
			key, err := b.setOpSortKey(o, cols, sc)
			if err != nil {
				return nil, err
			}
			srt.keys = append(srt.keys, key)
		}
		srt.children = append([]Node{node}, b.drainSubs()...)
		node = srt
	}
	return node, nil
}

// setOpSortKey resolves one ORDER BY item of a set operation: ordinal,
// output column name, or expression over the output columns.
func (b *builder) setOpSortKey(o sqlparser.OrderItem, cols []ColMeta, sc *scope) (sortKey, error) {
	if lit, ok := o.Expr.(*sqlparser.Literal); ok && lit.Val.Type() == sqltypes.Int {
		n := int(lit.Val.Int())
		if n < 1 || n > len(cols) {
			return sortKey{}, fmt.Errorf("engine: ORDER BY ordinal %d out of range", n)
		}
		return sortKey{idx: n - 1, desc: o.Desc}, nil
	}
	fn, _, err := b.compileExpr(o.Expr, sc)
	if err != nil {
		return sortKey{}, err
	}
	return sortKey{fn: fn, desc: o.Desc}, nil
}

// SetOpKind aliases for readability inside the builder.
const (
	UnionKind     = sqlparser.UnionOp
	IntersectKind = sqlparser.IntersectOp
	ExceptKind    = sqlparser.ExceptOp
)

// ---------------------------------------------------------------- FROM

// fromItem is one FROM-clause operand during join planning.
type fromItem struct {
	node     Node
	bindings map[string]bool
}

// blockUse says what reads the output of a SELECT block.
type blockUse int

const (
	asOperand blockUse = iota // a result or an operand: the block ends in its projection
	asExists                  // the query of an EXISTS predicate; see semiProbeShape
	asView                    // a view body read by a FROM item; see mergeIntoScan
)

// buildSelect compiles one SELECT block for the given use.
func (b *builder) buildSelect(sel *sqlparser.Select, outer *scope, use blockUse) (Node, error) {
	// ---- FROM ----
	var input Node
	pushable := map[string]*scanNode{} // binding -> scan eligible for WHERE pushdown
	var whereResidual []sqlparser.Expr
	var probeConjuncts []sqlparser.Expr // correlated conjuncts split off for a semiProbeNode

	if len(sel.From) == 0 {
		cs := &constantScanNode{}
		cs.props = Props{PhysicalOp: "Constant Scan", LogicalOp: "Constant Scan", EstRows: 1}
		input = cs
		if sel.Where != nil {
			whereResidual = splitConjuncts(sel.Where)
		}
	} else {
		items := make([]fromItem, 0, len(sel.From))
		var fromCols []ColMeta
		for _, te := range sel.From {
			n, err := b.buildTableExpr(te, outer, pushable, true)
			if err != nil {
				return nil, err
			}
			items = append(items, fromItem{node: n, bindings: bindingSet(n.Props().Cols)})
			fromCols = append(fromCols, n.Props().Cols...)
		}
		var conjuncts []sqlparser.Expr
		if sel.Where != nil {
			conjuncts = splitConjuncts(sel.Where)
		}
		// sawCorrelation here still describes the FROM clause alone
		// (buildSubplan cleared it on entry): a JOIN condition that reads the
		// outer row leaves no correlation-free inner plan to run once.
		if use == asExists && !b.sawCorrelation {
			if local := (&scope{cols: fromCols}); semiProbeShape(sel, local) {
				conjuncts, probeConjuncts = splitCorrelated(conjuncts, local)
			}
		}
		// Push single-binding conjuncts into eligible scans.
		var joinable []sqlparser.Expr
		for _, c := range conjuncts {
			if b.tryPushdown(c, pushable, fromCols, outer) {
				continue
			}
			joinable = append(joinable, c)
		}
		var err error
		input, whereResidual, err = b.combineFromItems(items, joinable, outer)
		if err != nil {
			return nil, err
		}
	}

	if len(whereResidual) > 0 {
		var err error
		input, err = b.buildFilter(input, whereResidual, outer)
		if err != nil {
			return nil, err
		}
	}

	if len(probeConjuncts) > 0 {
		return b.buildSemiProbe(input, sel, probeConjuncts, outer)
	}

	fromInput, fromCols := input, input.Props().Cols
	fromScope := &scope{cols: fromCols, outer: outer}
	curScope := fromScope

	// ---- aggregation ----
	var aggCalls []*sqlparser.FuncCall
	for _, it := range sel.Items {
		if it.Expr != nil {
			collectAggCalls(it.Expr, &aggCalls)
		}
	}
	collectAggCalls(sel.Having, &aggCalls)
	for _, o := range sel.OrderBy {
		collectAggCalls(o.Expr, &aggCalls)
	}
	hasAgg := len(aggCalls) > 0 || len(sel.GroupBy) > 0

	byPtr := map[*sqlparser.FuncCall]sqlparser.Expr{}
	bySQL := map[string]sqlparser.Expr{}

	if hasAgg {
		var groupFns []exprFn
		var aggCols []ColMeta
		for i, ge := range sel.GroupBy {
			fn, t, err := b.compileExpr(ge, fromScope)
			if err != nil {
				return nil, err
			}
			name := fmt.Sprintf("~g%d", i)
			if cr, ok := ge.(*sqlparser.ColumnRef); ok {
				name = cr.Name
			}
			groupFns = append(groupFns, fn)
			aggCols = append(aggCols, ColMeta{Name: name, Type: t})
			bySQL[ge.SQL()] = &sqlparser.ColumnRef{Name: name}
		}
		var specs []aggSpec
		for i, fc := range aggCalls {
			spec, err := b.compileAggSpec(fc, fromScope)
			if err != nil {
				return nil, err
			}
			specs = append(specs, spec)
			name := fmt.Sprintf("~a%d", i)
			aggCols = append(aggCols, ColMeta{Name: name, Type: spec.outType})
			byPtr[fc] = &sqlparser.ColumnRef{Name: name}
		}
		subs := b.drainSubs()
		agg := &streamAggregateNode{groupFns: groupFns, specs: specs, scalar: len(sel.GroupBy) == 0}
		// Physical strategy: scalar aggregates, and group keys that are the
		// clustered order of the scan below, stream ("Stream Aggregate");
		// every other grouping hashes ("Hash Match" with the Aggregate
		// logical op). No input is sorted for an aggregate's sake: its groups
		// come out in key order either way, and an ORDER BY sorts the groups.
		switch {
		case len(sel.GroupBy) == 0:
			agg.props = Props{PhysicalOp: "Stream Aggregate", LogicalOp: "Aggregate", Cols: aggCols}
		case groupOnLeadingScanColumn(input, sel.GroupBy):
			agg.sorted = true
			agg.props = Props{PhysicalOp: "Stream Aggregate", LogicalOp: "Aggregate", Cols: aggCols}
		default:
			agg.props = Props{PhysicalOp: "Hash Match", LogicalOp: "Aggregate", Cols: aggCols}
		}
		agg.children = append([]Node{input}, subs...)
		input = agg
		curScope = &scope{cols: aggCols, outer: outer}
	}

	// ---- HAVING ----
	if sel.Having != nil {
		having := rewriteExpr(sel.Having, byPtr, bySQL)
		var err error
		input, err = b.buildFilter(input, splitConjuncts(having), outer)
		if err != nil {
			return nil, err
		}
		curScope = &scope{cols: input.Props().Cols, outer: outer}
	}

	// ---- window functions ----
	rewritten := make([]sqlparser.Expr, len(sel.Items))
	for i, it := range sel.Items {
		if it.Expr != nil {
			rewritten[i] = rewriteExpr(it.Expr, byPtr, bySQL)
		}
	}
	orderExprs := make([]sqlparser.Expr, len(sel.OrderBy))
	for i, o := range sel.OrderBy {
		orderExprs[i] = rewriteExpr(o.Expr, byPtr, bySQL)
	}

	var winCalls []*sqlparser.FuncCall
	for _, e := range rewritten {
		collectWindowCalls(e, &winCalls)
	}
	for _, e := range orderExprs {
		collectWindowCalls(e, &winCalls)
	}
	if len(winCalls) > 0 {
		var err error
		input, err = b.buildWindows(input, winCalls, curScope, outer, byPtr)
		if err != nil {
			return nil, err
		}
		curScope = &scope{cols: input.Props().Cols, outer: outer}
		for i, e := range rewritten {
			if e != nil {
				rewritten[i] = rewriteExpr(e, byPtr, nil)
			}
		}
		for i, e := range orderExprs {
			orderExprs[i] = rewriteExpr(e, byPtr, nil)
		}
	}

	// ---- projection ----
	var outItems []projItem
	var starCols []ColMeta
	for i, it := range sel.Items {
		if it.Star {
			if hasAgg {
				return nil, fmt.Errorf("engine: SELECT * cannot be combined with aggregation")
			}
			if starCols == nil {
				starCols = b.starCols(fromInput)
			}
			before := len(outItems)
			for _, c := range starCols {
				if it.StarQualifier != "" && !strings.EqualFold(c.Binding, it.StarQualifier) {
					continue
				}
				outItems = append(outItems, projItem{
					expr: &sqlparser.ColumnRef{Table: c.Binding, Name: c.Name},
					name: c.Name,
				})
			}
			if it.StarQualifier != "" && len(outItems) == before {
				return nil, fmt.Errorf("engine: unknown table %q in %s.*", it.StarQualifier, it.StarQualifier)
			}
			continue
		}
		// Named after what was written: an item the aggregation or window
		// rewrite turned into a reference to its internal column is still a
		// computed item.
		name := it.Alias
		if cr, ok := it.Expr.(*sqlparser.ColumnRef); ok && name == "" {
			name = cr.Name
		}
		outItems = append(outItems, projItem{expr: rewritten[i], name: name})
	}
	if len(outItems) == 0 {
		return nil, fmt.Errorf("engine: empty select list")
	}

	fns := make([]exprFn, 0, len(outItems))
	outCols := make([]ColMeta, 0, len(outItems))
	computed := false
	for i, it := range outItems {
		fn, t, err := b.compileExpr(it.expr, curScope)
		if err != nil {
			return nil, err
		}
		name := it.name
		if name == "" {
			name = fmt.Sprintf("Column%d", i+1)
		}
		if _, plain := it.expr.(*sqlparser.ColumnRef); !plain {
			computed = true
		}
		fns = append(fns, fn)
		outCols = append(outCols, ColMeta{Name: name, Type: t})
	}
	// input is still a scan only when the block has one FROM item that is a
	// scan, every WHERE conjunct was pushed into it, and no aggregate,
	// HAVING or window was stacked on it.
	if use == asView && !computed && !sel.Distinct && sel.Top == nil && len(sel.OrderBy) == 0 {
		if scan, ok := input.(*scanNode); ok && b.mergeIntoScan(scan, outItems, outCols, curScope) {
			return scan, nil
		}
	}
	visible := len(outCols)

	// ---- ORDER BY key resolution (may add hidden columns) ----
	itemExprs := make([]sqlparser.Expr, len(outItems))
	for i, it := range outItems {
		itemExprs[i] = it.expr
	}
	var orderKeys []sortKey
	for i, o := range sel.OrderBy {
		key, hiddenFn, hiddenCol, err := b.resolveOrderKey(orderExprs[i], o.Desc, itemExprs, outCols[:visible], curScope)
		if err != nil {
			return nil, err
		}
		if hiddenFn != nil {
			key.idx = len(outCols)
			fns = append(fns, hiddenFn)
			outCols = append(outCols, hiddenCol)
		}
		orderKeys = append(orderKeys, key)
	}

	proj := &projectNode{fns: fns}
	op := ""
	if computed || len(outCols) > visible {
		op = "Compute Scalar"
	}
	if op == "" {
		// Pure column rearrangement: every item is a plain column
		// reference. Record the source indexes so the executor can gather
		// columns directly instead of evaluating closures per row; any
		// reference that does not resolve locally (correlated) disables it.
		srcCols := make([]int, 0, len(outItems))
		for _, it := range outItems {
			cr := it.expr.(*sqlparser.ColumnRef)
			depth, idx, _, err := curScope.resolve(cr.Table, cr.Name)
			if err != nil || depth != 0 {
				srcCols = nil
				break
			}
			srcCols = append(srcCols, idx)
		}
		proj.srcCols = srcCols
	}
	proj.props = Props{PhysicalOp: op, LogicalOp: "Compute Scalar", Cols: outCols}
	proj.children = append([]Node{input}, b.drainSubs()...)
	var node Node = proj

	// ---- DISTINCT ----
	if sel.Distinct {
		d := &sortNode{distinct: true}
		d.props = Props{PhysicalOp: "Sort", LogicalOp: "Distinct Sort", Cols: outCols}
		for i := 0; i < visible; i++ {
			d.keys = append(d.keys, sortKey{idx: i})
		}
		d.children = []Node{node}
		node = d
	}

	// ---- ORDER BY ----
	if len(orderKeys) > 0 {
		srt := &sortNode{keys: orderKeys, trimTo: visible}
		srt.props = Props{PhysicalOp: "Sort", LogicalOp: "Sort", Cols: outCols[:visible]}
		srt.children = []Node{node}
		node = srt
	} else if len(outCols) > visible {
		// Should not happen (hidden columns only come from ORDER BY), but
		// never leak them.
		node.Props().Cols = outCols[:visible]
	}

	// ---- TOP ----
	if sel.Top != nil {
		lit, ok := sel.Top.Count.(*sqlparser.Literal)
		if !ok || lit.Val.Type() != sqltypes.Int {
			return nil, fmt.Errorf("engine: TOP requires an integer literal")
		}
		top := &topNode{count: lit.Val.Int(), percent: sel.Top.Percent}
		top.props = Props{PhysicalOp: "Top", LogicalOp: "Top", Cols: node.Props().Cols}
		top.children = []Node{node}
		// TOP n … ORDER BY: the sort is told the row goal and keeps n rows
		// instead of ordering all of them. A DISTINCT sort must see every row.
		if srt, ok := node.(*sortNode); ok && !srt.distinct {
			srt.top = top
		}
		node = top
	}
	// Safety net: attach any stray subplans so they appear in the tree for
	// plan accounting. Operators address their inputs by fixed index, so
	// extra children are never executed directly.
	if stray := b.drainSubs(); len(stray) > 0 {
		switch nn := node.(type) {
		case *topNode:
			nn.children = append(nn.children, stray...)
		case *sortNode:
			nn.children = append(nn.children, stray...)
		case *projectNode:
			nn.children = append(nn.children, stray...)
		}
	}
	return node, nil
}

// projItem is one resolved entry of the projection list; name is "" for an
// unaliased computed item.
type projItem struct {
	expr sqlparser.Expr
	name string
}

// mergeIntoScan makes a view body that only selects bare columns of the
// scan it filters into that scan: the scan's columns are renamed to the
// view's select list, columns the view does not select lose their names
// (nothing can resolve to them), and the block returns the scan, so no row
// is copied for the view and the reader's WHERE is pushed into the same
// scan after the view's own. A view that selects one column twice has no
// such renaming and keeps its projection. The body's select list was
// compiled against sc before this is called, so its column references are
// noted and its errors reported exactly as for a projection; the renamed
// columns carry no Source, as a projection's output does not.
func (b *builder) mergeIntoScan(scan *scanNode, items []projItem, outCols []ColMeta, sc *scope) bool {
	cols := make([]ColMeta, len(scan.props.Cols))
	for i, c := range scan.props.Cols {
		cols[i] = ColMeta{Type: c.Type}
	}
	order := make([]int, len(items))
	for j, it := range items {
		cr := it.expr.(*sqlparser.ColumnRef)
		_, idx, _, err := sc.resolve(cr.Table, cr.Name)
		if err != nil || cols[idx].Name != "" {
			return false
		}
		cols[idx].Name = outCols[j].Name
		order[j] = idx
	}
	scan.props.Cols = cols
	b.viewOrder[scan] = order
	return true
}

// starCols lists what * expands to over a FROM tree, in order: the columns
// of a scan a view was merged into are that view's select list.
func (b *builder) starCols(n Node) []ColMeta {
	switch v := n.(type) {
	case *scanNode:
		if order, ok := b.viewOrder[v]; ok {
			cols := make([]ColMeta, len(order))
			for j, idx := range order {
				cols[j] = v.props.Cols[idx]
			}
			return cols
		}
	case *filterNode:
		return b.starCols(v.children[0])
	case *hashMatchNode, *mergeJoinNode, *nestedLoopsNode:
		ch := n.Children()
		return append(append([]ColMeta(nil), b.starCols(ch[0])...), b.starCols(ch[1])...)
	}
	return n.Props().Cols
}

// groupOnLeadingScanColumn reports whether the aggregation input is a
// clustered scan whose leading (sort-order) column is the single group
// key, so a Stream Aggregate needs no Sort.
func groupOnLeadingScanColumn(input Node, groupBy []sqlparser.Expr) bool {
	scan, ok := input.(*scanNode)
	return ok && len(groupBy) == 1 && leadingColumn(groupBy[0], scan.props.Cols)
}

// resolveOrderKey maps one ORDER BY expression to a sort key over the
// projection output: ordinal, select alias, matching select expression, or
// a hidden extra column computed from the pre-projection scope.
func (b *builder) resolveOrderKey(e sqlparser.Expr, desc bool, itemExprs []sqlparser.Expr, visibleCols []ColMeta, preScope *scope) (sortKey, exprFn, ColMeta, error) {
	if lit, ok := e.(*sqlparser.Literal); ok && lit.Val.Type() == sqltypes.Int {
		n := int(lit.Val.Int())
		if n < 1 || n > len(visibleCols) {
			return sortKey{}, nil, ColMeta{}, fmt.Errorf("engine: ORDER BY ordinal %d out of range", n)
		}
		return sortKey{idx: n - 1, desc: desc}, nil, ColMeta{}, nil
	}
	if cr, ok := e.(*sqlparser.ColumnRef); ok && cr.Table == "" {
		for i, c := range visibleCols {
			if strings.EqualFold(c.Name, cr.Name) {
				return sortKey{idx: i, desc: desc}, nil, ColMeta{}, nil
			}
		}
	}
	sql := e.SQL()
	for i, ie := range itemExprs {
		if ie != nil && ie.SQL() == sql && i < len(visibleCols) {
			return sortKey{idx: i, desc: desc}, nil, ColMeta{}, nil
		}
	}
	fn, t, err := b.compileExpr(e, preScope)
	if err != nil {
		return sortKey{}, nil, ColMeta{}, err
	}
	b.hiddenSeq++
	col := ColMeta{Name: fmt.Sprintf("~s%d", b.hiddenSeq), Type: t}
	return sortKey{desc: desc}, fn, col, nil
}

func (b *builder) buildFilter(input Node, conjuncts []sqlparser.Expr, outer *scope) (Node, error) {
	pred, err := b.compilePredicate(conjuncts, &scope{cols: input.Props().Cols, outer: outer})
	if err != nil {
		return nil, err
	}
	filters := make([]string, len(conjuncts))
	for i, c := range conjuncts {
		filters[i] = c.SQL()
	}
	f := &filterNode{pred: pred}
	f.props = Props{PhysicalOp: "Filter", LogicalOp: "Filter", Cols: input.Props().Cols, Filters: filters}
	f.children = append([]Node{input}, b.drainSubs()...)
	return f, nil
}

// ---------------------------------------------------------------- windows

func (b *builder) buildWindows(input Node, calls []*sqlparser.FuncCall, cur *scope, outer *scope, byPtr map[*sqlparser.FuncCall]sqlparser.Expr) (Node, error) {
	// Group calls by window specification.
	type group struct {
		spec  *sqlparser.WindowSpec
		calls []*sqlparser.FuncCall
	}
	var groups []*group
	bySpec := map[string]*group{}
	for _, fc := range calls {
		if _, done := byPtr[fc]; done {
			continue
		}
		key := fc.Over.SQL()
		g := bySpec[key]
		if g == nil {
			g = &group{spec: fc.Over}
			bySpec[key] = g
			groups = append(groups, g)
		}
		g.calls = append(g.calls, fc)
		byPtr[fc] = nil // placeholder; filled below
	}
	node := input
	winSeq := 0
	for _, g := range groups {
		inCols := node.Props().Cols
		sc := &scope{cols: inCols, outer: outer}
		var partFns []exprFn
		var sortKeys []sortKey
		for _, pe := range g.spec.PartitionBy {
			fn, _, err := b.compileExpr(pe, sc)
			if err != nil {
				return nil, err
			}
			partFns = append(partFns, fn)
			sortKeys = append(sortKeys, sortKey{fn: fn})
		}
		var orderKeys []sortKey
		for _, o := range g.spec.OrderBy {
			fn, _, err := b.compileExpr(o.Expr, sc)
			if err != nil {
				return nil, err
			}
			k := sortKey{fn: fn, desc: o.Desc}
			orderKeys = append(orderKeys, k)
			sortKeys = append(sortKeys, k)
		}
		subs := b.drainSubs()
		if len(sortKeys) > 0 {
			srt := &sortNode{keys: sortKeys}
			srt.props = Props{PhysicalOp: "Sort", LogicalOp: "Sort", Cols: inCols}
			srt.children = []Node{node}
			node = srt
		}
		seg := &segmentNode{}
		seg.props = Props{PhysicalOp: "Segment", LogicalOp: "Segment", Cols: inCols}
		seg.children = []Node{node}
		node = seg

		outCols := append([]ColMeta(nil), inCols...)
		var wcalls []windowCall
		anyRanking, anyAgg := false, false
		for _, fc := range g.calls {
			wc := windowCall{name: fc.Name}
			switch {
			case isRankingName(fc.Name):
				anyRanking = true
				wc.outType = sqltypes.Int
				if fc.Name == "NTILE" {
					if len(fc.Args) != 1 {
						return nil, fmt.Errorf("engine: NTILE takes one argument")
					}
					fn, _, err := b.compileExpr(fc.Args[0], sc)
					if err != nil {
						return nil, err
					}
					wc.ntileFn = fn
				} else if len(fc.Args) != 0 {
					return nil, fmt.Errorf("engine: %s takes no arguments", fc.Name)
				}
				if len(g.spec.OrderBy) == 0 {
					return nil, fmt.Errorf("engine: %s requires OVER (... ORDER BY ...)", fc.Name)
				}
			case isAggregateName(fc.Name):
				anyAgg = true
				if fc.Distinct {
					return nil, fmt.Errorf("engine: use of DISTINCT is not allowed with the OVER clause (%s)", fc.Name)
				}
				if fc.Star {
					wc.outType = sqltypes.Int
				} else {
					if len(fc.Args) != 1 {
						return nil, fmt.Errorf("engine: windowed %s takes one argument", fc.Name)
					}
					fn, t, err := b.compileExpr(fc.Args[0], sc)
					if err != nil {
						return nil, err
					}
					wc.argFn = fn
					wc.outType = aggOutType(fc.Name, t)
				}
			default:
				return nil, fmt.Errorf("engine: %s is not a window function", fc.Name)
			}
			name := fmt.Sprintf("~w%d", winSeq)
			winSeq++
			outCols = append(outCols, ColMeta{Name: name, Type: wc.outType})
			byPtr[fc] = &sqlparser.ColumnRef{Name: name}
			wcalls = append(wcalls, wc)
		}
		if anyAgg && !anyRanking {
			spool := &windowSpoolNode{}
			spool.props = Props{PhysicalOp: "Window Spool", LogicalOp: "Window Spool", Cols: inCols}
			spool.children = []Node{node}
			node = spool
		}
		w := &windowProjectNode{partFns: partFns, orderKeys: orderKeys, calls: wcalls, inCols: inCols}
		op := "Sequence Project"
		logical := "Compute Scalar"
		if anyAgg && !anyRanking {
			op = "Stream Aggregate"
			logical = "Window Aggregate"
		}
		w.props = Props{PhysicalOp: op, LogicalOp: logical, Cols: outCols}
		w.children = append([]Node{node}, subs...)
		node = w
	}
	return node, nil
}

// ---------------------------------------------------------------- FROM items

func bindingSet(cols []ColMeta) map[string]bool {
	out := map[string]bool{}
	for _, c := range cols {
		if c.Binding != "" {
			out[strings.ToLower(c.Binding)] = true
		}
	}
	return out
}

func (b *builder) buildTableExpr(te sqlparser.TableExpr, outer *scope, pushable map[string]*scanNode, canPush bool) (Node, error) {
	switch n := te.(type) {
	case *sqlparser.TableName:
		return b.buildTableName(n, outer, pushable, canPush)
	case *sqlparser.SubqueryTable:
		node, err := b.buildQuery(n.Query, nil)
		if err != nil {
			return nil, err
		}
		relabel(node, n.Alias)
		return node, nil
	case *sqlparser.JoinExpr:
		return b.buildJoin(n, outer, pushable, canPush)
	}
	return nil, fmt.Errorf("engine: unsupported table expression %T", te)
}

// relabel rebinds a node's output columns to a new binding name (the alias
// of a derived table or expanded view).
func relabel(node Node, binding string) {
	p := node.Props()
	cols := make([]ColMeta, len(p.Cols))
	for i, c := range p.Cols {
		c.Binding = binding
		cols[i] = c
	}
	p.Cols = cols
}

func (b *builder) buildTableName(tn *sqlparser.TableName, outer *scope, pushable map[string]*scanNode, canPush bool) (Node, error) {
	res, err := b.res.ResolveDataset(tn.Name)
	if err != nil {
		return nil, err
	}
	b.noteTable(tn.Name)
	binding := tn.Binding()
	if i := strings.LastIndexByte(binding, '.'); i >= 0 && tn.Alias == "" {
		binding = binding[i+1:]
	}
	// scan is the plan for tn once it is known to read tbl — directly, or
	// through a chain of trivial wrappers.
	scan := func(tbl *storage.Table) Node {
		schema := tbl.Schema()
		cols := make([]ColMeta, len(schema))
		for i, c := range schema {
			cols[i] = ColMeta{Binding: binding, Name: c.Name, Type: c.Type, Source: tn.Name}
		}
		sc := &scanNode{table: tbl}
		sc.props = Props{
			PhysicalOp: "Clustered Index Scan",
			LogicalOp:  "Clustered Index Scan",
			Object:     tn.Name,
			Cols:       cols,
			EstRows:    float64(tbl.NumRows()),
			RowSize:    tbl.RowSizeBytes(),
		}
		if canPush {
			pushable[strings.ToLower(binding)] = sc
		}
		return sc
	}
	if res.Table != nil {
		return scan(res.Table), nil
	}
	// View. The names in its body resolve through the scope its resolution
	// carries (nil: the resolver in force), here and in every hop below.
	saved := b.res
	defer func() { b.res = saved }()
	if res.Scope != nil {
		b.res = res.Scope
	}
	// Trivial wrapper chains (SELECT * FROM x, the shape every uploaded
	// dataset has, §3.2) are flattened to a direct scan of the underlying
	// physical table, so predicate pushdown and clustered-index seeks work
	// through them exactly as the backend's view expansion did.
	view := res.View
	for hop := 0; hop < maxViewDepth; hop++ {
		inner, ok := trivialWrapperTarget(view)
		if !ok {
			break
		}
		innerRes, err := b.res.ResolveDataset(inner.Name)
		if err != nil {
			break // let full expansion surface the error
		}
		if innerRes.Table != nil {
			return scan(innerRes.Table), nil
		}
		b.noteTable(inner.Name)
		view = innerRes.View
		if innerRes.Scope != nil {
			b.res = innerRes.Scope
		}
	}
	b.viewDepth++
	if b.viewDepth > maxViewDepth {
		return nil, fmt.Errorf("engine: view nesting exceeds %d (cycle?) at %q", maxViewDepth, tn.Name)
	}
	var node Node
	if sel, ok := view.(*sqlparser.Select); ok {
		node, err = b.buildSelect(sel, nil, asView)
	} else {
		node, err = b.buildQuery(view, nil)
	}
	b.viewDepth--
	if err != nil {
		return nil, fmt.Errorf("engine: expanding view %q: %w", tn.Name, err)
	}
	relabel(node, binding)
	// A merged view is its scan: the reader's conjuncts push into it.
	if sc, ok := node.(*scanNode); ok && canPush {
		pushable[strings.ToLower(binding)] = sc
	}
	return node, nil
}

// trivialWrapperTarget recognizes the wrapper-view shape `SELECT * FROM t`
// with no other clauses, returning the inner table reference.
func trivialWrapperTarget(q sqlparser.QueryExpr) (*sqlparser.TableName, bool) {
	sel, ok := q.(*sqlparser.Select)
	if !ok || sel.Distinct || sel.Top != nil || sel.Where != nil ||
		len(sel.GroupBy) > 0 || sel.Having != nil || len(sel.OrderBy) > 0 {
		return nil, false
	}
	if len(sel.Items) != 1 || !sel.Items[0].Star || sel.Items[0].StarQualifier != "" {
		return nil, false
	}
	if len(sel.From) != 1 {
		return nil, false
	}
	tn, ok := sel.From[0].(*sqlparser.TableName)
	return tn, ok
}

func (b *builder) buildJoin(j *sqlparser.JoinExpr, outer *scope, pushable map[string]*scanNode, canPush bool) (Node, error) {
	leftPush := canPush && j.Kind != sqlparser.RightJoin && j.Kind != sqlparser.FullJoin
	rightPush := canPush && j.Kind != sqlparser.LeftJoin && j.Kind != sqlparser.FullJoin
	left, err := b.buildTableExpr(j.Left, outer, pushable, leftPush)
	if err != nil {
		return nil, err
	}
	right, err := b.buildTableExpr(j.Right, outer, pushable, rightPush)
	if err != nil {
		return nil, err
	}
	return b.joinNodes(left, right, j.Kind, j.On, outer)
}

// joinNodes builds the physical join for left ⋈ right with condition on.
func (b *builder) joinNodes(left, right Node, kind sqlparser.JoinKind, on sqlparser.Expr, outer *scope) (Node, error) {
	lc, rc := left.Props().Cols, right.Props().Cols
	outCols := append(append([]ColMeta(nil), lc...), rc...)
	side := joinInner
	switch kind {
	case sqlparser.LeftJoin:
		side = joinLeftOuter
	case sqlparser.RightJoin:
		side = joinRightOuter
	case sqlparser.FullJoin:
		side = joinFullOuter
	}
	lBind, rBind := bindingSet(lc), bindingSet(rc)
	var eqLeft, eqRight []sqlparser.Expr
	var residual []sqlparser.Expr
	var filters []string
	if on != nil {
		for _, c := range splitConjuncts(on) {
			filters = append(filters, c.SQL())
			l, r, ok := equiSides(c, lBind, rBind)
			if ok {
				eqLeft = append(eqLeft, l)
				eqRight = append(eqRight, r)
			} else {
				residual = append(residual, c)
			}
		}
	}
	lScope := &scope{cols: lc, outer: outer}
	rScope := &scope{cols: rc, outer: outer}
	jScope := &scope{cols: outCols, outer: outer}

	if len(eqLeft) > 0 {
		// Merge Join when both sides are unfiltered clustered scans sorted
		// on the single join column (the leading clustered-key column).
		sortedOn := func(n Node, key sqlparser.Expr) bool {
			scan, ok := n.(*scanNode)
			return ok && scan.seek == nil && len(scan.preds) == 0 && leadingColumn(key, scan.props.Cols)
		}
		if side == joinInner && len(eqLeft) == 1 && len(residual) == 0 && sortedOn(left, eqLeft[0]) && sortedOn(right, eqRight[0]) {
			m := &mergeJoinNode{}
			m.props = Props{PhysicalOp: "Merge Join", LogicalOp: "Inner Join", Cols: outCols, Filters: filters}
			m.children = []Node{left, right}
			return m, nil
		}
		lk := make([]exprFn, len(eqLeft))
		rk := make([]exprFn, len(eqRight))
		for i := range eqLeft {
			fn, _, err := b.compileExpr(eqLeft[i], lScope)
			if err != nil {
				return nil, err
			}
			lk[i] = fn
			fn, _, err = b.compileExpr(eqRight[i], rScope)
			if err != nil {
				return nil, err
			}
			rk[i] = fn
		}
		var res exprFn
		if len(residual) > 0 {
			var rerr error
			res, rerr = b.compilePredicate(residual, jScope)
			if rerr != nil {
				return nil, rerr
			}
		}
		h := &hashMatchNode{side: side, leftKeys: lk, rightKeys: rk, residual: res}
		h.props = Props{PhysicalOp: "Hash Match", LogicalOp: joinLogical(side), Cols: outCols, Filters: filters}
		h.children = append([]Node{left, right}, b.drainSubs()...)
		return h, nil
	}

	nl := &nestedLoopsNode{side: side}
	if on != nil {
		pred, err := b.compilePredicate(splitConjuncts(on), jScope)
		if err != nil {
			return nil, err
		}
		nl.pred = pred
	}
	nl.props = Props{PhysicalOp: "Nested Loops", LogicalOp: joinLogical(side), Cols: outCols, Filters: filters}
	nl.children = append([]Node{left, right}, b.drainSubs()...)
	return nl, nil
}

func joinLogical(side joinSide) string {
	switch side {
	case joinLeftOuter:
		return "Left Outer Join"
	case joinRightOuter:
		return "Right Outer Join"
	case joinFullOuter:
		return "Full Outer Join"
	default:
		return "Inner Join"
	}
}

// compilePredicate ANDs a conjunct list into one exprFn.
func (b *builder) compilePredicate(conjuncts []sqlparser.Expr, sc *scope) (exprFn, error) {
	var pred exprFn
	for _, c := range conjuncts {
		fn, _, err := b.compileExpr(c, sc)
		if err != nil {
			return nil, err
		}
		if pred == nil {
			pred = fn
			continue
		}
		prev := pred
		pred = func(ctx *ExecContext, ev *Env) (sqltypes.Value, error) {
			v, err := prev(ctx, ev)
			if err != nil {
				return v, err
			}
			if truth(v) != sqltypes.True {
				return v, nil
			}
			return fn(ctx, ev)
		}
	}
	return pred, nil
}

// equiSides decides whether conjunct c is an equality whose two sides
// reference disjoint halves of a join, returning the side-local
// expressions in (left, right) order.
func equiSides(c sqlparser.Expr, lBind, rBind map[string]bool) (sqlparser.Expr, sqlparser.Expr, bool) {
	bin, ok := c.(*sqlparser.Binary)
	if !ok || bin.Op != "=" {
		return nil, nil, false
	}
	if exprHasSubquery(bin.L) || exprHasSubquery(bin.R) {
		return nil, nil, false
	}
	lRefs := exprBindings(bin.L)
	rRefs := exprBindings(bin.R)
	if len(lRefs) == 0 || len(rRefs) == 0 {
		return nil, nil, false
	}
	if subsetOf(lRefs, lBind) && subsetOf(rRefs, rBind) {
		return bin.L, bin.R, true
	}
	if subsetOf(lRefs, rBind) && subsetOf(rRefs, lBind) {
		return bin.R, bin.L, true
	}
	return nil, nil, false
}

func subsetOf(refs map[string]bool, set map[string]bool) bool {
	for r := range refs {
		if !set[r] {
			return false
		}
	}
	return true
}

// exprBindings returns the lower-cased table qualifiers referenced by e.
// Unqualified references are reported under the pseudo-binding "" so the
// caller can treat them conservatively.
func exprBindings(e sqlparser.Expr) map[string]bool {
	out := map[string]bool{}
	walkColumnRefs(e, func(cr *sqlparser.ColumnRef) {
		out[strings.ToLower(cr.Table)] = true
	})
	return out
}

// walkExpr calls f on e and, where f returns true, on the expressions under
// it in source order — without descending into subqueries (their references
// resolve, and their aggregates fold, in their own scope).
func walkExpr(e sqlparser.Expr, f func(sqlparser.Expr) bool) {
	if e == nil || !f(e) {
		return
	}
	var sub []sqlparser.Expr
	switch n := e.(type) {
	case *sqlparser.Unary:
		sub = []sqlparser.Expr{n.X}
	case *sqlparser.Binary:
		sub = []sqlparser.Expr{n.L, n.R}
	case *sqlparser.FuncCall:
		sub = n.Args
	case *sqlparser.CaseExpr:
		sub = []sqlparser.Expr{n.Operand}
		for _, w := range n.Whens {
			sub = append(sub, w.Cond, w.Then)
		}
		sub = append(sub, n.Else)
	case *sqlparser.CastExpr:
		sub = []sqlparser.Expr{n.X}
	case *sqlparser.IsNullExpr:
		sub = []sqlparser.Expr{n.X}
	case *sqlparser.InExpr:
		sub = append([]sqlparser.Expr{n.X}, n.List...)
	case *sqlparser.BetweenExpr:
		sub = []sqlparser.Expr{n.X, n.Lo, n.Hi}
	case *sqlparser.LikeExpr:
		sub = []sqlparser.Expr{n.X, n.Pattern}
	}
	for _, x := range sub {
		walkExpr(x, f)
	}
}

// walkColumnRefs calls f for every column reference in e (see walkExpr).
func walkColumnRefs(e sqlparser.Expr, f func(*sqlparser.ColumnRef)) {
	walkExpr(e, func(x sqlparser.Expr) bool {
		if cr, ok := x.(*sqlparser.ColumnRef); ok {
			f(cr)
		}
		return true
	})
}

func exprHasSubquery(e sqlparser.Expr) bool {
	found := false
	walkExpr(e, func(x sqlparser.Expr) bool {
		switch n := x.(type) {
		case *sqlparser.SubqueryExpr, *sqlparser.ExistsExpr:
			found = true
		case *sqlparser.InExpr:
			found = found || n.Query != nil
		}
		return !found
	})
	return found
}

// leadingColumn reports whether e is a bare reference to cols[0], the
// column a clustered scan's order sorts first.
func leadingColumn(e sqlparser.Expr, cols []ColMeta) bool {
	cr, ok := e.(*sqlparser.ColumnRef)
	return ok && len(cols) > 0 && strings.EqualFold(cr.Name, cols[0].Name) &&
		(cr.Table == "" || strings.EqualFold(cr.Table, cols[0].Binding))
}

// tryPushdown pushes a WHERE conjunct into a single eligible scan,
// upgrading it to a seek when the predicate is sargable on the leading
// clustered-key column. fromCols are the columns of every FROM item. Returns
// true when the conjunct was consumed.
func (b *builder) tryPushdown(c sqlparser.Expr, pushable map[string]*scanNode, fromCols []ColMeta, outer *scope) bool {
	if exprHasSubquery(c) {
		return false
	}
	var aggs []*sqlparser.FuncCall
	collectAggCalls(c, &aggs)
	if len(aggs) > 0 {
		return false
	}
	var wins []*sqlparser.FuncCall
	collectWindowCalls(c, &wins)
	if len(wins) > 0 {
		return false
	}
	refs := exprBindings(c)
	var target *scanNode
	for r := range refs {
		if r == "" {
			// Unqualified: resolvable only if exactly one pushable scan has
			// the column; be conservative when several scans exist.
			if len(pushable) != 1 {
				return false
			}
			continue
		}
		sc, ok := pushable[r]
		if !ok {
			return false
		}
		if target != nil && target != sc {
			return false
		}
		target = sc
	}
	if target == nil {
		if len(pushable) != 1 {
			return false
		}
		for _, sc := range pushable {
			target = sc
		}
	}
	// An unqualified name that another FROM item also has is ambiguous, and
	// one only another item has is that item's: the conjunct stays above the
	// join either way, where the name resolves against every FROM column.
	owned := true
	walkColumnRefs(c, func(cr *sqlparser.ColumnRef) {
		if cr.Table == "" && namedCols(fromCols, cr.Name) != namedCols(target.props.Cols, cr.Name) {
			owned = false
		}
	})
	if !owned {
		return false
	}
	scanScope := &scope{cols: target.props.Cols, outer: outer}
	// Verify every depth-0 reference resolves inside the scan.
	fn, _, err := b.compileExpr(c, scanScope)
	if err != nil {
		b.pendingSubs = nil
		return false
	}
	// Sargable on the leading clustered column → seek; a second conjunct that
	// bounds the other end of the same column closes the range, so the seek
	// reads exactly the rows between the two keys.
	if op, val, ok := sargableSeek(c, target.props.Cols); ok {
		switch {
		case target.seek == nil:
			target.seek = &seekInfo{}
			if op == "=" {
				target.seek.eq, target.seek.lo = true, val
			} else {
				target.seek.bound(op, val)
			}
			target.props.PhysicalOp = "Clustered Index Seek"
			target.props.LogicalOp = "Clustered Index Seek"
			target.props.Filters = append(target.props.Filters, c.SQL())
			// Update the estimate for the seek selectivity.
			sel := 0.1
			if op != "=" {
				sel = 0.3
			}
			target.props.EstRows *= sel
			return true
		case target.seek.bound(op, val):
			target.props.Filters = append(target.props.Filters, c.SQL())
			target.props.EstRows *= 0.3
			return true
		}
	}
	// Kernel-form conjuncts extend the scan's vectorizable prefix; once a
	// conjunct fails to extract, later ones stay closures too so residual
	// evaluation preserves the original conjunct order (and with it error
	// ordering).
	if target.nVec == len(target.preds) {
		if vps, ok := extractVecPreds(c, target.props.Cols); ok {
			target.vecPreds = append(target.vecPreds, vps...)
			target.nVec++
		}
	}
	target.preds = append(target.preds, fn)
	target.props.Filters = append(target.props.Filters, c.SQL())
	target.props.EstRows *= 0.3
	return true
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

// sargableSeek recognizes `leadingCol cmp literal` (either side order) and
// returns the comparison, normalized to read `col op val`. A seek
// binary-searches the clustered order, so it is only valid when the
// literal's comparison semantics agree with that order: numeric literals
// against numeric columns, string literals against string columns, and
// date-parsing strings against datetime columns. Anything else (e.g. a
// numeric literal probing a string column, where comparison coerces
// numerically but the rows sort lexically) must run as a scan predicate.
func sargableSeek(c sqlparser.Expr, cols []ColMeta) (op string, val sqltypes.Value, ok bool) {
	bin, ok := c.(*sqlparser.Binary)
	if !ok {
		return "", val, false
	}
	switch bin.Op {
	case "=", "<", "<=", ">", ">=":
	default:
		return "", val, false
	}
	if lit, ok := bin.R.(*sqlparser.Literal); ok && leadingColumn(bin.L, cols) {
		v, ok := seekValue(lit.Val, cols[0].Type)
		return bin.Op, v, ok
	}
	if lit, ok := bin.L.(*sqlparser.Literal); ok && leadingColumn(bin.R, cols) {
		v, ok := seekValue(lit.Val, cols[0].Type)
		return flipCmp(bin.Op), v, ok
	}
	return "", val, false
}

// seekValue converts a literal into a probe value whose SortCompare
// ordering against colType values matches SQL comparison semantics,
// reporting false when no such conversion exists.
func seekValue(lit sqltypes.Value, colType sqltypes.Type) (sqltypes.Value, bool) {
	if lit.IsNull() {
		return lit, false // NULL comparisons never match; not seekable
	}
	switch colType {
	case sqltypes.Int, sqltypes.Float:
		if lit.IsNumeric() {
			return lit, true
		}
		if lit.Type() == sqltypes.String {
			if v, err := sqltypes.Cast(lit, sqltypes.Float); err == nil {
				return v, true
			}
		}
	case sqltypes.String:
		if lit.Type() == sqltypes.String {
			return lit, true
		}
	case sqltypes.DateTime:
		if lit.Type() == sqltypes.DateTime {
			return lit, true
		}
		if lit.Type() == sqltypes.String {
			if v, err := sqltypes.Cast(lit, sqltypes.DateTime); err == nil {
				return v, true
			}
		}
	case sqltypes.Bool:
		if lit.IsNumeric() {
			return lit, true
		}
	}
	return sqltypes.Value{}, false
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

// combineFromItems joins comma-separated FROM items, using WHERE equality
// conjuncts as hash-join conditions where possible; leftovers are returned
// for a Filter above the join tree.
func (b *builder) combineFromItems(items []fromItem, conjuncts []sqlparser.Expr, outer *scope) (Node, []sqlparser.Expr, error) {
	if len(items) == 1 {
		return items[0].node, conjuncts, nil
	}
	pending := append([]sqlparser.Expr(nil), conjuncts...)
	for len(items) > 1 {
		joined := false
		for ci, c := range pending {
			for i := 0; i < len(items) && !joined; i++ {
				for j := i + 1; j < len(items) && !joined; j++ {
					l, r, ok := equiSides(c, items[i].bindings, items[j].bindings)
					if !ok {
						continue
					}
					node, err := b.joinNodes(items[i].node, items[j].node, sqlparser.InnerJoin,
						&sqlparser.Binary{Op: "=", L: l, R: r}, outer)
					if err != nil {
						return nil, nil, err
					}
					merged := fromItem{node: node, bindings: unionSets(items[i].bindings, items[j].bindings)}
					items = append(items[:j], items[j+1:]...)
					items[i] = merged
					pending = append(pending[:ci], pending[ci+1:]...)
					joined = true
				}
			}
			if joined {
				break
			}
		}
		if joined {
			continue
		}
		// No linking predicate: cross join the first two items.
		node, err := b.joinNodes(items[0].node, items[1].node, sqlparser.CrossJoin, nil, outer)
		if err != nil {
			return nil, nil, err
		}
		merged := fromItem{node: node, bindings: unionSets(items[0].bindings, items[1].bindings)}
		items = append([]fromItem{merged}, items[2:]...)
	}
	return items[0].node, pending, nil
}

func unionSets(a, b map[string]bool) map[string]bool {
	out := map[string]bool{}
	for k := range a {
		out[k] = true
	}
	for k := range b {
		out[k] = true
	}
	return out
}

// ---------------------------------------------------------------- rewrite

// rewriteExpr replaces aggregate/window calls (by pointer) and group
// expressions (by rendered SQL) with references to the columns that carry
// their computed values. Subqueries are left untouched — they aggregate
// independently.
func rewriteExpr(e sqlparser.Expr, byPtr map[*sqlparser.FuncCall]sqlparser.Expr, bySQL map[string]sqlparser.Expr) sqlparser.Expr {
	if e == nil {
		return nil
	}
	if fc, ok := e.(*sqlparser.FuncCall); ok {
		if rep, ok := byPtr[fc]; ok && rep != nil {
			return rep
		}
	}
	if bySQL != nil {
		if rep, ok := bySQL[e.SQL()]; ok {
			return rep
		}
	}
	switch n := e.(type) {
	case *sqlparser.Unary:
		return &sqlparser.Unary{Op: n.Op, X: rewriteExpr(n.X, byPtr, bySQL)}
	case *sqlparser.Binary:
		return &sqlparser.Binary{Op: n.Op, L: rewriteExpr(n.L, byPtr, bySQL), R: rewriteExpr(n.R, byPtr, bySQL)}
	case *sqlparser.FuncCall:
		args := make([]sqlparser.Expr, len(n.Args))
		for i, a := range n.Args {
			args[i] = rewriteExpr(a, byPtr, bySQL)
		}
		return &sqlparser.FuncCall{Name: n.Name, Args: args, Distinct: n.Distinct, Star: n.Star, Over: n.Over}
	case *sqlparser.CaseExpr:
		out := &sqlparser.CaseExpr{Operand: rewriteExpr(n.Operand, byPtr, bySQL), Else: rewriteExpr(n.Else, byPtr, bySQL)}
		for _, w := range n.Whens {
			out.Whens = append(out.Whens, sqlparser.WhenClause{
				Cond: rewriteExpr(w.Cond, byPtr, bySQL),
				Then: rewriteExpr(w.Then, byPtr, bySQL),
			})
		}
		return out
	case *sqlparser.CastExpr:
		return &sqlparser.CastExpr{X: rewriteExpr(n.X, byPtr, bySQL), TypeName: n.TypeName, Type: n.Type}
	case *sqlparser.IsNullExpr:
		return &sqlparser.IsNullExpr{X: rewriteExpr(n.X, byPtr, bySQL), Not: n.Not}
	case *sqlparser.InExpr:
		out := &sqlparser.InExpr{X: rewriteExpr(n.X, byPtr, bySQL), Not: n.Not, Query: n.Query}
		for _, i := range n.List {
			out.List = append(out.List, rewriteExpr(i, byPtr, bySQL))
		}
		return out
	case *sqlparser.BetweenExpr:
		return &sqlparser.BetweenExpr{
			X: rewriteExpr(n.X, byPtr, bySQL), Not: n.Not,
			Lo: rewriteExpr(n.Lo, byPtr, bySQL), Hi: rewriteExpr(n.Hi, byPtr, bySQL),
		}
	case *sqlparser.LikeExpr:
		return &sqlparser.LikeExpr{
			X: rewriteExpr(n.X, byPtr, bySQL), Not: n.Not,
			Pattern: rewriteExpr(n.Pattern, byPtr, bySQL), Escape: n.Escape,
		}
	}
	return e
}
