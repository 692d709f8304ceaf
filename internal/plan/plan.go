// Package plan implements the workload-analysis extraction pipeline of
// paper §4: Phase 1 turns each query into a JSON execution plan with
// per-operator costs, cardinalities and predicates (the shape of
// Listing 1); Phase 2 extracts the referenced tables, columns, operators
// and expression operators into analysis metadata. The paper obtained the
// raw plans from SQL Server's SHOWPLAN_XML and cleaned them with XPath;
// here the engine exports the same information directly.
package plan

import (
	"encoding/json"

	"sqlshare/internal/engine"
	"sqlshare/internal/sqlparser"
)

// Node is one operator of an extracted JSON plan (Listing 1).
type Node struct {
	PhysicalOp string  `json:"physicalOp"`
	LogicalOp  string  `json:"logicalOp,omitempty"`
	Object     string  `json:"object,omitempty"`
	IO         float64 `json:"io"`
	CPU        float64 `json:"cpu"`
	RowSize    int     `json:"rowSize"`
	NumRows    float64 `json:"numRows"`
	Total      float64 `json:"total"`
	// Parallel mirrors SHOWPLAN's Parallel="true" attribute: the operator is
	// eligible for intra-query parallel execution on its estimated input.
	Parallel bool `json:"parallel,omitempty"`
	// Vectorized marks operators the executor runs on the columnar path
	// (kernel-filtered scans, column gathers, fused scalar aggregation).
	Vectorized bool     `json:"vectorized,omitempty"`
	Filters    []string `json:"filters,omitempty"`
	// Actual is what the run measured at this operator, beside the
	// estimates above: SHOWPLAN's RunTimeInformation on the same operator,
	// written as the node's `actual` block (its keys are engine.Actual's).
	// It is nil where nothing executed (Explain, a cache hit, a run that
	// failed before executing), and such a node's JSON is Listing 1 alone.
	Actual   *engine.Actual `json:"actual,omitempty"`
	Children []*Node        `json:"children"`
}

// QueryPlan is the Phase-1 output for one query: the plan tree plus the
// tables and columns it references. Its JSON is the plan document: these
// keys, each node with its `actual` block once the run executed.
type QueryPlan struct {
	// Query is the SQL the plan was compiled from. A history line writes
	// its plan document without it: the line's `sql` is the query.
	Query   string              `json:"query,omitempty"`
	Root    *Node               `json:"plan"`
	Tables  []string            `json:"tables"`
	Columns map[string][]string `json:"columns"`
	// ExprOps counts expression operators (Table 4 vocabulary), including
	// expressions contributed by expanded views.
	ExprOps map[string]int `json:"expressionOps,omitempty"`
}

// JSON renders the plan in the storage format the paper appended to its
// query catalog.
func (qp *QueryPlan) JSON() ([]byte, error) { return json.MarshalIndent(qp, "", "  ") }

// FromEngine converts a compiled engine plan into the extraction format in
// one walk. Operators with an empty PhysicalOp (trivial projections folded
// into their input, as SQL Server does) are spliced out. Once p has run
// under ctx, attach(ctx) sets each node's Actual from what the run measured
// at the operator that node was built from (ExecContext.Actual). attach
// holds p's operators and the tree does not: once attach is dropped, the
// tree keeps no compiled operator, and no table behind one, alive.
func FromEngine(sql string, p *engine.Plan) (qp *QueryPlan, attach func(ctx *engine.ExecContext)) {
	type built struct {
		node *Node
		op   engine.Node
	}
	var pairs []built
	var convert func(n engine.Node) *Node
	convert = func(n engine.Node) *Node {
		props := n.Props()
		children := []*Node{}
		for _, c := range n.Children() {
			if cn := convert(c); cn.PhysicalOp == "" {
				// Invisible operator: splice its children up.
				children = append(children, cn.Children...)
			} else {
				children = append(children, cn)
			}
		}
		if props.PhysicalOp == "" && len(children) == 1 {
			return children[0]
		}
		out := &Node{
			PhysicalOp: props.PhysicalOp,
			LogicalOp:  props.LogicalOp,
			Object:     props.Object,
			IO:         props.EstIO,
			CPU:        props.EstCPU,
			RowSize:    props.RowSize,
			NumRows:    props.EstRows,
			Total:      props.TotalCost,
			Parallel:   props.Parallel,
			Vectorized: props.Vectorized,
			Filters:    append([]string(nil), props.Filters...),
			Children:   children,
		}
		pairs = append(pairs, built{out, n})
		return out
	}
	qp = &QueryPlan{
		Query:   sql,
		Root:    convert(p.Root),
		Tables:  append([]string(nil), p.Tables...),
		Columns: p.RefColumns,
		ExprOps: p.ExprOps,
	}
	return qp, func(ctx *engine.ExecContext) {
		acts := make([]engine.Actual, len(pairs))
		for i, b := range pairs {
			acts[i] = ctx.Actual(b.op)
			b.node.Actual = &acts[i]
		}
	}
}

// Estimates returns a copy of qp whose nodes carry no Actual: the estimate
// half of the tree, which a cache hit shows.
func (qp *QueryPlan) Estimates() *QueryPlan {
	c := *qp
	var strip func(n *Node) *Node
	strip = func(n *Node) *Node {
		c := *n
		c.Actual, c.Children = nil, make([]*Node, len(n.Children))
		for i, ch := range n.Children {
			c.Children[i] = strip(ch)
		}
		return &c
	}
	if qp.Root != nil {
		c.Root = strip(qp.Root)
	}
	return &c
}

// Executed reports whether the tree carries a run's actuals.
func (qp *QueryPlan) Executed() bool { return qp != nil && qp.Root != nil && qp.Root.Actual != nil }

// Explain is Phase 1 for one query: parse, compile against the resolver,
// and export the JSON plan. The query is not executed.
func Explain(sql string, res engine.Resolver) (*QueryPlan, error) {
	q, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	p, err := engine.Compile(q, res)
	if err != nil {
		return nil, err
	}
	qp, _ := FromEngine(sql, p)
	return qp, nil
}

// Walk visits every operator of the plan tree in pre-order.
func (qp *QueryPlan) Walk(f func(*Node)) { walkNode(qp.Root, f) }

func walkNode(n *Node, f func(*Node)) {
	if n == nil {
		return
	}
	f(n)
	for _, c := range n.Children {
		walkNode(c, f)
	}
}

// OperatorCounts returns how often each physical operator occurs.
func (qp *QueryPlan) OperatorCounts() map[string]int {
	out := map[string]int{}
	qp.Walk(func(n *Node) { out[n.PhysicalOp]++ })
	return out
}

// NumOperators returns the total operator count of the plan.
func (qp *QueryPlan) NumOperators() int {
	n := 0
	qp.Walk(func(*Node) { n++ })
	return n
}

// DistinctOperators returns the number of distinct physical operators —
// the paper's preferred query-complexity metric (§6.1).
func (qp *QueryPlan) DistinctOperators() int {
	return len(qp.OperatorCounts())
}

// TotalCost returns the estimated total cost at the plan root.
func (qp *QueryPlan) TotalCost() float64 {
	if qp.Root == nil {
		return 0
	}
	return qp.Root.Total
}
