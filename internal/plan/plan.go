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
	Children   []*Node  `json:"children"`
}

// QueryPlan is the Phase-1 output for one query: the plan tree plus the
// tables and columns it references.
type QueryPlan struct {
	Query   string              `json:"query"`
	Root    *Node               `json:"plan"`
	Tables  []string            `json:"tables"`
	Columns map[string][]string `json:"columns"`
	// ExprOps counts expression operators (Table 4 vocabulary), including
	// expressions contributed by expanded views.
	ExprOps map[string]int `json:"expressionOps,omitempty"`
	// Trace carries the per-operator runtime statistics of the execution —
	// estimated next to actual row counts, like the RunTimeInformation
	// elements of real SHOWPLAN XML. Every execution builds one; nil for
	// plans that were extracted without executing (Explain) and for plans a
	// cache hit borrows.
	Trace *TraceNode `json:"trace,omitempty"`
}

// TraceNode is one operator of an execution trace in export form: the
// compile-time estimates beside the run-time actuals. engine.Plan.BuildTrace
// builds it, invisible operators already spliced out as FromEngine splices
// them, so the trace aligns node for node with the extracted plan.
type TraceNode = engine.TraceNode

// JSON renders the plan in the storage format the paper appended to its
// query catalog.
func (qp *QueryPlan) JSON() ([]byte, error) { return json.MarshalIndent(qp, "", "  ") }

// FromEngine converts a compiled engine plan into the extraction format.
// Operators with an empty PhysicalOp (trivial projections folded into their
// input, as SQL Server does) are spliced out.
func FromEngine(sql string, p *engine.Plan) *QueryPlan {
	return &QueryPlan{
		Query:   sql,
		Root:    convertNode(p.Root),
		Tables:  append([]string(nil), p.Tables...),
		Columns: p.RefColumns,
		ExprOps: p.ExprOps,
	}
}

func convertNode(n engine.Node) *Node {
	props := n.Props()
	var children []*Node
	for _, c := range n.Children() {
		cn := convertNode(c)
		if cn.PhysicalOp == "" {
			// Invisible operator: splice its children up.
			children = append(children, cn.Children...)
			continue
		}
		children = append(children, cn)
	}
	if children == nil {
		children = []*Node{}
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
	if out.PhysicalOp == "" && len(children) == 1 {
		return children[0]
	}
	return out
}

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
	return FromEngine(sql, p), nil
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
