package engine

import (
	"math"

	"sqlshare/internal/storage"
)

// Props holds the SHOWPLAN-style properties every physical operator
// exposes: its operator names, output schema, cardinality and cost
// estimates, and the predicate clauses it applies. The workload-analysis
// pipeline (§4) consumes exactly these fields.
type Props struct {
	// PhysicalOp is the SQL Server-style physical operator name, e.g.
	// "Clustered Index Seek", "Hash Match", "Compute Scalar".
	PhysicalOp string
	// LogicalOp is the logical operation implemented, e.g. "Inner Join",
	// "Aggregate", "Sort".
	LogicalOp string
	// Object is the referenced dataset name, set on scans and seeks.
	Object string
	// Cols is the output schema.
	Cols []ColMeta
	// Filters holds the predicate clauses applied by this operator,
	// rendered as SQL and split at conjunctions so subset/superset
	// reasoning works (Listing 1, §6.2 reuse matching).
	Filters []string
	// EstRows is the estimated output cardinality.
	EstRows float64
	// EstIO and EstCPU are the operator's own cost components.
	EstIO  float64
	EstCPU float64
	// RowSize is the estimated output row width in bytes.
	RowSize int
	// TotalCost is own cost plus all children's TotalCost.
	TotalCost float64
	// Parallel marks operators the executor can run with intra-query
	// parallelism on an input at or above the serial-fallback threshold —
	// the reproduction's analogue of SHOWPLAN's Parallel attribute on
	// exchange-style operators. Set by annotateParallelism at compile time.
	Parallel bool
	// Vectorized marks operators the executor runs on the columnar path:
	// kernel-filtered scans, column-map projections, and scalar
	// aggregations fused with their scan. Set by annotateVectorized at
	// compile time; it describes the plan's capability independent of the
	// process-wide toggle (results are identical either way).
	Vectorized bool
}

// Node is a physical plan operator.
type Node interface {
	Props() *Props
	Children() []Node
	exec(ctx *ExecContext, env *Env) (*relation, error)
}

// base provides the common Node plumbing for operators.
type base struct {
	props    Props
	children []Node
}

// Props returns the operator's plan properties.
func (b *base) Props() *Props { return &b.props }

// Children returns the operator's plan children.
func (b *base) Children() []Node { return b.children }

// Env is the evaluation environment: the current row of the current
// relation plus the chain of outer rows for correlated subqueries.
type Env struct {
	cols  []ColMeta
	row   storage.Row
	outer *Env
}

// SQL Server-flavoured cost constants (the same orders of magnitude that
// SHOWPLAN reports and that Listing 1 in the paper shows).
const (
	costPageIO    = 0.003125  // one 8 KB page read
	costRowCPU    = 0.0000011 // per-row CPU
	costStartCPU  = 0.0001581 // operator startup CPU
	costHashBuild = 0.0000175 // per-row hash build surcharge
	costSortLogN  = 0.0000022 // per row*log(row) sort surcharge
	pageBytes     = 8192.0
)

// estimate fills in EstRows/EstIO/EstCPU/TotalCost bottom-up, mirroring the
// flavour of SQL Server's SHOWPLAN estimates (Listing 1 in the paper shows
// the magnitudes). Scans set EstRows at build time; derived operators
// estimate from their children here.
func estimate(n Node) {
	for _, c := range n.Children() {
		estimate(c)
	}
	p := n.Props()
	childRows := func(i int) float64 {
		ch := n.Children()
		if i < len(ch) {
			return ch[i].Props().EstRows
		}
		return 0
	}
	childSize := func(i int) int {
		ch := n.Children()
		if i < len(ch) {
			return ch[i].Props().RowSize
		}
		return 0
	}
	switch v := n.(type) {
	case *scanNode:
		pages := math.Ceil(float64(v.table.NumRows())*float64(p.RowSize)/pageBytes) + 1
		if v.seek != nil {
			// A seek touches only the qualifying fraction of pages.
			frac := p.EstRows / math.Max(1, float64(v.table.NumRows()))
			pages = math.Ceil(pages*frac) + 1
		}
		p.EstIO = pages * costPageIO
		p.EstCPU = costStartCPU + float64(v.table.NumRows())*costRowCPU
	case *constantScanNode:
		p.EstRows = 1
		p.EstCPU = costStartCPU
	case *filterNode:
		in := childRows(0)
		sel := math.Pow(0.3, math.Max(1, float64(len(p.Filters))))
		p.EstRows = in * sel
		p.EstCPU = costStartCPU + in*costRowCPU
		p.RowSize = childSize(0)
	case *projectNode:
		p.EstRows = childRows(0)
		p.EstCPU = costStartCPU + p.EstRows*costRowCPU
		p.RowSize = 8 * len(p.Cols)
	case *nestedLoopsNode:
		l, r := childRows(0), childRows(1)
		p.EstRows = l * r
		if v.pred != nil {
			p.EstRows *= 0.25
		}
		p.EstCPU = costStartCPU + l*r*costRowCPU
		p.RowSize = childSize(0) + childSize(1)
	case *semiProbeNode:
		// One probe: at most one row out, at worst every inner row read.
		in := childRows(0)
		p.EstRows = math.Min(1, in)
		p.EstCPU = costStartCPU + in*costRowCPU
		p.RowSize = childSize(0)
	case *hashMatchNode:
		l, r := childRows(0), childRows(1)
		p.EstRows = math.Max(l, r)
		if v.side == joinFullOuter {
			p.EstRows = l + r
		}
		p.EstCPU = costStartCPU + r*costHashBuild + l*costRowCPU
		p.RowSize = childSize(0) + childSize(1)
	case *mergeJoinNode:
		l, r := childRows(0), childRows(1)
		p.EstRows = math.Max(l, r)
		p.EstCPU = costStartCPU + (l+r)*costRowCPU
		p.RowSize = childSize(0) + childSize(1)
	case *sortNode:
		in := childRows(0)
		p.EstRows = in
		if v.distinct {
			p.EstRows = math.Max(1, in/3)
		}
		p.EstCPU = costStartCPU + in*math.Log2(in+2)*costSortLogN
		p.EstIO = math.Ceil(in*float64(childSize(0))/pageBytes) * costPageIO * 0.25
		p.RowSize = childSize(0)
	case *streamAggregateNode:
		in := childRows(0)
		if v.scalar {
			p.EstRows = 1
		} else {
			p.EstRows = math.Max(1, in/3)
		}
		p.EstCPU = costStartCPU + in*costRowCPU*float64(1+len(v.specs))
		p.RowSize = 8 * len(p.Cols)
	case *topNode:
		in := childRows(0)
		want := float64(v.count)
		if v.percent {
			want = in * float64(v.count) / 100
		}
		p.EstRows = math.Min(in, want)
		p.EstCPU = costStartCPU
		p.RowSize = childSize(0)
	case *concatenationNode:
		var sum float64
		for i := range n.Children() {
			sum += childRows(i)
		}
		p.EstRows = sum
		p.EstCPU = costStartCPU + sum*costRowCPU
		p.RowSize = childSize(0)
	case *hashSetOpNode:
		l, r := childRows(0), childRows(1)
		p.EstRows = math.Max(1, l/2)
		p.EstCPU = costStartCPU + r*costHashBuild + l*costRowCPU
		p.RowSize = childSize(0)
	case *segmentNode, *windowSpoolNode:
		p.EstRows = childRows(0)
		p.EstCPU = costRowCPU * p.EstRows
		p.RowSize = childSize(0)
	case *windowProjectNode:
		p.EstRows = childRows(0)
		p.EstCPU = costStartCPU + p.EstRows*costRowCPU*float64(len(v.calls))
		p.RowSize = childSize(0) + 8*len(v.calls)
	}
	total := p.EstIO + p.EstCPU
	for _, c := range n.Children() {
		total += c.Props().TotalCost
	}
	p.TotalCost = total
}
