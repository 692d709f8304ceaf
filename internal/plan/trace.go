package plan

import (
	"encoding/json"
	"errors"
	"math"
	"time"

	"sqlshare/internal/engine"
)

// TraceJSON is the trace form of an executed tree: each operator's estimate
// beside its actuals, the `trace` key of a plan document, of a history JSONL
// line and of the /trace body. The layout is older than the one tree and
// is kept byte for byte, so old logs replay. Decoding gives every node its
// Actual.
type TraceJSON struct{ Root *Node }

// traceWire is one operator of the trace form; its keys, their order and
// their omitempty rules are the format.
type traceWire struct {
	PhysicalOp      string       `json:"physicalOp"`
	LogicalOp       string       `json:"logicalOp,omitempty"`
	Object          string       `json:"object,omitempty"`
	EstimateRows    float64      `json:"estimateRows"`
	ActualRows      int64        `json:"actualRows"`
	Executions      int64        `json:"executions"`
	WallMillis      float64      `json:"wallMillis"`
	ActualBytes     int64        `json:"actualBytes"`
	Workers         int64        `json:"workers,omitempty"`
	Vectorized      bool         `json:"vectorized,omitempty"`
	SegmentsScanned int64        `json:"segmentsScanned,omitempty"`
	SegmentsSkipped int64        `json:"segmentsSkipped,omitempty"`
	Children        []*traceWire `json:"children"`
}

// MarshalJSON renders t.Root in the trace form.
func (t TraceJSON) MarshalJSON() ([]byte, error) { return json.Marshal(toWire(t.Root)) }

// UnmarshalJSON decodes the trace form into a new tree.
func (t *TraceJSON) UnmarshalJSON(data []byte) error {
	var w *traceWire
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	if t.Root = w.node(nil); t.Root == nil && w != nil {
		return errTraceShape
	}
	return nil
}

// toWire renders n, whose every node carries its Actual, in the trace form.
func toWire(n *Node) *traceWire {
	a := n.Actual
	w := &traceWire{
		PhysicalOp: n.PhysicalOp, LogicalOp: n.LogicalOp, Object: n.Object, EstimateRows: n.NumRows,
		ActualRows: a.Rows, Executions: a.Executions, WallMillis: float64(a.Wall.Nanoseconds()) / 1e6,
		ActualBytes: a.Bytes, Workers: a.Workers, Vectorized: n.Vectorized,
		SegmentsScanned: a.SegmentsScanned, SegmentsSkipped: a.SegmentsSkipped,
		Children: make([]*traceWire, len(n.Children)),
	}
	for i, c := range n.Children {
		w.Children[i] = toWire(c)
	}
	return w
}

var errTraceShape = errors.New("plan: a trace's operators are not its plan's")

// node sets w's actuals on n, and its children's on n's children; when n is
// nil it first makes a node of w's operator and estimate. It returns nil
// where n is not w's operator or w is null: a plan document carries one
// tree's estimates under `plan` and its trace under `trace`, operator for
// operator.
func (w *traceWire) node(n *Node) *Node {
	if w == nil {
		return nil
	}
	if n == nil {
		n = &Node{PhysicalOp: w.PhysicalOp, LogicalOp: w.LogicalOp, Object: w.Object, NumRows: w.EstimateRows,
			Vectorized: w.Vectorized, Children: make([]*Node, len(w.Children))}
	} else if n.PhysicalOp != w.PhysicalOp || len(n.Children) != len(w.Children) {
		return nil
	}
	n.Actual = &engine.Actual{Rows: w.ActualRows, Executions: w.Executions, Bytes: w.ActualBytes,
		Wall: time.Duration(math.Round(w.WallMillis * 1e6)), Workers: w.Workers,
		SegmentsScanned: w.SegmentsScanned, SegmentsSkipped: w.SegmentsSkipped}
	for i, c := range w.Children {
		if n.Children[i] = c.node(n.Children[i]); n.Children[i] == nil {
			return nil
		}
	}
	return n
}

// queryPlanJSON is a plan document: the plan's own keys (Listing 1 under
// `plan`), then `trace` when the tree carries a run's actuals.
type queryPlanJSON struct {
	*bareQueryPlan
	Trace *traceWire `json:"trace,omitempty"`
}

type bareQueryPlan QueryPlan

// MarshalJSON renders the plan document.
func (qp *QueryPlan) MarshalJSON() ([]byte, error) {
	doc := queryPlanJSON{bareQueryPlan: (*bareQueryPlan)(qp)}
	if qp.Executed() {
		doc.Trace = toWire(qp.Root)
	}
	return json.Marshal(doc)
}

// UnmarshalJSON decodes a plan document; its trace, if any, gives the tree
// its actuals (and is the tree, when the document has no `plan`).
func (qp *QueryPlan) UnmarshalJSON(data []byte) error {
	doc := queryPlanJSON{bareQueryPlan: (*bareQueryPlan)(qp)}
	if err := json.Unmarshal(data, &doc); err != nil || doc.Trace == nil {
		return err
	}
	if qp.Root = doc.Trace.node(qp.Root); qp.Root == nil {
		return errTraceShape
	}
	return nil
}
