package plan

import (
	"encoding/json"
	"errors"
	"math"
	"time"

	"sqlshare/internal/engine"
)

// TraceJSON reads the trace form, the layout older lines wrote an executed
// tree in: each operator's estimate beside its actuals, under the `trace` key
// of a history line before the plan document, and of a plan document before
// the actuals moved onto its nodes. It is only read, never written: a plan's
// actuals are its nodes' `actual` blocks. Decoding gives every node its
// Actual.
type TraceJSON struct{ Root *Node }

// traceWire is one operator of the trace form.
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

var errTraceShape = errors.New("plan: a trace's operators are not its plan's")

// node sets w's actuals on n, and its children's on n's children; when n is
// nil it first makes a node of w's operator and estimate. It returns nil
// where n is not w's operator or w is null: a plan document of the older
// layout carries one tree's estimates under `plan` and its trace under
// `trace`, operator for operator.
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

// UnmarshalJSON decodes a plan document. A document of the older layout
// also carries `trace`, which gives the tree its actuals (and is the tree,
// when the document has no `plan`).
func (qp *QueryPlan) UnmarshalJSON(data []byte) error {
	type bareQueryPlan QueryPlan
	doc := struct {
		*bareQueryPlan
		Trace *traceWire `json:"trace"`
	}{bareQueryPlan: (*bareQueryPlan)(qp)}
	if err := json.Unmarshal(data, &doc); err != nil || doc.Trace == nil {
		return err
	}
	if qp.Root = doc.Trace.node(qp.Root); qp.Root == nil {
		return errTraceShape
	}
	return nil
}
