package plan

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"sqlshare/internal/engine"
	"sqlshare/internal/sqlparser"
)

// tracedPlan compiles and executes sql, returning the exported QueryPlan
// with the run's actuals attached — the same assembly the catalog performs
// for every query it executes.
func tracedPlan(t *testing.T, sql string) *QueryPlan {
	t.Helper()
	res := testResolver(t)
	q, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	p, err := engine.Compile(q, res)
	if err != nil {
		t.Fatal(err)
	}
	qp, attach := FromEngine(sql, p)
	if qp.Executed() {
		t.Fatal("a tree carries actuals before its run")
	}
	ctx := &engine.ExecContext{Now: time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC)}
	if _, err := p.Execute(ctx); err != nil {
		t.Fatal(err)
	}
	attach(ctx)
	return qp
}

// traceForm renders n, whose every node carries its Actual, in the trace
// form older lines wrote: the oracle for reading them, since nothing in the
// package writes it any more.
func traceForm(n *Node) *traceWire {
	a := n.Actual
	w := &traceWire{
		PhysicalOp: n.PhysicalOp, LogicalOp: n.LogicalOp, Object: n.Object, EstimateRows: n.NumRows,
		ActualRows: a.Rows, Executions: a.Executions, WallMillis: float64(a.Wall.Nanoseconds()) / 1e6,
		ActualBytes: a.Bytes, Workers: a.Workers, Vectorized: n.Vectorized,
		SegmentsScanned: a.SegmentsScanned, SegmentsSkipped: a.SegmentsSkipped,
		Children: make([]*traceWire, len(n.Children)),
	}
	for i, c := range n.Children {
		w.Children[i] = traceForm(c)
	}
	return w
}

// TestTraceRoundTrip: an executed tree exported as its plan document — each
// Listing 1 node with its `actual` block — must survive serialization: parse
// it back and the tree, estimates and actuals, is identical. The release
// files depend on this. A document of the older layout, Listing 1 under
// `plan` and the same operators in the trace form under `trace`, decodes to
// the same tree, and the trace form alone into the same operators and
// actuals.
func TestTraceRoundTrip(t *testing.T) {
	qp := tracedPlan(t, "SELECT name, COUNT(*) AS n FROM incomes WHERE income > 500000 GROUP BY name")

	data, err := qp.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back QueryPlan
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !back.Executed() {
		t.Fatal("actuals lost in JSON round trip")
	}
	if b, _ := back.JSON(); !reflect.DeepEqual(qp.Root, back.Root) || string(b) != string(data) {
		t.Errorf("plan changed across round trip:\nbefore: %s\nafter:  %s", data, b)
	}
	if strings.Contains(string(data), `"trace"`) || strings.Count(string(data), `"actual":`) != qp.NumOperators() {
		t.Errorf("an executed plan document is not one tree with an actual block per node:\n%s", data)
	}
	est, _ := qp.Estimates().JSON()
	if strings.Contains(string(est), `"actual"`) {
		t.Errorf("the estimate half writes actuals:\n%s", est)
	}

	trace, err := json.Marshal(traceForm(qp.Root))
	if err != nil {
		t.Fatal(err)
	}
	old := strings.TrimSuffix(string(est), "}") + `,"trace":` + string(trace) + "}"
	var fromOld QueryPlan
	if err := json.Unmarshal([]byte(old), &fromOld); err != nil {
		t.Fatal(err)
	}
	if b, _ := fromOld.JSON(); !reflect.DeepEqual(qp.Root, fromOld.Root) || string(b) != string(data) {
		t.Errorf("a document of the older layout decodes to another plan:\nwant: %s\ngot:  %s", data, b)
	}
	var only TraceJSON
	if err := json.Unmarshal(trace, &only); err != nil {
		t.Fatal(err)
	}
	var ops, onlyOps []string
	qp.Walk(func(n *Node) { ops = append(ops, fmt.Sprintf("%s %+v", n.PhysicalOp, *n.Actual)) })
	walkNode(only.Root, func(n *Node) { onlyOps = append(onlyOps, fmt.Sprintf("%s %+v", n.PhysicalOp, *n.Actual)) })
	if !reflect.DeepEqual(ops, onlyOps) {
		t.Errorf("the trace form alone decodes to other operators:\nwant %q\ngot  %q", ops, onlyOps)
	}

	// A document whose trace is not its plan's tree is refused, and so is
	// a trace with a null operator.
	var bad QueryPlan
	if err := json.Unmarshal([]byte(`{"plan":{"physicalOp":"Sort","children":[]},"trace":{"physicalOp":"Top","children":[]}}`), &bad); err == nil {
		t.Error("a trace over other operators than the plan's decoded")
	}
	if err := json.Unmarshal([]byte(`{"physicalOp":"Top","children":[null]}`), &only); err == nil {
		t.Error("a trace with a null operator decoded")
	}
}

// TestPlanTreeCarriesActuals: the one tree carries each operator's estimate
// beside what the run measured there, and its estimate half (what a cache
// hit shows) carries none.
func TestPlanTreeCarriesActuals(t *testing.T) {
	qp := tracedPlan(t, "SELECT name FROM incomes WHERE income > 500000")

	// The traced scan emits the 2 rows passing the pushed-down predicate
	// (600000 and 700000); the estimate sits beside the actual.
	var scan *Node
	qp.Walk(func(n *Node) {
		if n.Actual == nil {
			t.Fatalf("%s carries no actuals after the run", n.PhysicalOp)
		}
		if n.Object != "" {
			scan = n
		}
	})
	if scan == nil {
		t.Fatal("no scan node in the tree")
	}
	if scan.Actual.Rows != 2 {
		t.Errorf("scan actual rows = %d, want 2", scan.Actual.Rows)
	}
	if scan.NumRows <= 0 {
		t.Errorf("scan row estimate = %v, want > 0", scan.NumRows)
	}
	if scan.Actual.Executions != 1 {
		t.Errorf("scan executions = %d, want 1", scan.Actual.Executions)
	}

	est := qp.Estimates()
	est.Walk(func(n *Node) {
		if n.Actual != nil {
			t.Errorf("the estimate half carries %s's actuals", n.PhysicalOp)
		}
	})
	if est.Template() != qp.Template() || !qp.Executed() {
		t.Error("Estimates changed the plan it copied")
	}
}
