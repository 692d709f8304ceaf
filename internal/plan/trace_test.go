package plan

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"sqlshare/internal/engine"
	"sqlshare/internal/sqlparser"
)

// tracedPlan compiles and executes sql, returning the exported QueryPlan
// with its Trace attached — the same assembly the catalog performs for
// every query it executes.
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
	ctx := &engine.ExecContext{Now: time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC)}
	if _, err := p.Execute(ctx); err != nil {
		t.Fatal(err)
	}
	qp := FromEngine(sql, p)
	qp.Trace = p.BuildTrace(ctx)
	if qp.Trace == nil {
		t.Fatal("no trace produced")
	}
	return qp
}

// TestBuildTraceRoundTrip: a trace tree exported into the plan JSON must
// survive serialization — parse it back and the
// operator tree is identical. The insights JSONL log and the /trace
// endpoint both depend on this.
func TestBuildTraceRoundTrip(t *testing.T) {
	qp := tracedPlan(t, "SELECT name, COUNT(*) AS n FROM incomes WHERE income > 500000 GROUP BY name")

	data, err := qp.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back QueryPlan
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Trace == nil {
		t.Fatal("trace lost in JSON round trip")
	}
	if !reflect.DeepEqual(qp.Trace, back.Trace) {
		a, _ := json.Marshal(qp.Trace)
		b, _ := json.Marshal(back.Trace)
		t.Errorf("trace changed across round trip:\nbefore: %s\nafter:  %s", a, b)
	}
}

// TestBuildTraceAlignsWithPlanTree checks the splice invariant BuildTrace
// promises: the trace tree has the same shape and operator labels as the
// extracted plan tree, node for node.
func TestBuildTraceAlignsWithPlanTree(t *testing.T) {
	qp := tracedPlan(t, "SELECT name FROM incomes WHERE income > 500000")

	var planOps, traceOps []string
	var walkPlan func(n *Node)
	walkPlan = func(n *Node) {
		if n == nil {
			return
		}
		planOps = append(planOps, n.PhysicalOp)
		for _, c := range n.Children {
			walkPlan(c)
		}
	}
	walkPlan(qp.Root)
	qp.Trace.WalkTrace(func(n *TraceNode) { traceOps = append(traceOps, n.PhysicalOp) })
	if !reflect.DeepEqual(planOps, traceOps) {
		t.Errorf("plan and trace operator sequences diverge:\nplan:  %v\ntrace: %v", planOps, traceOps)
	}

	// The traced scan emits the 2 rows passing the pushed-down predicate
	// (600000 and 700000); the estimate sits beside the actual.
	var scan *TraceNode
	qp.Trace.WalkTrace(func(n *TraceNode) {
		if n.Object != "" {
			scan = n
		}
	})
	if scan == nil {
		t.Fatal("no scan node in trace")
	}
	if scan.ActualRows != 2 {
		t.Errorf("scan actualRows = %d, want 2", scan.ActualRows)
	}
	if scan.EstRows <= 0 {
		t.Errorf("scan estimateRows = %v, want > 0", scan.EstRows)
	}
	if scan.Executions != 1 {
		t.Errorf("scan executions = %d, want 1", scan.Executions)
	}
}
