package engine

import (
	"errors"
	"testing"
	"time"

	"sqlshare/internal/sqlparser"
	"sqlshare/internal/storage"
)

func compileFor(t *testing.T, sql string) *Plan {
	t.Helper()
	return compileWith(t, sql, testResolver(t))
}

func compileWith(t *testing.T, sql string, res Resolver) *Plan {
	t.Helper()
	q, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(q, res)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func execCtx() *ExecContext {
	return &ExecContext{Now: time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC)}
}

func TestTraceRecordsActualRows(t *testing.T) {
	p := compileFor(t, "SELECT name FROM emp WHERE salary > 150")
	ctx := execCtx()
	res, err := p.Execute(ctx)
	if err != nil {
		t.Fatal(err)
	}
	ops := flattenTrace(p, ctx)
	if len(ops) == 0 {
		t.Fatal("no operator in the trace after an execution")
	}
	tr := ops[0]
	if tr.Rows != int64(len(res.Rows)) {
		t.Fatalf("root actual rows = %d, want %d", tr.Rows, len(res.Rows))
	}
	if tr.Executions != 1 {
		t.Fatalf("root executions = %d, want 1", tr.Executions)
	}
	// The scan at the leaves must report the full table cardinality and
	// carry both an estimate and an actual.
	var scan *opTrace
	for i := range ops {
		if ops[i].Object == "emp" {
			scan = &ops[i]
		}
	}
	if scan == nil {
		t.Fatal("no scan node in trace")
	}
	// The predicate is sargable-ish and may be folded into the scan; either
	// way the scan's actual output is the 4 qualifying rows or all 5.
	if scan.Rows != 4 && scan.Rows != 5 {
		t.Fatalf("scan actual rows = %d, want 4 or 5", scan.Rows)
	}
	if scan.EstRows <= 0 {
		t.Fatalf("scan estimate = %v, want > 0", scan.EstRows)
	}
	if scan.Bytes <= 0 {
		t.Fatalf("scan actual bytes = %d, want > 0", scan.Bytes)
	}
}

func TestCorrelatedSubqueryCountsExecutions(t *testing.T) {
	p := compileFor(t, "SELECT name FROM emp e WHERE salary > (SELECT AVG(salary) FROM emp x WHERE x.dept = e.dept)")
	ctx := execCtx()
	if _, err := p.Execute(ctx); err != nil {
		t.Fatal(err)
	}
	// At least one operator (the correlated subplan) must have executed
	// more than once — once per outer row of its department.
	multi := false
	for _, n := range flattenTrace(p, ctx) {
		if n.Executions > 1 {
			multi = true
		}
	}
	if !multi {
		t.Fatal("expected a correlated subplan operator with multiple executions")
	}
}

func TestMaxRowsAbortsWithSentinel(t *testing.T) {
	// The cross join materializes 5*5=25 rows mid-plan; a limit of 10
	// must abort with the typed sentinel.
	p := compileFor(t, "SELECT e.name FROM emp e, emp f")
	ctx := execCtx()
	ctx.MaxRows = 10
	_, err := p.Execute(ctx)
	if err == nil {
		t.Fatal("expected row-limit abort")
	}
	if !errors.Is(err, ErrRowLimit) {
		t.Fatalf("error %v is not ErrRowLimit", err)
	}
	// The same query under a sufficient limit succeeds.
	ctx = execCtx()
	ctx.MaxRows = 100
	if _, err := p.Execute(ctx); err != nil {
		t.Fatalf("execute under sufficient limit: %v", err)
	}
}

func TestMaxRowsWithTracingAlsoAborts(t *testing.T) {
	// Every execution is traced, so the row limit must abort just the
	// same, and the aborted execution must still leave a trace behind.
	p := compileFor(t, "SELECT e.name FROM emp e, emp f")
	ctx := execCtx()
	ctx.MaxRows = 10
	if _, err := p.Execute(ctx); !errors.Is(err, ErrRowLimit) {
		t.Fatalf("traced execution: error %v is not ErrRowLimit", err)
	}
	if ops := flattenTrace(p, ctx); len(ops) == 0 || ops[0].Executions == 0 {
		t.Fatal("the aborted execution left no trace behind")
	}
}

// TestFusedScanReportsWall: a scan fused into a vectorized scalar aggregate
// reports the wall time of the fused loop, which the aggregate's wall time
// includes.
func TestFusedScanReportsWall(t *testing.T) {
	defer storage.SetSegmentRows(storage.SetSegmentRows(64))
	p := compileWith(t, "SELECT COUNT(*) AS n FROM fact", parallelResolver(t, 3000))
	ctx := execCtx()
	if _, err := p.Execute(ctx); err != nil {
		t.Fatal(err)
	}
	var agg, scan *opTrace
	ops := flattenTrace(p, ctx)
	for i, n := range ops {
		switch n.PhysicalOp {
		case "Stream Aggregate":
			agg = &ops[i]
		case "Clustered Index Scan":
			scan = &ops[i]
		}
	}
	if agg == nil || scan == nil {
		t.Fatalf("no aggregate (%v) or scan (%v) in the trace", agg, scan)
	}
	if scan.Rows != 3000 {
		t.Fatalf("scan actual rows = %d, want 3000", scan.Rows)
	}
	if scan.Wall <= 0 || scan.Wall > agg.Wall {
		t.Fatalf("scan wall %v, aggregate wall %v: want 0 < scan ≤ aggregate", scan.Wall, agg.Wall)
	}
}
