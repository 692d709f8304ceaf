package catalog

import (
	"strings"
	"testing"
	"time"

	"sqlshare/internal/history"
)

func TestExplainStatementReturnsEstimates(t *testing.T) {
	c := newTestCatalog(t)
	logBefore := c.LogSize()
	res, entry, err := c.Query("alice", "EXPLAIN SELECT station FROM water WHERE val > 1")
	if err != nil {
		t.Fatal(err)
	}
	wantCols := []string{"operator", "object", "estRows", "io", "cpu", "totalCost", "vectorized"}
	if strings.Join(res.ColumnNames(), ",") != strings.Join(wantCols, ",") {
		t.Fatalf("columns = %v, want %v", res.ColumnNames(), wantCols)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no operator rows")
	}
	// The scan row names the object and carries cost estimates.
	var sawScan bool
	for _, row := range res.Rows {
		if row[1].String() == "water" {
			sawScan = true
		}
	}
	if !sawScan {
		t.Fatalf("no scan of 'water' in EXPLAIN output: %v", res.Rows)
	}
	// Plain EXPLAIN compiles without executing: no trace is attached, but
	// the statement is logged like any other.
	if entry.Plan == nil || entry.Plan.Executed() {
		t.Fatalf("plain EXPLAIN should log a plan without a trace (plan=%v)", entry.Plan)
	}
	if c.LogSize() != logBefore+1 {
		t.Errorf("EXPLAIN should append to the query log")
	}
}

func TestExplainAnalyzeExecutesWithTracing(t *testing.T) {
	c := newTestCatalog(t)
	res, entry, err := c.Query("alice", "EXPLAIN ANALYZE SELECT station FROM water WHERE val > 1")
	if err != nil {
		t.Fatal(err)
	}
	wantCols := []string{"operator", "object", "estRows", "actualRows", "executions", "wallMs", "bytes", "workers", "vectorized", "segsScanned", "segsSkipped"}
	if strings.Join(res.ColumnNames(), ",") != strings.Join(wantCols, ",") {
		t.Fatalf("columns = %v, want %v", res.ColumnNames(), wantCols)
	}
	if !entry.Plan.Executed() {
		t.Fatal("EXPLAIN ANALYZE must attach a trace even when the caller did not request tracing")
	}
	// Estimates and actuals sit side by side; the scan of water emitted the
	// 2 rows with val > 1.
	var sawActual bool
	for _, row := range res.Rows {
		if row[1].String() == "water" && row[3].String() == "2" {
			sawActual = true
		}
	}
	if !sawActual {
		t.Fatalf("no scan row with actualRows=2 in EXPLAIN ANALYZE output: %v", res.Rows)
	}
}

// TestExplainLogsTheTableItReturns: an EXPLAIN [ANALYZE] statement's result
// is its operator table, so the log entry's rows and bytes — what the JSONL
// line, the usage accounts and the execute span report — are that table's,
// not the analyzed query's (one row of eight bytes here).
func TestExplainLogsTheTableItReturns(t *testing.T) {
	c := newTestCatalog(t)
	inner, plain, err := c.Query("alice", "SELECT COUNT(*) FROM water")
	if err != nil {
		t.Fatal(err)
	}
	if len(inner.Rows) != 1 || plain.ResultBytes != inner.Bytes {
		t.Fatalf("COUNT(*) returned %d rows, logged %d bytes of %d", len(inner.Rows), plain.ResultBytes, inner.Bytes)
	}
	for _, sql := range []string{"EXPLAIN SELECT COUNT(*) FROM water", "EXPLAIN ANALYZE SELECT COUNT(*) FROM water"} {
		res, e, err := c.Query("alice", sql)
		if err != nil {
			t.Fatal(err)
		}
		var size int64
		for _, row := range res.Rows {
			for _, v := range row {
				size += int64(v.SizeBytes())
			}
		}
		if e.RowsReturned != len(res.Rows) || e.ResultBytes != size || res.Bytes != size || e.RowsReturned < 2 {
			t.Errorf("%s: logged %d rows, %d bytes; returned %d rows, %d bytes (Result.Bytes %d)",
				sql, e.RowsReturned, e.ResultBytes, len(res.Rows), size, res.Bytes)
		}
	}
}

func TestExplainAnalyzeChecksPermissions(t *testing.T) {
	c := newTestCatalog(t)
	// bob cannot see alice's private dataset, with or without EXPLAIN.
	if _, _, err := c.Query("bob", "EXPLAIN ANALYZE SELECT * FROM [alice.water]"); err == nil {
		t.Fatal("EXPLAIN ANALYZE must enforce dataset permissions")
	}
}

func TestQueryRecordsHistory(t *testing.T) {
	c := newTestCatalog(t)
	h, err := history.New(history.Config{SlowThreshold: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	c.SetHistory(h)
	if c.History() != h {
		t.Fatal("History() should return the attached recorder")
	}

	if _, _, err := c.Query("alice", "SELECT station FROM water WHERE val > 1"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Query("alice", "SELECT nope FROM water"); err == nil {
		t.Fatal("expected failure")
	}

	if got := h.Size(); got != 2 {
		t.Fatalf("history size = %d, want 2 (failures recorded too)", got)
	}
	recent := h.Recent(2)
	if !recent[0].Failed() || recent[1].Failed() {
		t.Fatalf("newest-first order wrong: %+v", recent)
	}
	ok := recent[1]
	if ok.User != "alice" || ok.Digest == "" || !ok.Plan.Executed() {
		t.Errorf("recorded statement incomplete: %+v", ok)
	}
	if ok.RowsReturned != 2 {
		t.Errorf("rowsReturned = %d, want 2", ok.RowsReturned)
	}
	if ok.Runtime <= 0 {
		t.Errorf("runtime = %v, want > 0", ok.Runtime)
	}
	s := h.Analyzer().Summarize()
	if s.Queries != 2 || s.Failed != 1 {
		t.Errorf("analyzer summary = %+v", s)
	}
	// The analyzer folds the bare column-map key onto the dataset full
	// name: one census row per dataset, column counts attached to it.
	touches := h.Analyzer().TableTouches()
	if len(touches) != 1 || touches[0].Table != "alice.water" {
		t.Fatalf("table touches = %+v, want a single alice.water row", touches)
	}
	if touches[0].Columns["val"] == 0 {
		t.Errorf("column counts missing: %+v", touches[0].Columns)
	}

	// A swapped-in history carries on the log: same window, next ID.
	next, err := history.New(history.Config{})
	if err != nil {
		t.Fatal(err)
	}
	c.SetHistory(next)
	_, entry, _ := c.Query("alice", "SELECT station FROM water")
	if got := h.Size(); got != 2 {
		t.Errorf("history grew after it was swapped out: %d", got)
	}
	if log := c.Log(); len(log) != entry.ID || log[len(log)-1] != entry || log[len(log)-2] != recent[0] {
		t.Errorf("log after swap has %d entries, newest ID %d", len(log), entry.ID)
	}
}
