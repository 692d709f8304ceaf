package catalog

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"sqlshare/internal/history"
	"sqlshare/internal/obs"
	"sqlshare/internal/plan"
	"sqlshare/internal/qcache"
	"sqlshare/internal/sqltypes"
	"sqlshare/internal/storage"
)

// TestQueryPathHeapIsFlat is the steady-state bound on the query path: with
// every per-query owner attached and warm — the history ring full, tracing
// on, a 1 MiB result cache filled to its budget — another 10,000 queries,
// every literal distinct, may not grow the live heap by more than 2 MiB.
// (The unbounded Catalog.log this replaced grew it by ≈ 19 MiB.) What still
// grows here is userAgg.distinct in the history analyzer, eight bytes and a
// map slot per distinct statement per user, until its own cap of 65,536
// (history.TestDistinctPerUserIsCapped).
func TestQueryPathHeapIsFlat(t *testing.T) {
	c := newTestCatalog(t)
	c.SetQueryCache(qcache.New(1 << 20))
	seeks := func(from, to int) {
		for i := from; i < to; i++ {
			sql := fmt.Sprintf("SELECT station FROM water WHERE val = %d", i)
			if _, _, err := c.Query("alice", sql); err != nil {
				t.Fatal(err)
			}
		}
	}
	heap := func() int64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	seeks(0, 3000)
	before := heap()
	seeks(3000, 13000)
	grew := heap() - before
	runtime.KeepAlive(c) // the catalog is live at both readings
	t.Logf("heap grew %.2f MiB over 10,000 queries", float64(grew)/(1<<20))
	if grew > 2<<20 {
		t.Errorf("heap grew %.2f MiB over 10,000 queries, want <= 2 MiB", float64(grew)/(1<<20))
	}
}

// TestRowsScannedCountsEveryQuery: sqlshare_query_rows_scanned_total is a
// walk over the run's trace, and every execution builds one, so a query run
// with no options counts the rows its scans produced.
func TestRowsScannedCountsEveryQuery(t *testing.T) {
	prev := storage.SetSegmentRows(4)
	t.Cleanup(func() { storage.SetSegmentRows(prev) })
	c := newTestCatalog(t)
	tbl := storage.NewTable("gauge", storage.Schema{
		{Name: "station", Type: sqltypes.String},
		{Name: "val", Type: sqltypes.Float},
	})
	var rows []storage.Row
	for i := 0; i < 10; i++ {
		rows = append(rows, storage.Row{sqltypes.NewString(fmt.Sprintf("s%d", i)), sqltypes.NewFloat(float64(i))})
	}
	if err := tbl.Insert(rows); err != nil {
		t.Fatal(err)
	}
	if _, segs := tbl.ScanSegments(); len(segs) != 3 {
		t.Fatalf("table holds %d segments, want 3", len(segs))
	}
	if _, err := c.CreateDatasetFromTable("alice", "gauge", tbl, Meta{}); err != nil {
		t.Fatal(err)
	}
	m := obs.NewPlatformMetrics(obs.NewRegistry())
	h, err := history.New(history.Config{Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	c.SetHistory(h)

	_, entry, err := c.QueryWithOptions("alice", "SELECT station FROM gauge WHERE val > 2", QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	if entry.Plan != nil {
		entry.Plan.Walk(func(n *plan.Node) {
			if n.Object != "" {
				want += n.Actual.Rows
			}
		})
	}
	if got := m.RowsScanned.Value(); want <= 0 || got != want {
		t.Fatalf("sqlshare_query_rows_scanned_total = %d, the trace's scans produced %d rows; want them equal and > 0", got, want)
	}
}

// TestLogEntryDoesNotPinPlan: the history ring holds its entries for as long
// as the server runs, and a compiled operator holds the table it reads, so
// an entry must keep no compiled operator alive — in the manner of
// engine.TestProgressDoesNotPinPlan. After an executed query and after a
// plain EXPLAIN, a table that only the catalog and those runs' operators
// referenced is collected once the catalog is gone, while its history, and
// the entries in its ring, are live.
func TestLogEntryDoesNotPinPlan(t *testing.T) {
	var freed atomic.Bool
	run := func() *history.History {
		c := newTestCatalog(t)
		tbl := seedTable(t, "gauge")
		runtime.SetFinalizer(tbl, func(*storage.Table) { freed.Store(true) })
		if _, err := c.CreateDatasetFromTable("alice", "gauge", tbl, Meta{}); err != nil {
			t.Fatal(err)
		}
		for _, sql := range []string{
			"SELECT station, COUNT(*) AS n FROM gauge WHERE val > 1 GROUP BY station",
			"EXPLAIN SELECT station FROM gauge WHERE val > 1",
		} {
			if _, e, err := c.Query("alice", sql); err != nil || e.Plan == nil {
				t.Fatalf("%s: plan %v, err %v", sql, e.Plan, err)
			}
		}
		return c.History()
	}
	h := run()
	for i := 0; i < 100 && !freed.Load(); i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if !freed.Load() {
		t.Fatal("the table a logged query read is still reachable: a log entry pins a compiled operator")
	}
	if log := h.Log(); len(log) != 2 || !log[0].Plan.Executed() || log[1].Plan.Executed() {
		t.Fatalf("the ring should hold the executed query with its actuals and the EXPLAIN without: %+v", log)
	}
}
