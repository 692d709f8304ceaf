package catalog

import (
	"fmt"
	"runtime"
	"testing"

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
		entry.Plan.Trace.WalkTrace(func(n *plan.TraceNode) {
			if n.Object != "" {
				want += n.ActualRows
			}
		})
	}
	if got := m.RowsScanned.Value(); want <= 0 || got != want {
		t.Fatalf("sqlshare_query_rows_scanned_total = %d, the trace's scans produced %d rows; want them equal and > 0", got, want)
	}
}
