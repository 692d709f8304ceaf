package catalog

import (
	"fmt"
	"runtime"
	"testing"

	"sqlshare/internal/qcache"
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
	c.SetQueryCache(qcache.New(1<<20, 0))
	seeks := func(from, to int) {
		for i := from; i < to; i++ {
			sql := fmt.Sprintf("SELECT station FROM water WHERE val = %d", i)
			if _, _, err := c.QueryWithOptions("alice", sql, QueryOptions{Trace: true}); err != nil {
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
