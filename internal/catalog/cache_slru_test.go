package catalog

import (
	"fmt"
	"runtime"
	"testing"

	"sqlshare/internal/history"
	"sqlshare/internal/qcache"
	"sqlshare/internal/sqltypes"
	"sqlshare/internal/storage"
)

// newObsCatalog is the test catalog plus alice's 200-row obs table (ten rows
// per key, clustered on k) and a two-deep view chain over it, the shapes
// the point benchmark queries.
func newObsCatalog(t *testing.T) *Catalog {
	t.Helper()
	c := newTestCatalog(t)
	tbl := storage.NewTable("obs", storage.Schema{
		{Name: "k", Type: sqltypes.Int},
		{Name: "seq", Type: sqltypes.Int},
		{Name: "val", Type: sqltypes.Float},
		{Name: "name", Type: sqltypes.String},
	})
	var rows []storage.Row
	for i := 0; i < 200; i++ {
		rows = append(rows, storage.Row{
			sqltypes.NewInt(int64(i / 10)), sqltypes.NewInt(int64(i % 10)),
			sqltypes.NewFloat(float64(i) * 1.25), sqltypes.NewString(fmt.Sprintf("site-%d", i)),
		})
	}
	if err := tbl.Insert(rows); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateDatasetFromTable("alice", "obs", tbl, Meta{}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SaveView("alice", "obs_valid", "SELECT k, seq, val, name FROM obs WHERE val >= 0", Meta{}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SaveView("alice", "obs_top", "SELECT k, name, val FROM obs_valid WHERE seq < 8", Meta{}); err != nil {
		t.Fatal(err)
	}
	return c
}

// oneOffSQL is the i-th of a stream of distinct statements in four shapes:
// a key seek, a short range, a sorted TOP and a count through the views.
func oneOffSQL(i int) string {
	k := i % 20
	switch i % 4 {
	case 0:
		return fmt.Sprintf("SELECT k, seq, val FROM obs WHERE k = %d AND val > %d.5", k, i)
	case 1:
		return fmt.Sprintf("SELECT k, seq, val FROM obs WHERE k = %d AND seq >= %d", k, i%10-i)
	case 2:
		return fmt.Sprintf("SELECT TOP 10 k, name, val FROM obs_top WHERE k <= %d AND val > -%d ORDER BY val DESC, k", k, i)
	default:
		return fmt.Sprintf("SELECT COUNT(*) AS n FROM obs_top WHERE k = %d AND val > -%d", k, i)
	}
}

func heapAlloc() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestChargeCoversRetainedHeap holds the budget's charge to what an entry
// keeps alive: the heap a Flush of 4,000 distinct results returns must be
// within [0.67, 1.5]× the bytes they were charged. The history ring holds
// one entry, so it pins none of the flushed plans.
func TestChargeCoversRetainedHeap(t *testing.T) {
	c := newObsCatalog(t)
	h, err := history.New(history.Config{RingSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	c.SetHistory(h)
	qc := qcache.New(1 << 30)
	c.SetQueryCache(qc)
	const n = 4000
	for i := 0; i < n; i++ {
		if _, _, err := c.Query("alice", oneOffSQL(i)); err != nil {
			t.Fatalf("%s: %v", oneOffSQL(i), err)
		}
	}
	st := qc.Stats()
	if st.Entries != n || st.Evictions != 0 {
		t.Fatalf("cache holds %d entries after %d evictions, want %d and 0", st.Entries, st.Evictions, n)
	}
	before := heapAlloc()
	qc.Flush()
	retained := float64(before) - float64(heapAlloc())
	ratio := retained / float64(st.Bytes)
	t.Logf("retained %.0f B/entry, charged %.0f B/entry: %.2f×", retained/n, float64(st.Bytes)/n, ratio)
	if ratio < 0.67 || ratio > 1.5 {
		t.Errorf("retained/charged = %.2f, want within [0.67, 1.5]", ratio)
	}
	runtime.KeepAlive(c)
}

// TestDashboardSurvivesOneOffFlood: a statement that repeated once is still
// answered from the cache after 5,000 distinct statements, several budgets'
// worth, each run once. The trade-off is the statement that never repeated
// before the flood: it aged out of probation and misses.
func TestDashboardSurvivesOneOffFlood(t *testing.T) {
	c := newObsCatalog(t)
	qc := qcache.New(1 << 20)
	c.SetQueryCache(qc)
	const (
		dashboard = "SELECT k, COUNT(*) AS n, SUM(val) AS s FROM obs_top GROUP BY k ORDER BY k"
		once      = "SELECT name, val FROM obs WHERE k = 3 ORDER BY val DESC"
	)
	query := func(sql string) string {
		t.Helper()
		_, e, err := c.Query("alice", sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		return e.Cache
	}
	for i, want := range []string{CacheMiss, CacheHit} {
		if got := query(dashboard); got != want {
			t.Fatalf("dashboard run %d: cache %q, want %q", i, got, want)
		}
	}
	if got := query(once); got != CacheMiss {
		t.Fatalf("first run of a new statement: cache %q, want miss", got)
	}
	for i := 0; i < 5000; i++ {
		query(oneOffSQL(i))
	}
	if st := qc.Stats(); st.Evictions == 0 || st.Stores < 5000 {
		t.Fatalf("the flood stored %d and evicted %d, want ≥ 5,000 stores and evictions", st.Stores, st.Evictions)
	}
	if got := query(dashboard); got != CacheHit {
		t.Errorf("dashboard after the flood: cache %q, want hit", got)
	}
	if got := query(once); got != CacheMiss {
		t.Errorf("never-hit statement after the flood: cache %q, want miss", got)
	}
}
