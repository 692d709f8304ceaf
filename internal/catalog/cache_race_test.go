package catalog

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sqlshare/internal/qcache"
)

// TestQueryCacheUnderConcurrentMutation hammers the cache with reader
// goroutines while mutators append to the queried dataset. The invariant
// under test is the version fence itself: a reader that observed K
// committed appends before submitting its query must never receive a
// result older than those K appends, no matter how the cache interleaves
// probes, fills and evictions. Run under -race in CI (`make ci`).
func TestQueryCacheUnderConcurrentMutation(t *testing.T) {
	c := newTestCatalog(t)
	qc := qcache.New(4 << 20)
	c.SetQueryCache(qc)
	if _, err := c.CreateDatasetFromTable("alice", "events", seedTable(t, "events"), Meta{}); err != nil {
		t.Fatal(err)
	}
	const (
		mutators      = 4
		appendsPer    = 5
		readers       = 8
		readsPer      = 50
		rowsPerAppend = 3 // seedTable rows
	)
	before := runtime.NumGoroutine()

	// committed counts appends whose catalog commit has completed; a
	// reader snapshots it BEFORE querying, so every committed append at
	// that instant must be visible in the answer.
	var committed atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, mutators+readers)

	for m := 0; m < mutators; m++ {
		wg.Add(1)
		go func(m int) {
			defer wg.Done()
			for i := 0; i < appendsPer; i++ {
				name := fmt.Sprintf("chunk_%d_%d", m, i)
				if _, err := c.CreateDatasetFromTable("alice", name, seedTable(t, name), Meta{}); err != nil {
					errs <- err
					return
				}
				if err := c.Append("alice", "events", name); err != nil {
					errs <- err
					return
				}
				committed.Add(1)
			}
		}(m)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < readsPer; i++ {
				lo := committed.Load()
				res, _, err := c.Query("alice", "SELECT COUNT(*) AS n FROM events")
				if err != nil {
					errs <- err
					return
				}
				n := res.Rows[0][0].Int()
				min := rowsPerAppend * (1 + lo)
				max := rowsPerAppend * (1 + int64(mutators*appendsPer))
				if n < min {
					errs <- fmt.Errorf("stale result: count %d after %d committed appends (want >= %d)", n, lo, min)
					return
				}
				if n > max || n%rowsPerAppend != 0 {
					errs <- fmt.Errorf("impossible count %d (max %d)", n, max)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Once mutation stops, the cache must converge: a repeated query hits.
	if _, e, err := c.Query("alice", "SELECT COUNT(*) AS n FROM events"); err != nil || e.Cache == CacheBypass {
		t.Fatalf("quiesced query: cache=%v err=%v", e.Cache, err)
	}
	if _, e, err := c.Query("alice", "SELECT COUNT(*) AS n FROM events"); err != nil || e.Cache != CacheHit {
		t.Fatalf("quiesced re-query: cache=%v err=%v, want hit", e.Cache, err)
	}
	if st := qc.Stats(); st.ResultMisses == 0 {
		t.Errorf("expected result misses during churn, stats=%+v", st)
	}

	// No goroutines may outlive the workload (the cache spawns none; a
	// leak here would point at the query path).
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutine leak: %d before, %d after", before, after)
	}
}
