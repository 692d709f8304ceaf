package catalog

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"sqlshare/internal/history"
	"sqlshare/internal/jobs"
	"sqlshare/internal/sqltypes"
	"sqlshare/internal/storage"
)

// TestConcurrentQueriesAndMutations hammers the catalog from many
// goroutines — the REST layer runs every query in its own goroutine, so
// queries race with uploads, view creation, sharing and deletion. Run with
// -race to validate the locking discipline.
func TestConcurrentQueriesAndMutations(t *testing.T) {
	c := newTestCatalog(t)
	if err := c.SetVisibility("alice", "water", Public); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 256)

	// Readers: queries from several users.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			users := []string{"alice", "bob", "carol"}
			for i := 0; i < 30; i++ {
				u := users[(w+i)%len(users)]
				if _, _, err := c.Query(u, "SELECT COUNT(*) FROM [alice.water]"); err != nil {
					errs <- fmt.Errorf("query: %w", err)
					return
				}
			}
		}(w)
	}
	// Writers: uploads and views under distinct names.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				name := fmt.Sprintf("up_%d_%d", w, i)
				if _, err := c.CreateDatasetFromTable("alice", name, seedTable(t, name), Meta{}); err != nil {
					errs <- fmt.Errorf("upload: %w", err)
					return
				}
				vname := fmt.Sprintf("v_%d_%d", w, i)
				if _, err := c.SaveView("alice", vname,
					fmt.Sprintf("SELECT station FROM %s", name), Meta{}); err != nil {
					errs <- fmt.Errorf("view: %w", err)
					return
				}
				if err := c.ShareWith("alice", vname, "bob"); err != nil {
					errs <- fmt.Errorf("share: %w", err)
					return
				}
			}
		}(w)
	}
	// A deleter churning datasets it creates itself.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			name := fmt.Sprintf("tmp_%d", i)
			if _, err := c.CreateDatasetFromTable("carol", name, seedTable(t, name), Meta{}); err != nil {
				errs <- fmt.Errorf("tmp upload: %w", err)
				return
			}
			if _, _, err := c.Query("carol", "SELECT * FROM "+name); err != nil {
				errs <- fmt.Errorf("tmp query: %w", err)
				return
			}
			if err := c.Delete("carol", name); err != nil {
				errs <- fmt.Errorf("tmp delete: %w", err)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// The log captured all queries (4*30 readers + 10 deleter queries).
	if got := c.LogSize(); got != 130 {
		t.Errorf("log size = %d, want 130", got)
	}
	// Concurrent appends still yield dense, unique ids in log order.
	for i, e := range c.Log() {
		if e.ID != i+1 {
			t.Fatalf("log[%d].ID = %d, want %d: ids must be dense, unique and ordered", i, e.ID, i+1)
		}
	}
}

// TestQueryTakesNoExclusiveLock: a query must finish while a writer holds
// the catalog mutex — neither reading the catalog nor logging the finished
// query may need it, or every short query waits out the slowest writer.
func TestQueryTakesNoExclusiveLock(t *testing.T) {
	c := newTestCatalog(t)
	c.mu.Lock()
	defer c.mu.Unlock()
	done := make(chan error, 1)
	go func() {
		_, _, err := c.Query("alice", "SELECT COUNT(*) FROM water")
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Query blocked behind a held writer mutex: the query path takes the catalog lock")
	}
	if got := c.LogSize(); got != 1 {
		t.Fatalf("log size = %d, want 1", got)
	}
}

// intTable is a two-column INT table of rows rows: (i, col(i)).
func intTable(t *testing.T, name string, rows int, col func(i int) int64) *storage.Table {
	t.Helper()
	tbl := storage.NewTable(name, storage.Schema{{Name: "k", Type: sqltypes.Int}, {Name: "v", Type: sqltypes.Int}})
	batch := make([]storage.Row, rows)
	for i := range batch {
		batch[i] = storage.Row{sqltypes.NewInt(int64(i)), sqltypes.NewInt(col(i))}
	}
	if err := tbl.Insert(batch); err != nil {
		t.Fatal(err)
	}
	return tbl
}

// TestShortQueryNotBehindWriter: while a long query runs, a 1-row upload and
// the short key seeks issued after it both return. Queries read a published
// state and the catalog mutex orders writers only, so neither waits for the
// long query, nor a short query for the upload. The long query is then
// canceled, which it can only be while it still runs.
func TestShortQueryNotBehindWriter(t *testing.T) {
	c := newTestCatalog(t)
	reg := &jobs.Table{}
	for _, tbl := range []*storage.Table{
		intTable(t, "seek", 2_000, func(i int) int64 { return int64(i * 7) }),
		intTable(t, "held", 3_000, func(int) int64 { return 0 }),
	} {
		if _, err := c.CreateDatasetFromTable("alice", tbl.Name(), tbl, Meta{}); err != nil {
			t.Fatal(err)
		}
	}
	short := func(i int) time.Duration {
		start := time.Now()
		if _, _, err := c.Query("alice", fmt.Sprintf("SELECT k, v FROM [seek] WHERE k = %d", i)); err != nil {
			t.Error(err)
		}
		return time.Since(start)
	}
	median := func(ds []time.Duration) time.Duration { slices.Sort(ds); return ds[len(ds)/2] }
	alone := make([]time.Duration, 20)
	for i := range alone {
		alone[i] = short(i)
	}

	// Every probe row of the self-join walks all 3,000 build rows, and the
	// residual holds for none: 9M pairs, seconds of one core.
	const long = "SELECT COUNT(*) FROM held a JOIN held b ON a.v = b.v AND a.k + b.k < -1"
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	longDone := make(chan error, 1)
	started := time.Now()
	go func() {
		j := reg.Create(ctx, "alice", long, 1, "")
		_, _, err := c.QueryWithOptions("alice", long, QueryOptions{Context: j.Context(), Job: j, Parallelism: 1})
		j.Fail(err)
		longDone <- err
	}()
	deadline := time.After(time.Minute)
	for executing := false; !executing; {
		select {
		case err := <-longDone:
			t.Fatalf("long query ended with %v before it was seen executing", err)
		case <-deadline:
			t.Fatal("long query was not seen executing within a minute")
		case <-time.After(time.Millisecond):
		}
		for _, q := range reg.Running() {
			executing = executing || q.SQL == long && q.Phase == history.PhaseExecute.String()
		}
	}

	late := intTable(t, "late", 1, func(int) int64 { return 1 })
	uploaded := make(chan error, 1)
	go func() {
		_, err := c.CreateDatasetFromTable("alice", "late", late, Meta{})
		uploaded <- err
	}()
	time.Sleep(20 * time.Millisecond) // the upload is in, or waiting for the lock
	behind := make([]time.Duration, 5)
	var shorts sync.WaitGroup
	for i := range behind {
		shorts.Add(1)
		go func() { defer shorts.Done(); behind[i] = short(100 + i) }()
	}
	shorts.Wait()
	select {
	case err := <-uploaded:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Minute):
		t.Fatal("the upload did not return")
	}
	cancel()
	err := <-longDone
	t.Logf("short seek median: alone %v, behind the long query and an upload %v; long query canceled after %v",
		median(alone), median(behind), time.Since(started))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("long query ended with %v before it was canceled: the short queries and the upload waited for it", err)
	}
}
