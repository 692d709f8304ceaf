package catalog

import (
	"fmt"
	"sync"
	"testing"
	"time"
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

// TestQueryTakesNoExclusiveLock: a query must finish while another reader
// holds the catalog read lock — logging the finished query may not need the
// write lock, or every short query waits out the longest one running.
func TestQueryTakesNoExclusiveLock(t *testing.T) {
	c := newTestCatalog(t)
	c.mu.RLock()
	defer c.mu.RUnlock()
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
		t.Fatal("Query blocked behind a held read lock: the query path takes the exclusive catalog lock")
	}
	if got := c.LogSize(); got != 1 {
		t.Fatalf("log size = %d, want 1", got)
	}
}
