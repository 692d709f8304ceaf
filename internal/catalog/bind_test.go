package catalog

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"sqlshare/internal/engine"
	"sqlshare/internal/plan"
	"sqlshare/internal/qcache"
	"sqlshare/internal/sqltypes"
	"sqlshare/internal/storage"
	"sqlshare/internal/wal"
)

// stationTable is a (station, val) table of n rows whose stations are
// prefix1..prefixN, so a result says whose table it was read from.
func stationTable(t testing.TB, prefix string, n int) *storage.Table {
	t.Helper()
	tbl := storage.NewTable(prefix, storage.Schema{
		{Name: "station", Type: sqltypes.String},
		{Name: "val", Type: sqltypes.Float},
	})
	rows := make([]storage.Row, n)
	for i := range rows {
		rows[i] = storage.Row{sqltypes.NewString(fmt.Sprint(prefix, i+1)), sqltypes.NewFloat(float64(i))}
	}
	if err := tbl.Insert(rows); err != nil {
		t.Fatal(err)
	}
	return tbl
}

func firstColumn(res *engine.Result) string {
	var out []string
	for _, r := range res.Rows {
		out = append(out, r[0].String())
	}
	return strings.Join(out, ",")
}

// scanEstRows finds the one table scan of a plan and returns its estimate —
// the row count of the table the plan was compiled over.
func scanEstRows(t *testing.T, root *plan.Node) float64 {
	t.Helper()
	var est []float64
	var walk func(n *plan.Node)
	walk = func(n *plan.Node) {
		if n.Object != "" {
			est = append(est, n.NumRows)
		}
		for _, ch := range n.Children {
			walk(ch)
		}
	}
	walk(root)
	if len(est) != 1 {
		t.Fatalf("plan has %d scans, want 1", len(est))
	}
	return est[0]
}

// TestBindingMatrix: every consumer of a statement's dataset graph agrees
// that a bare name in a view body means its owner's dataset (R2), whoever
// else owns a dataset of that name. alice.water has 3 rows (a1..a3); the
// shadowing water has 5 (x1..x5).
func TestBindingMatrix(t *testing.T) {
	const aliceRows = "a1,a2,a3"
	for _, shadow := range []string{"bob", "carol", ""} {
		for _, view := range []string{"report", "report2"} {
			name := fmt.Sprintf("%s/shadow=%s", view, shadow)
			t.Run(name, func(t *testing.T) {
				c := New()
				c.SetQueryCache(qcache.New(1 << 20))
				for _, u := range []string{"alice", "bob", "carol"} {
					if _, err := c.CreateUser(u, ""); err != nil {
						t.Fatal(err)
					}
				}
				must := func(_ *Dataset, err error) {
					t.Helper()
					if err != nil {
						t.Fatal(err)
					}
				}
				must(c.CreateDatasetFromTable("alice", "water", stationTable(t, "a", 3), Meta{}))
				must(c.SaveView("alice", "report", "SELECT station FROM water", Meta{}))
				must(c.SaveView("alice", "report2", "SELECT station FROM report", Meta{}))
				for _, v := range []string{"report", "report2"} {
					if err := c.SetVisibility("alice", v, Public); err != nil {
						t.Fatal(err)
					}
				}
				if shadow != "" {
					must(c.CreateDatasetFromTable(shadow, "water", stationTable(t, "x", 5), Meta{}))
				}
				full := "alice." + view
				sql := "SELECT * FROM [" + full + "]"

				// Query, and the cached repeat.
				for _, want := range []string{CacheMiss, CacheHit} {
					res, e, err := c.Query("bob", sql)
					if err != nil {
						t.Fatalf("Query (%s): %v", want, err)
					}
					if got := firstColumn(res); got != aliceRows || e.Cache != want {
						t.Errorf("Query: rows %s cache %s, want %s %s", got, e.Cache, aliceRows, want)
					}
				}
				// EXPLAIN and Explain() compile over alice's 3-row table.
				_, e, err := c.Query("bob", "EXPLAIN "+sql)
				if err != nil {
					t.Fatalf("EXPLAIN: %v", err)
				}
				if est := scanEstRows(t, e.Plan.Root); est != 3 {
					t.Errorf("EXPLAIN scans a %v-row table, want alice's 3", est)
				}
				qp, err := c.Explain("bob", sql)
				if err != nil {
					t.Fatalf("Explain(): %v", err)
				}
				if est := scanEstRows(t, qp.Root); est != 3 {
					t.Errorf("Explain() scans a %v-row table, want alice's 3", est)
				}
				// Materialize copies what the query returns.
				must(c.Materialize("bob", full, "snap"))
				res, _, err := c.Query("bob", "SELECT * FROM snap")
				if err != nil || firstColumn(res) != aliceRows {
					t.Errorf("Materialize: rows %v err %v, want %s", res, err, aliceRows)
				}
				// Preview, ReferencedDatasets and ViewDepth.
				ds, err := c.Dataset("bob", full)
				if err != nil {
					t.Fatal(err)
				}
				pv, err := c.Preview("bob", full)
				if err != nil {
					t.Fatal(err)
				}
				var preview []string
				for _, row := range pv.Rows {
					preview = append(preview, row[0])
				}
				if got := strings.Join(preview, ","); got != aliceRows {
					t.Errorf("preview = %s, want %s", got, aliceRows)
				}
				wantRef, wantDepth := "alice.water", 0
				if view == "report2" {
					wantRef, wantDepth = "alice.report", 1
				}
				if refs := c.ReferencedDatasets(ds); len(refs) != 1 || refs[0] != wantRef {
					t.Errorf("ReferencedDatasets = %v, want [%s]", refs, wantRef)
				}
				if d := c.ViewDepth(ds); d != wantDepth {
					t.Errorf("ViewDepth = %d, want %d", d, wantDepth)
				}
			})
		}
	}
}

// TestCacheFencingFollowsBinding: the version vector of a cached result
// holds the datasets the binding read — the owner's, not the reader's.
func TestCacheFencingFollowsBinding(t *testing.T) {
	c := newTestCatalog(t)
	c.SetQueryCache(qcache.New(1 << 20))
	if _, err := c.SaveView("alice", "report", "SELECT station FROM water", Meta{}); err != nil {
		t.Fatal(err)
	}
	if err := c.SetVisibility("alice", "report", Public); err != nil {
		t.Fatal(err)
	}
	const sql = "SELECT * FROM [alice.report]"
	query := func(wantCache string, wantRows int) {
		t.Helper()
		res, e, err := c.Query("bob", sql)
		if err != nil {
			t.Fatal(err)
		}
		if e.Cache != wantCache || len(res.Rows) != wantRows {
			t.Fatalf("cache %s rows %d, want %s %d", e.Cache, len(res.Rows), wantCache, wantRows)
		}
	}
	query(CacheMiss, 3)
	query(CacheHit, 3)
	// bob uploading his own water changes nothing alice.report reads.
	if _, err := c.CreateDatasetFromTable("bob", "water", stationTable(t, "b", 5), Meta{}); err != nil {
		t.Fatal(err)
	}
	query(CacheHit, 3)
	// An append to alice.water does.
	if _, err := c.CreateDatasetFromTable("alice", "more", seedTable(t, "more"), Meta{}); err != nil {
		t.Fatal(err)
	}
	if err := c.Append("alice", "water", "more"); err != nil {
		t.Fatal(err)
	}
	query(CacheMiss, 6)
}

// TestStatementsAuthorizeTheirActor: every statement path refuses to read a
// private dataset for someone without a grant (R4) and refuses base tables
// by name (R3), with an AccessError the server maps to 403.
func TestStatementsAuthorizeTheirActor(t *testing.T) {
	c := newTestCatalog(t) // alice.water is private
	denied := func(what string, err error) {
		t.Helper()
		if !IsAccessError(err) {
			t.Errorf("%s: err = %v, want an AccessError", what, err)
		}
	}
	for _, sql := range []string{"SELECT * FROM [alice.water]", "SELECT * FROM [~base:alice.water]"} {
		_, _, err := c.Query("bob", sql)
		denied("Query "+sql, err)
		_, _, err = c.Query("bob", "EXPLAIN "+sql)
		denied("EXPLAIN "+sql, err)
		_, err = c.Explain("bob", sql)
		denied("Explain() "+sql, err)
		_, err = c.SaveView("bob", "mine", sql, Meta{})
		denied("SaveView "+sql, err)
		_, err = c.ExpandPatterns("bob", strings.Replace(sql, "*", "[s*]", 1))
		denied("ExpandPatterns "+sql, err)
	}
	// The owner may not name her base table either.
	_, err := c.Explain("alice", "SELECT * FROM [~base:alice.water]")
	denied("Explain() by owner", err)
	_, err = c.Materialize("bob", "alice.water", "copy")
	denied("Materialize", err)
	if err := c.SetVisibility("alice", "water", Public); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateDatasetFromTable("bob", "mine", seedTable(t, "mine"), Meta{}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateDatasetFromTable("carol", "secret", seedTable(t, "secret"), Meta{}); err != nil {
		t.Fatal(err)
	}
	denied("Append", c.Append("bob", "mine", "carol.secret"))
	for _, ds := range c.Datasets(true) {
		if ds.Owner == "bob" && (ds.Name != "mine" || !ds.IsWrapper) {
			t.Errorf("a refused statement left %s = %s", ds.FullName(), ds.SQL)
		}
	}
}

// TestReplayedViewOverBaseTableIsRefused: a log written before R3 may hold a
// view over someone else's base table. Replay must keep applying it (the
// catalog fingerprint is the log's), but nobody can read through it or its
// preview.
func TestReplayedViewOverBaseTableIsRefused(t *testing.T) {
	c := newTestCatalog(t)
	c.mu.Lock()
	_, err := c.commit(context.Background(), &wal.Record{
		Op: wal.OpSaveView, Time: time.Unix(0, 0),
		SaveView: &wal.SaveView{Owner: "bob", Name: "leak", SQL: "SELECT * FROM [~base:alice.water]"},
	})
	c.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = c.Query("bob", "SELECT * FROM leak")
	if !IsAccessError(err) || !strings.Contains(err.Error(), "base tables are internal") {
		t.Fatalf("query through the view: %v, want base tables are internal", err)
	}
	if _, err := c.Dataset("bob", "leak"); !IsAccessError(err) {
		t.Fatalf("Dataset: %v, want an AccessError", err)
	}
	if _, err := c.Preview("bob", "leak"); !IsAccessError(err) {
		t.Fatalf("Preview: %v, want an AccessError", err)
	}
	if len(c.previews) != 0 {
		t.Errorf("memo = %v, want nothing stored for a broken binding", c.previews)
	}
}

// TestPreviewRenderedForOwner: a view is previewed as its owner reads it, for
// every reader; once the owner loses the grant on what it reads, its next
// preview is empty (R4) — memoized rows included — even for alice, who may
// read alice.water herself.
func TestPreviewRenderedForOwner(t *testing.T) {
	c := newTestCatalog(t)
	if err := c.ShareWith("alice", "water", "bob"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SaveView("bob", "mine", "SELECT station FROM [alice.water]", Meta{}); err != nil {
		t.Fatal(err)
	}
	if err := c.SetVisibility("bob", "mine", Public); err != nil {
		t.Fatal(err)
	}
	for _, reader := range []string{"bob", "alice"} {
		if pv, err := c.Preview(reader, "bob.mine"); err != nil || len(pv.Rows) != 3 {
			t.Fatalf("%s: preview with a grant: %v, %v; want 3 rows", reader, pv, err)
		}
	}
	// Publish a state whose alice.water lacks bob's grant, bumping no
	// version: the memo's stamp still matches.
	c.mu.Lock()
	next := *c.state.Load()
	next.shared = true
	water := next.datasets["alice.water"].clone()
	delete(water.SharedWith, "bob")
	next.put(water)
	c.state.Store(&next)
	c.mu.Unlock()
	if pv, err := c.Preview("alice", "bob.mine"); err != nil || len(pv.Rows) != 0 {
		t.Fatalf("preview without a grant, versions unchanged: %v, %v; want empty", pv, err)
	}
	if _, err := c.CreateDatasetFromTable("alice", "more", seedTable(t, "more"), Meta{}); err != nil {
		t.Fatal(err)
	}
	if err := c.Append("alice", "water", "more"); err != nil {
		t.Fatal(err)
	}
	if pv, err := c.Preview("alice", "bob.mine"); err != nil || len(pv.Rows) != 0 {
		t.Fatalf("preview without a grant after an upstream bump: %v, %v; want empty", pv, err)
	}
	if _, err := c.Preview("bob", "mine"); !IsAccessError(err) {
		t.Fatalf("owner without a grant: err = %v, want an AccessError", err)
	}
}

func TestIsAccessErrorSeesThroughWrapping(t *testing.T) {
	err := fmt.Errorf("catalog: view definition does not compile: %w", &AccessError{User: "bob", Dataset: "alice.water", Reason: "no permission"})
	if !IsAccessError(err) {
		t.Error("a wrapped AccessError must still be an access error")
	}
	if IsAccessError(fmt.Errorf("other")) || IsAccessError(nil) {
		t.Error("IsAccessError accepts a non-access error")
	}
}
