package catalog

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sqlshare/internal/sqltypes"
	"sqlshare/internal/storage"
)

func seedTable(t testing.TB, name string) *storage.Table {
	t.Helper()
	tbl := storage.NewTable(name, storage.Schema{
		{Name: "station", Type: sqltypes.String},
		{Name: "val", Type: sqltypes.Float},
	})
	rows := []storage.Row{
		{sqltypes.NewString("s1"), sqltypes.NewFloat(1)},
		{sqltypes.NewString("s2"), sqltypes.NewFloat(2)},
		{sqltypes.NewString("s3"), sqltypes.NewFloat(3)},
	}
	if err := tbl.Insert(rows); err != nil {
		t.Fatal(err)
	}
	return tbl
}

func newTestCatalog(t testing.TB) *Catalog {
	t.Helper()
	c := New()
	base := time.Date(2012, 1, 1, 0, 0, 0, 0, time.UTC)
	var tick atomic.Int64
	c.SetClock(func() time.Time {
		return base.Add(time.Duration(tick.Add(1)) * time.Minute)
	})
	for _, u := range []string{"alice", "bob", "carol"} {
		if _, err := c.CreateUser(u, u+"@uw.edu"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.CreateDatasetFromTable("alice", "water", seedTable(t, "water"), Meta{Description: "water quality"}); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestUploadCreatesWrapperView(t *testing.T) {
	c := newTestCatalog(t)
	ds, err := c.Dataset("alice", "water")
	if err != nil {
		t.Fatal(err)
	}
	if !ds.IsWrapper {
		t.Error("upload should create a wrapper view")
	}
	if !strings.HasPrefix(ds.SQL, "SELECT * FROM") {
		t.Errorf("wrapper SQL = %q", ds.SQL)
	}
	if pv, err := c.Preview("alice", "water"); err != nil || len(pv.Rows) != 3 || len(pv.Cols) != 2 {
		t.Errorf("preview: %v %v", pv, err)
	}
	if c.NumBaseTables() != 1 || c.TotalColumns() != 2 {
		t.Errorf("base tables=%d cols=%d", c.NumBaseTables(), c.TotalColumns())
	}
}

func TestQueryOwnDataset(t *testing.T) {
	c := newTestCatalog(t)
	res, entry, err := c.Query("alice", "SELECT station FROM water WHERE val > 1.5")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if entry.Plan == nil || entry.Meta == nil {
		t.Fatal("log entry should carry plan and metadata")
	}
	if len(entry.Datasets) != 1 || entry.Datasets[0] != "alice.water" {
		t.Errorf("datasets = %v", entry.Datasets)
	}
	if entry.RowsReturned != 2 {
		t.Errorf("rows returned = %d", entry.RowsReturned)
	}
	if c.LogSize() != 1 {
		t.Errorf("log size = %d", c.LogSize())
	}
}

func TestSaveViewStripsOrderBy(t *testing.T) {
	c := newTestCatalog(t)
	ds, err := c.SaveView("alice", "sorted", "SELECT station, val FROM water ORDER BY val DESC", Meta{})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(ds.SQL, "ORDER BY") {
		t.Errorf("ORDER BY should be stripped: %s", ds.SQL)
	}
	if ds.IsWrapper {
		t.Error("saved view is a derived dataset")
	}
}

func TestSaveViewRejectsBrokenSQL(t *testing.T) {
	c := newTestCatalog(t)
	if _, err := c.SaveView("alice", "broken", "SELECT nothere FROM water", Meta{}); err == nil {
		t.Error("saving a non-compiling view should fail")
	}
	if _, err := c.SaveView("alice", "bad", "SELEC *", Meta{}); err == nil {
		t.Error("saving an unparsable view should fail")
	}
}

func TestViewChainAndDepth(t *testing.T) {
	c := newTestCatalog(t)
	mustView := func(owner, name, sql string) *Dataset {
		ds, err := c.SaveView(owner, name, sql, Meta{})
		if err != nil {
			t.Fatalf("SaveView(%s): %v", name, err)
		}
		return ds
	}
	v1 := mustView("alice", "clean", "SELECT station, val FROM water WHERE val IS NOT NULL")
	v2 := mustView("alice", "rounded", "SELECT station, ROUND(val, 0) AS v FROM clean")
	v3 := mustView("alice", "summary", "SELECT station, COUNT(*) AS n FROM rounded GROUP BY station")
	wrapper, _ := c.Dataset("alice", "water")
	if d := c.ViewDepth(wrapper); d != -1 {
		t.Errorf("wrapper depth = %d", d)
	}
	if d := c.ViewDepth(v1); d != 0 {
		t.Errorf("v1 depth = %d", d)
	}
	if d := c.ViewDepth(v2); d != 1 {
		t.Errorf("v2 depth = %d", d)
	}
	if d := c.ViewDepth(v3); d != 2 {
		t.Errorf("v3 depth = %d", d)
	}
	// Query through the chain.
	res, _, err := c.Query("alice", "SELECT * FROM summary")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Errorf("chain query rows = %d", len(res.Rows))
	}
}

func TestPrivateByDefault(t *testing.T) {
	c := newTestCatalog(t)
	if _, _, err := c.Query("bob", "SELECT * FROM [alice.water]"); err == nil {
		t.Fatal("bob should not read alice's private data")
	} else if !IsAccessError(err) {
		t.Fatalf("want AccessError, got %v", err)
	}
}

func TestPublicAndSharedAccess(t *testing.T) {
	c := newTestCatalog(t)
	if err := c.SetVisibility("alice", "water", Public); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Query("bob", "SELECT * FROM [alice.water]"); err != nil {
		t.Fatalf("public dataset should be readable: %v", err)
	}
	if err := c.SetVisibility("alice", "water", Private); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Query("bob", "SELECT * FROM [alice.water]"); err == nil {
		t.Fatal("private again")
	}
	if err := c.ShareWith("alice", "water", "bob"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Query("bob", "SELECT * FROM [alice.water]"); err != nil {
		t.Fatalf("shared dataset should be readable: %v", err)
	}
	if _, _, err := c.Query("carol", "SELECT * FROM [alice.water]"); err == nil {
		t.Fatal("carol was not granted access")
	}
}

// TestOwnershipChainScenario reproduces the paper's A→B→C example (§3.2):
// alice owns T, shares view V1(T) with bob; bob derives V2(V1) and shares
// it with carol; carol's query fails because the ownership chain
// V2→V1→T is broken (it involves two different owners).
func TestOwnershipChainScenario(t *testing.T) {
	c := newTestCatalog(t)
	// Alice derives V1 over her private table and shares it with bob only.
	if _, err := c.SaveView("alice", "v1", "SELECT station, val FROM water WHERE val > 0", Meta{}); err != nil {
		t.Fatal(err)
	}
	if err := c.ShareWith("alice", "v1", "bob"); err != nil {
		t.Fatal(err)
	}
	// Bob can query V1 even though the underlying table was never shared:
	// the chain alice→alice is unbroken.
	if _, _, err := c.Query("bob", "SELECT * FROM [alice.v1]"); err != nil {
		t.Fatalf("bob should read v1 through the unbroken chain: %v", err)
	}
	// Bob derives V2 over V1 and shares it with carol.
	if _, err := c.SaveView("bob", "v2", "SELECT station FROM [alice.v1]", Meta{}); err != nil {
		t.Fatal(err)
	}
	if err := c.ShareWith("bob", "v2", "carol"); err != nil {
		t.Fatal(err)
	}
	// Carol hits the broken chain: v2 (bob) references v1 (alice), and v1
	// does not grant carol.
	_, _, err := c.Query("carol", "SELECT * FROM [bob.v2]")
	if err == nil {
		t.Fatal("carol's query should fail on the broken ownership chain")
	}
	if !IsAccessError(err) {
		t.Fatalf("want AccessError, got: %v", err)
	}
	if !strings.Contains(err.Error(), "ownership chain broken") {
		t.Errorf("error should explain the broken chain: %v", err)
	}
	// Once alice also shares v1 with carol, the query works.
	if err := c.ShareWith("alice", "v1", "carol"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Query("carol", "SELECT * FROM [bob.v2]"); err != nil {
		t.Fatalf("carol should now succeed: %v", err)
	}
}

func TestAppendRewritesViewAsUnion(t *testing.T) {
	c := newTestCatalog(t)
	batch2 := seedTable(t, "water2")
	if _, err := c.CreateDatasetFromTable("alice", "water_mar", batch2, Meta{}); err != nil {
		t.Fatal(err)
	}
	if err := c.Append("alice", "water", "water_mar"); err != nil {
		t.Fatal(err)
	}
	ds, err := c.Dataset("alice", "water")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ds.SQL, "UNION ALL") {
		t.Errorf("append should rewrite as UNION ALL: %s", ds.SQL)
	}
	res, _, err := c.Query("alice", "SELECT * FROM water")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Errorf("rows after append = %d", len(res.Rows))
	}
}

func TestAppendSchemaMismatch(t *testing.T) {
	c := newTestCatalog(t)
	bad := storage.NewTable("bad", storage.Schema{{Name: "only", Type: sqltypes.Int}})
	if err := bad.Insert([]storage.Row{{sqltypes.NewInt(1)}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateDatasetFromTable("alice", "bad", bad, Meta{}); err != nil {
		t.Fatal(err)
	}
	if err := c.Append("alice", "water", "bad"); err == nil {
		t.Error("append with mismatched schema should fail")
	}
}

func TestMaterializeSnapshot(t *testing.T) {
	c := newTestCatalog(t)
	if _, err := c.SaveView("alice", "doubled", "SELECT station, val * 2 AS v FROM water", Meta{}); err != nil {
		t.Fatal(err)
	}
	snap, err := c.Materialize("alice", "doubled", "doubled_snap")
	if err != nil {
		t.Fatal(err)
	}
	if !snap.IsWrapper {
		t.Error("snapshot should be a physical dataset")
	}
	// Append more data to water; the snapshot must not change.
	more := seedTable(t, "more")
	if _, err := c.CreateDatasetFromTable("alice", "more", more, Meta{}); err != nil {
		t.Fatal(err)
	}
	if err := c.Append("alice", "water", "more"); err != nil {
		t.Fatal(err)
	}
	live, _, err := c.Query("alice", "SELECT * FROM doubled")
	if err != nil {
		t.Fatal(err)
	}
	frozen, _, err := c.Query("alice", "SELECT * FROM doubled_snap")
	if err != nil {
		t.Fatal(err)
	}
	if len(live.Rows) != 6 || len(frozen.Rows) != 3 {
		t.Errorf("live=%d frozen=%d", len(live.Rows), len(frozen.Rows))
	}
}

func TestDeleteHidesDataset(t *testing.T) {
	c := newTestCatalog(t)
	if err := c.Delete("alice", "water"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Query("alice", "SELECT * FROM water"); err == nil {
		t.Error("deleted dataset should not resolve")
	}
	if got := len(c.Datasets(false)); got != 0 {
		t.Errorf("live datasets = %d", got)
	}
	if got := len(c.Datasets(true)); got != 1 {
		t.Errorf("all datasets = %d", got)
	}
}

func TestFailedQueriesAreLogged(t *testing.T) {
	c := newTestCatalog(t)
	_, entry, err := c.Query("alice", "SELECT missing_col FROM water")
	if err == nil {
		t.Fatal("expected error")
	}
	if entry == nil || entry.Err == "" {
		t.Fatal("failed query should be logged with its error")
	}
	if c.LogSize() != 1 {
		t.Errorf("log size = %d", c.LogSize())
	}
}

func TestOnlyOwnerCanManage(t *testing.T) {
	c := newTestCatalog(t)
	if err := c.SetVisibility("bob", "alice.water", Public); err == nil {
		t.Error("bob cannot publish alice's dataset")
	}
	if err := c.ShareWith("bob", "alice.water", "carol"); err == nil {
		t.Error("bob cannot share alice's dataset")
	}
	if err := c.Delete("bob", "alice.water"); err == nil {
		t.Error("bob cannot delete alice's dataset")
	}
	if err := c.UpdateMeta("bob", "alice.water", Meta{}); err == nil {
		t.Error("bob cannot edit alice's metadata")
	}
}

func TestDuplicateUserAndDataset(t *testing.T) {
	c := newTestCatalog(t)
	if _, err := c.CreateUser("alice", "x"); err == nil {
		t.Error("duplicate user should fail")
	}
	if _, err := c.CreateDatasetFromTable("alice", "water", seedTable(t, "w"), Meta{}); err == nil {
		t.Error("duplicate dataset should fail")
	}
	if _, err := c.SaveView("alice", "water", "SELECT 1 AS x", Meta{}); err == nil {
		t.Error("view over existing name should fail")
	}
}

func TestQueryCannotTouchBaseTables(t *testing.T) {
	c := newTestCatalog(t)
	if _, _, err := c.Query("alice", "SELECT * FROM [~base:alice.water]"); err == nil {
		t.Error("base tables must be internal")
	}
}

func TestShortNameResolution(t *testing.T) {
	c := newTestCatalog(t)
	// bob refers to alice's public dataset by short name: unique match.
	if err := c.SetVisibility("alice", "water", Public); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Query("bob", "SELECT * FROM water"); err != nil {
		t.Fatalf("unique short name should resolve: %v", err)
	}
	// A second dataset of the same short name makes it ambiguous.
	if _, err := c.CreateDatasetFromTable("bob", "water", seedTable(t, "bw"), Meta{}); err != nil {
		t.Fatal(err)
	}
	// bob's own dataset now wins (user context).
	res, _, err := c.Query("bob", "SELECT * FROM water")
	if err != nil {
		t.Fatalf("own dataset should win: %v", err)
	}
	if len(res.Rows) != 3 {
		t.Errorf("rows = %d", len(res.Rows))
	}
	// carol sees two candidates → ambiguous.
	if err := c.SetVisibility("bob", "water", Public); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Query("carol", "SELECT * FROM water"); err == nil {
		t.Error("ambiguous short name should error")
	}
}

func TestExplainDoesNotLog(t *testing.T) {
	c := newTestCatalog(t)
	qp, err := c.Explain("alice", "SELECT * FROM water WHERE val > 1")
	if err != nil {
		t.Fatal(err)
	}
	if qp.Root == nil {
		t.Fatal("no plan")
	}
	if c.LogSize() != 0 {
		t.Error("explain must not log")
	}
}

func TestLogTimesUseCatalogClock(t *testing.T) {
	c := newTestCatalog(t)
	_, e1, _ := c.Query("alice", "SELECT * FROM water")
	_, e2, _ := c.Query("alice", "SELECT * FROM water")
	if !e1.Time.Before(e2.Time) {
		t.Errorf("log times not monotonic: %v %v", e1.Time, e2.Time)
	}
	if e1.Time.Year() != 2012 {
		t.Errorf("clock not injected: %v", e1.Time)
	}
}
