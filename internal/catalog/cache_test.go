package catalog

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sqlshare/internal/engine"
	"sqlshare/internal/history"
	"sqlshare/internal/qcache"
	"sqlshare/internal/sqltypes"
	"sqlshare/internal/storage"
)

// resultString flattens a result for byte-identity comparison.
func resultString(res *engine.Result) string {
	var b strings.Builder
	b.WriteString(strings.Join(res.ColumnNames(), "\x1f"))
	b.WriteByte('\n')
	for _, row := range res.Rows {
		for i, v := range row {
			if i > 0 {
				b.WriteByte('\x1f')
			}
			b.WriteString(v.Key())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func TestVersionCountersBumpOnContentMutations(t *testing.T) {
	c := newTestCatalog(t)
	v := func(full string) uint64 { return c.DatasetVersion(full) }

	if got := v("alice.water"); got != 1 {
		t.Fatalf("version after create = %d, want 1", got)
	}
	if _, err := c.CreateDatasetFromTable("alice", "water2", seedTable(t, "water2"), Meta{}); err != nil {
		t.Fatal(err)
	}
	if err := c.Append("alice", "water", "water2"); err != nil {
		t.Fatal(err)
	}
	if got := v("alice.water"); got != 2 {
		t.Fatalf("version after append = %d, want 2", got)
	}

	// Access-only mutations must NOT bump: they change who may read, not
	// what is read, and every query re-checks access before the cache.
	if err := c.SetVisibility("alice", "water", Public); err != nil {
		t.Fatal(err)
	}
	if err := c.ShareWith("alice", "water", "bob"); err != nil {
		t.Fatal(err)
	}
	if err := c.UpdateMeta("alice", "water", Meta{Description: "x"}); err != nil {
		t.Fatal(err)
	}
	if got := v("alice.water"); got != 2 {
		t.Fatalf("version after access/meta ops = %d, want 2 (no bump)", got)
	}

	if err := c.MaterializeInPlace("alice", "water"); err != nil {
		t.Fatal(err)
	}
	if got := v("alice.water"); got != 3 {
		t.Fatalf("version after materialize-in-place = %d, want 3", got)
	}
	if err := c.Delete("alice", "water2"); err != nil {
		t.Fatal(err)
	}
	if got := v("alice.water2"); got != 2 {
		t.Fatalf("version after delete = %d, want 2", got)
	}
}

func TestQueryCacheHitMissAndFencing(t *testing.T) {
	c := newTestCatalog(t)
	qc := qcache.New(1<<20, 0)
	c.SetQueryCache(qc)
	const sql = "SELECT station, val FROM water WHERE val > 1 ORDER BY val"

	res1, e1, err := c.Query("alice", sql)
	if err != nil {
		t.Fatal(err)
	}
	if e1.Cache != CacheMiss {
		t.Fatalf("cold run cache = %q, want miss", e1.Cache)
	}
	res2, e2, err := c.Query("alice", sql)
	if err != nil {
		t.Fatal(err)
	}
	if e2.Cache != CacheHit {
		t.Fatalf("warm run cache = %q, want hit", e2.Cache)
	}
	if resultString(res1) != resultString(res2) {
		t.Fatalf("cached result differs:\n%s\nvs\n%s", resultString(res1), resultString(res2))
	}
	if e2.Plan == nil || e2.Meta == nil || e2.Digest == "" {
		t.Error("cache hit should carry plan artifacts on the log entry")
	}
	if e1.ResultBytes == 0 || e2.ResultBytes != e1.ResultBytes {
		t.Errorf("hit reports %d result bytes, the fill run measured %d", e2.ResultBytes, e1.ResultBytes)
	}
	if e2.Plan.Trace != nil {
		t.Error("cached plan must not carry the fill run's trace")
	}

	// NoCache bypasses without touching the cache.
	_, e3, err := c.QueryWithOptions("alice", sql, QueryOptions{NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if e3.Cache != CacheBypass {
		t.Fatalf("NoCache run cache = %q, want bypass", e3.Cache)
	}

	// A content mutation fences the old entry out: next run must miss and
	// see the new rows.
	if _, err := c.CreateDatasetFromTable("alice", "more", seedTable(t, "more"), Meta{}); err != nil {
		t.Fatal(err)
	}
	if err := c.Append("alice", "water", "more"); err != nil {
		t.Fatal(err)
	}
	res4, e4, err := c.Query("alice", sql)
	if err != nil {
		t.Fatal(err)
	}
	if e4.Cache != CacheMiss {
		t.Fatalf("post-mutation run cache = %q, want miss", e4.Cache)
	}
	if len(res4.Rows) <= len(res1.Rows) {
		t.Fatalf("post-append rows = %d, want more than %d", len(res4.Rows), len(res1.Rows))
	}

	st := qc.Stats()
	if st.ResultHits != 1 || st.ResultMisses != 2 {
		t.Errorf("stats = %+v, want 1 hit / 2 misses", st)
	}
}

func TestQueryCachePerUserAndMaxRowsKeys(t *testing.T) {
	c := newTestCatalog(t)
	c.SetQueryCache(qcache.New(1<<20, 0))
	if err := c.SetVisibility("alice", "water", Public); err != nil {
		t.Fatal(err)
	}
	const sql = "SELECT station FROM [alice.water]"
	if _, e, err := c.Query("alice", sql); err != nil || e.Cache != CacheMiss {
		t.Fatalf("alice cold: %v %v", e.Cache, err)
	}
	// Same SQL, different user: separate key (name resolution and row
	// visibility are per-user).
	if _, e, err := c.Query("bob", sql); err != nil || e.Cache != CacheMiss {
		t.Fatalf("bob cold: %v %v", e.Cache, err)
	}
	if _, e, err := c.Query("bob", sql); err != nil || e.Cache != CacheHit {
		t.Fatalf("bob warm: %v %v", e.Cache, err)
	}
	// Same SQL and user, different row limit: separate key (a limit abort
	// is an observable outcome).
	if _, e, err := c.QueryWithOptions("alice", sql, QueryOptions{MaxRows: 100}); err != nil || e.Cache != CacheMiss {
		t.Fatalf("alice maxrows cold: %v %v", e.Cache, err)
	}
}

func TestQueryCacheViewClosureFencing(t *testing.T) {
	c := newTestCatalog(t)
	c.SetQueryCache(qcache.New(1<<20, 0))
	if _, err := c.SaveView("alice", "clean", "SELECT station, val FROM water WHERE val > 0", Meta{}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SaveView("alice", "tops", "SELECT station FROM clean WHERE val > 1", Meta{}); err != nil {
		t.Fatal(err)
	}
	const sql = "SELECT COUNT(*) AS n FROM tops"
	res1, e1, err := c.Query("alice", sql)
	if err != nil || e1.Cache != CacheMiss {
		t.Fatalf("cold: %v %v", e1, err)
	}
	if _, e, err := c.Query("alice", sql); err != nil || e.Cache != CacheHit {
		t.Fatalf("warm: %v %v", e.Cache, err)
	}
	// Mutate the ROOT of the chain (water), two hops below the queried
	// view: §3.4 ownership-chain semantics say the cached result is only
	// valid while ALL upstream datasets are unchanged.
	if _, err := c.CreateDatasetFromTable("alice", "extra", seedTable(t, "extra"), Meta{}); err != nil {
		t.Fatal(err)
	}
	if err := c.Append("alice", "water", "extra"); err != nil {
		t.Fatal(err)
	}
	res2, e2, err := c.Query("alice", sql)
	if err != nil {
		t.Fatal(err)
	}
	if e2.Cache != CacheMiss {
		t.Fatalf("post-upstream-mutation cache = %q, want miss", e2.Cache)
	}
	if resultString(res1) == resultString(res2) {
		t.Fatal("count over doubled base should change")
	}
}

func TestQueryCacheNondeterministicNeverStored(t *testing.T) {
	c := newTestCatalog(t)
	qc := qcache.New(1<<20, 0)
	c.SetQueryCache(qc)
	const sql = "SELECT station, GETDATE() AS now FROM water"
	for i := 0; i < 3; i++ {
		_, e, err := c.Query("alice", sql)
		if err != nil {
			t.Fatal(err)
		}
		if e.Cache != CacheMiss {
			t.Fatalf("run %d cache = %q: GETDATE results must never be served from cache", i, e.Cache)
		}
	}
	if st := qc.Stats(); st.ResultHits != 0 {
		t.Errorf("GETDATE results were served from cache: %+v", st)
	}
}

// TestQueryCacheSubqueryClockAdvances pins the engine.Plan contract at the
// catalog surface: a plan carries the once-per-execution results of its
// uncorrelated subplans and split EXISTS probes, so every run compiles its
// own — a repeated statement must never replay an earlier run's subquery.
func TestQueryCacheSubqueryClockAdvances(t *testing.T) {
	c := newTestCatalog(t)
	c.SetQueryCache(qcache.New(1<<20, 0))
	hours := storage.NewTable("hours", storage.Schema{{Name: "h", Type: sqltypes.Int}})
	for h := int64(1); h <= 23; h++ {
		if err := hours.Insert([]storage.Row{{sqltypes.NewInt(h)}}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.CreateDatasetFromTable("alice", "hours", hours, Meta{}); err != nil {
		t.Fatal(err)
	}
	// One hour per clock reading, a few readings per query: every run sees a
	// later hour of the same day than the one before.
	base := time.Date(2012, 1, 1, 0, 0, 0, 0, time.UTC)
	var tick atomic.Int64
	c.SetClock(func() time.Time {
		return base.Add(time.Duration(tick.Add(1)) * time.Hour)
	})
	for _, tc := range []struct{ name, sql string }{
		{"scalar subquery", "SELECT TOP 1 station, (SELECT GETDATE()) AS now FROM water"},
		// i.h = o.h is split off as the per-row probe; the GETDATE conjunct
		// stays in the inner plan, which runs once per execution.
		{"split EXISTS", "SELECT COUNT(*) AS n FROM hours o WHERE EXISTS " +
			"(SELECT 1 FROM hours i WHERE i.h = o.h AND i.h <= DATEPART('hour', GETDATE()))"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			seen := map[string]bool{}
			for i := 0; i < 3; i++ {
				res, e, err := c.Query("alice", tc.sql)
				if err != nil {
					t.Fatalf("run %d: %v", i, err)
				}
				if e.Cache != CacheMiss {
					t.Fatalf("run %d cache = %q, want miss", i, e.Cache)
				}
				seen[resultString(res)] = true
			}
			if len(seen) != 3 {
				t.Errorf("3 runs under an advancing clock gave %d distinct results", len(seen))
			}
		})
	}
}

func TestQueryCacheExplainBypasses(t *testing.T) {
	c := newTestCatalog(t)
	c.SetQueryCache(qcache.New(1<<20, 0))
	// Prime the result cache with the inner query.
	if _, _, err := c.Query("alice", "SELECT station FROM water"); err != nil {
		t.Fatal(err)
	}
	res, e, err := c.Query("alice", "EXPLAIN ANALYZE SELECT station FROM water")
	if err != nil {
		t.Fatal(err)
	}
	if e.Cache != CacheBypass {
		t.Fatalf("EXPLAIN ANALYZE cache = %q, want bypass", e.Cache)
	}
	last := res.Rows[len(res.Rows)-1]
	if last[0].String() != "Result Cache" || last[1].String() != "cache: bypass" {
		t.Errorf("EXPLAIN ANALYZE footer = %v", last)
	}
}

func TestQueryCacheAccessCheckedBeforeProbe(t *testing.T) {
	c := newTestCatalog(t)
	c.SetQueryCache(qcache.New(1<<20, 0))
	if err := c.SetVisibility("alice", "water", Public); err != nil {
		t.Fatal(err)
	}
	const sql = "SELECT station FROM [alice.water]"
	// Bob fills the cache while the dataset is public.
	if _, e, err := c.Query("bob", sql); err != nil || e.Cache != CacheMiss {
		t.Fatalf("fill: %v %v", e.Cache, err)
	}
	if _, e, err := c.Query("bob", sql); err != nil || e.Cache != CacheHit {
		t.Fatalf("warm: %v %v", e.Cache, err)
	}
	// Revoking visibility must block bob even though a fresh entry exists:
	// permissions are checked live, before the cache is probed. Visibility
	// changes deliberately do not bump versions, so this is the path that
	// protects revocation.
	if err := c.SetVisibility("alice", "water", Private); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Query("bob", sql); !IsAccessError(err) {
		t.Fatalf("revoked access: err = %v, want AccessError", err)
	}
}

// TestPreviewVersionsAgreeWithResultCache: the preview and the result cache
// are fenced by the same version vector, so after an upstream append the next
// preview read is the owner's uncached query, not the memoized rows.
func TestPreviewVersionsAgreeWithResultCache(t *testing.T) {
	c := newTestCatalog(t)
	c.SetQueryCache(qcache.New(1<<20, 0))
	if _, err := c.SaveView("alice", "clean", "SELECT station, val FROM water WHERE val > 1", Meta{}); err != nil {
		t.Fatal(err)
	}
	pv, err := c.Preview("alice", "clean")
	if err != nil {
		t.Fatal(err)
	}
	before := len(pv.Rows)
	if _, err := c.CreateDatasetFromTable("alice", "more", seedTable(t, "more"), Meta{}); err != nil {
		t.Fatal(err)
	}
	if err := c.Append("alice", "water", "more"); err != nil {
		t.Fatal(err)
	}
	if pv, err = c.Preview("alice", "clean"); err != nil {
		t.Fatal(err)
	}
	if len(pv.Rows) <= before {
		t.Fatalf("dependent preview rows = %d, want more than %d after upstream append", len(pv.Rows), before)
	}
	if stamp := c.previews["alice.clean"].vv; !slices.Contains(stamp, qcache.DatasetVersion{Name: "alice.water", Version: c.DatasetVersion("alice.water")}) {
		t.Fatalf("memo stamp %v disagrees with live alice.water version %d", stamp, c.DatasetVersion("alice.water"))
	}
	res, _, err := c.QueryWithOptions("alice", "SELECT * FROM clean", QueryOptions{NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(pv.Cols, pv.Rows), fmt.Sprint(res.ColumnNames(), res.TextRows(len(res.Rows))); got != want {
		t.Fatalf("preview %s, uncached query %s", got, want)
	}
}

func TestVersionsSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	c, d := openDurable(t, dir, nil)
	if _, err := c.CreateUser("alice", "alice@uw.edu"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateDatasetFromTable("alice", "water", seedTable(t, "water"), Meta{}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateDatasetFromTable("alice", "water2", seedTable(t, "water2"), Meta{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := c.Append("alice", "water", "water2"); err != nil {
			t.Fatal(err)
		}
	}
	want := c.DatasetVersion("alice.water")
	if want != 4 {
		t.Fatalf("live version = %d, want 4", want)
	}
	fp := c.Fingerprint()
	// Checkpoint so half the state comes from the snapshot and the rest
	// from log replay on reopen.
	if _, err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := c.Append("alice", "water", "water2"); err != nil {
		t.Fatal(err)
	}
	want = c.DatasetVersion("alice.water")
	fp = c.Fingerprint()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	c2, d2 := openDurable(t, dir, nil)
	defer d2.Close()
	if got := c2.DatasetVersion("alice.water"); got != want {
		t.Fatalf("recovered version = %d, want %d", got, want)
	}
	if got := c2.Fingerprint(); got != fp {
		t.Fatalf("recovered fingerprint %s != live %s", got, fp)
	}
}

func TestVersionContinuesAcrossDeleteRecreate(t *testing.T) {
	c := newTestCatalog(t)
	v1 := c.DatasetVersion("alice.water")
	if err := c.Delete("alice", "water"); err != nil {
		t.Fatal(err)
	}
	v2 := c.DatasetVersion("alice.water")
	if v2 <= v1 {
		t.Fatalf("delete should bump: %d -> %d", v1, v2)
	}
	if _, err := c.CreateDatasetFromTable("alice", "water", seedTable(t, "water"), Meta{}); err != nil {
		t.Fatal(err)
	}
	if v3 := c.DatasetVersion("alice.water"); v3 <= v2 {
		t.Fatalf("re-create under the same name must continue the counter (%d -> %d), or old-generation cache keys could come back alive", v2, v3)
	}
}

func TestQueryCacheBypassWhenUnresolvable(t *testing.T) {
	c := newTestCatalog(t)
	c.SetQueryCache(qcache.New(1<<20, 0))
	_, e, err := c.Query("alice", "SELECT * FROM nothere")
	if err == nil {
		t.Fatal("query over a missing dataset should fail")
	}
	if e.Cache == CacheHit || e.Cache == CacheMiss {
		t.Fatalf("unresolvable query cache = %q, want bypass", e.Cache)
	}
}

func TestHistoryFlagsCacheHits(t *testing.T) {
	c := newTestCatalog(t)
	c.SetQueryCache(qcache.New(1<<20, 0))
	h, err := history.New(history.Config{})
	if err != nil {
		t.Fatal(err)
	}
	c.SetHistory(h)
	const sql = "SELECT station, COUNT(*) AS n FROM water GROUP BY station"
	if _, _, err := c.Query("alice", sql); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Query("alice", sql); err != nil {
		t.Fatal(err)
	}
	sum := h.Analyzer().Summarize()
	if sum.Queries != 2 || sum.CacheHits != 1 {
		t.Fatalf("summary queries=%d cacheHits=%d, want 2/1", sum.Queries, sum.CacheHits)
	}
	// Operator stats fold only the executed run — a hit must not
	// double-count the fill run's operators.
	var aggExecs int
	for _, op := range h.Analyzer().OperatorMix() {
		if strings.Contains(strings.ToLower(op.Operator), "aggregate") {
			aggExecs += op.Count
		}
	}
	if aggExecs != 1 {
		t.Errorf("aggregate operator folded %d times across entries, want 1", aggExecs)
	}
	// Nor does the hit's JSONL line carry them, so a replay folds the same.
	hit := h.Recent(1)[0]
	line, err := json.Marshal(hit)
	if err != nil {
		t.Fatal(err)
	}
	if hit.Cache != CacheHit || !strings.Contains(string(line), `"cacheHit":true`) || strings.Contains(string(line), `"operators"`) {
		t.Errorf("cache-hit line = %s", line)
	}
}

// sanity check: the version closure resolves shadowed names with the
// querying user, exactly like execution does.
func TestVersionClosureUsesQueryingUserResolution(t *testing.T) {
	c := newTestCatalog(t)
	c.SetQueryCache(qcache.New(1<<20, 0))
	if err := c.SetVisibility("alice", "water", Public); err != nil {
		t.Fatal(err)
	}
	// Bob creates his own "water"; the bare name now resolves to bob.water
	// for bob and alice.water for alice.
	if _, err := c.CreateDatasetFromTable("bob", "water", seedTable(t, "bobwater"), Meta{}); err != nil {
		t.Fatal(err)
	}
	const sql = "SELECT COUNT(*) AS n FROM water"
	if _, _, err := c.Query("alice", sql); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Query("bob", sql); err != nil {
		t.Fatal(err)
	}
	// Mutating bob.water must fence bob's entry but not alice's.
	if _, err := c.CreateDatasetFromTable("bob", "extra", seedTable(t, "extra"), Meta{}); err != nil {
		t.Fatal(err)
	}
	if err := c.Append("bob", "water", "extra"); err != nil {
		t.Fatal(err)
	}
	if _, e, err := c.Query("alice", sql); err != nil || e.Cache != CacheHit {
		t.Fatalf("alice post-bob-mutation: cache = %v, err = %v (want hit: her closure is untouched)", e.Cache, err)
	}
	if _, e, err := c.Query("bob", sql); err != nil || e.Cache != CacheMiss {
		t.Fatalf("bob post-mutation: cache = %v, err = %v (want miss)", e.Cache, err)
	}
}
