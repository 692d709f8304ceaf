package catalog

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"sqlshare/internal/jobs"
	"sqlshare/internal/plan"
	"sqlshare/internal/qcache"
)

// TestPlanArtifactsIdenticalWithAndWithoutOpsRegistry replays the same
// statements without and with a job record, the live-operations view of a
// query: the record is shown the plan digest mid-query, and that must not
// change what the log entry records.
func TestPlanArtifactsIdenticalWithAndWithoutOpsRegistry(t *testing.T) {
	build := func() *Catalog {
		c := newTestCatalog(t)
		c.SetQueryCache(qcache.New(1 << 20))
		if _, err := c.CreateDatasetFromTable("alice", "sites", seedTable(t, "sites"), Meta{}); err != nil {
			t.Fatal(err)
		}
		for _, v := range [][2]string{
			{"clean", "SELECT station, val FROM water WHERE val IS NOT NULL"},
			{"rounded", "SELECT station, ROUND(val, 0) AS v FROM clean"},
		} {
			if _, err := c.SaveView("alice", v[0], v[1], Meta{}); err != nil {
				t.Fatal(err)
			}
		}
		return c
	}
	bare, live := build(), build()
	reg := &jobs.Table{}

	const seek = "SELECT station, val FROM water WHERE station = 's2'"
	for _, tc := range []struct {
		name, sql string
		wantErr   bool
		wantCache string
	}{
		{name: "seek", sql: seek, wantCache: CacheMiss},
		{name: "view chain", sql: "SELECT station, v FROM rounded WHERE v > 1", wantCache: CacheMiss},
		{name: "join+aggregate", sql: "SELECT w.station, COUNT(*) AS n, SUM(s.val) AS total FROM water w JOIN sites s ON w.station = s.station GROUP BY w.station", wantCache: CacheMiss},
		{name: "explain", sql: "EXPLAIN SELECT station FROM water WHERE val > 1", wantCache: CacheBypass},
		{name: "compile error", sql: "SELECT no_such_column FROM water", wantErr: true, wantCache: CacheMiss},
		{name: "cache hit", sql: seek, wantCache: CacheHit},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, be, berr := bare.Query("alice", tc.sql)
			_, le, lerr := live.QueryWithOptions("alice", tc.sql,
				QueryOptions{Job: reg.Create(context.Background(), "alice", tc.sql, 1, "")})
			if (berr != nil) != tc.wantErr || (lerr != nil) != tc.wantErr {
				t.Fatalf("errors: bare=%v live=%v, want error=%v", berr, lerr, tc.wantErr)
			}
			if be.Cache != tc.wantCache || le.Cache != tc.wantCache {
				t.Fatalf("cache: bare=%q live=%q, want %q", be.Cache, le.Cache, tc.wantCache)
			}
			if be.Err != le.Err {
				t.Errorf("Err: bare=%q live=%q", be.Err, le.Err)
			}
			if be.Digest != le.Digest {
				t.Errorf("Digest as logged: bare=%q live=%q", be.Digest, le.Digest)
			}
			if tc.wantErr {
				if be.Plan != nil || le.Plan != nil || be.Meta != nil || le.Meta != nil {
					t.Fatalf("a statement that did not compile logs no plan artifacts")
				}
				return
			}
			// Every run is traced; its wall times are the one field that
			// differs between two runs of the same plan.
			for _, e := range []*LogEntry{be, le} {
				e.Plan.Walk(func(n *plan.Node) {
					if n.Actual != nil {
						n.Actual.Wall = 0
					}
				})
			}
			bp, _ := json.Marshal(be.Plan)
			lp, _ := json.Marshal(le.Plan)
			if string(bp) != string(lp) {
				t.Errorf("Plan JSON differs:\nbare %s\nlive %s", bp, lp)
			}
			// Meta carries the template and the operator counts.
			if be.Meta.Template == "" || be.Meta.NumOperators == 0 || !reflect.DeepEqual(be.Meta, le.Meta) {
				t.Errorf("Meta differs:\nbare %+v\nlive %+v", be.Meta, le.Meta)
			}
			if be.Digest == "" || be.Digest != le.Digest {
				t.Errorf("Digest: bare=%q live=%q", be.Digest, le.Digest)
			}
		})
	}
}
