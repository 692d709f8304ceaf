package catalog

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"sqlshare/internal/engine"
	"sqlshare/internal/ingest"
	"sqlshare/internal/plan"
	"sqlshare/internal/sqltypes"
	"sqlshare/internal/storage"
)

// The view-merge rule (engine.mergeIntoScan): a saved view whose body
// selects bare columns of one table, wrapper or merged view under a WHERE
// becomes the scan it reads. Every case here is checked against a reference
// catalog where each view body B is saved as
// `SELECT TOP 1000000 * FROM (B) AS v`, which never merges: rows must be
// bit-identical (FLOAT by its bits) and errors must have the same text, at
// DOP 1/2/8 with the vectorized path on and off.

// refBody is the reference form of a view body: the same rows, and a TOP
// that keeps the view from merging.
func refBody(sql string) string { return "SELECT TOP 1000000 * FROM (" + sql + ") AS v" }

// mergeTable builds n rows of (a INT, b FLOAT, c INT, s STRING): a is the
// clustered key, b holds NULLs, NaN and -0, c NULLs and negatives, and s a
// few strings that do not cast to INT.
func mergeTable(name string, n, salt int) *storage.Table {
	tbl := storage.NewTable(name, storage.Schema{
		{Name: "a", Type: sqltypes.Int},
		{Name: "b", Type: sqltypes.Float},
		{Name: "c", Type: sqltypes.Int},
		{Name: "s", Type: sqltypes.String},
	})
	rows := make([]storage.Row, n)
	for i := range rows {
		b := sqltypes.NewFloat(float64((i*37+salt)%101) / 8)
		switch i % 23 {
		case 3:
			b = sqltypes.NullValue()
		case 7:
			b = sqltypes.NewFloat(math.NaN())
		case 11:
			b = sqltypes.NewFloat(math.Copysign(0, -1))
		}
		c := sqltypes.NewInt(int64((i*13+salt)%61 - 5))
		if i%17 == 4 {
			c = sqltypes.NullValue()
		}
		s := sqltypes.NewString(fmt.Sprint(i % 9))
		if i == n-40 {
			s = sqltypes.NewString("x")
		}
		rows[i] = storage.Row{sqltypes.NewInt(int64(i)), b, c, s}
	}
	if err := tbl.Insert(rows); err != nil {
		panic(err)
	}
	return tbl
}

type mergeView struct{ owner, name, sql string }

type mergeQuery struct{ user, sql string }

// mergeCatalog builds alice.t (public) and bob.t (same name, other rows),
// then saves the views, all public — as written, or in their reference
// form.
func mergeCatalog(t *testing.T, views []mergeView, ref bool) *Catalog {
	t.Helper()
	c := newTestCatalog(t)
	for _, d := range []struct {
		owner, name string
		tbl         *storage.Table
	}{
		{"alice", "t", mergeTable("t", 600, 0)},
		{"bob", "t", mergeTable("t", 300, 5)},
	} {
		if _, err := c.CreateDatasetFromTable(d.owner, d.name, d.tbl, Meta{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.SetVisibility("alice", "t", Public); err != nil {
		t.Fatal(err)
	}
	for _, v := range views {
		sql := v.sql
		if ref {
			sql = refBody(sql)
		}
		if _, err := c.SaveView(v.owner, v.name, sql, Meta{}); err != nil {
			t.Fatalf("SaveView(%s.%s): %v", v.owner, v.name, err)
		}
		if err := c.SetVisibility(v.owner, v.name, Public); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// renderOutcome is a query's error text, or its column names and rows with
// every FLOAT rendered as its IEEE bits.
func renderOutcome(res *engine.Result, _ *LogEntry, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	var sb strings.Builder
	sb.WriteString(strings.Join(res.ColumnNames(), ","))
	sb.WriteByte('\n')
	for _, row := range res.Rows {
		for _, v := range row {
			switch {
			case v.IsNull():
				sb.WriteString("NULL")
			case v.Type() == sqltypes.Float:
				fmt.Fprintf(&sb, "f%016x", math.Float64bits(v.Float()))
			default:
				fmt.Fprintf(&sb, "%s:%s", v.Type(), v.String())
			}
			sb.WriteByte('|')
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// mergeTuning makes the small tables span many segments and morsels, so
// the parallel and vectorized paths are real.
func mergeTuning(t *testing.T) {
	prevSeg := storage.SetSegmentRows(64)
	prevMorsel, prevMin := engine.SetParallelTuning(8, 16)
	prevProcs := runtime.GOMAXPROCS(8)
	prevVec := engine.SetVectorizedEnabled(true)
	t.Cleanup(func() {
		storage.SetSegmentRows(prevSeg)
		engine.SetParallelTuning(prevMorsel, prevMin)
		runtime.GOMAXPROCS(prevProcs)
		engine.SetVectorizedEnabled(prevVec)
	})
}

// checkAgainstReference runs every query on both catalogs: the reference at
// DOP 1 on the row path is the truth every merged run must equal.
func checkAgainstReference(t *testing.T, merged, ref *Catalog, queries []mergeQuery) {
	t.Helper()
	for _, q := range queries {
		engine.SetVectorizedEnabled(false)
		want := renderOutcome(ref.QueryWithOptions(q.user, q.sql, QueryOptions{Parallelism: 1}))
		for _, vec := range []bool{false, true} {
			engine.SetVectorizedEnabled(vec)
			for _, dop := range []int{1, 2, 8} {
				got := renderOutcome(merged.QueryWithOptions(q.user, q.sql, QueryOptions{Parallelism: dop}))
				if got != want {
					t.Errorf("%s: %q (vectorized=%v, dop %d)\nmerged:\n%s\nreference:\n%s", q.user, q.sql, vec, dop, got, want)
				}
			}
		}
		engine.SetVectorizedEnabled(true)
	}
}

// planShape renders an EXPLAIN tree: operators, objects, Filters and the
// vectorized mark, indented by depth.
func planShape(t *testing.T, c *Catalog, user, sql string) string {
	t.Helper()
	qp, err := c.Explain(user, sql)
	if err != nil {
		t.Fatalf("Explain(%q): %v", sql, err)
	}
	var sb strings.Builder
	var walk func(n *plan.Node, depth int)
	walk = func(n *plan.Node, depth int) {
		fmt.Fprintf(&sb, "%s%s<%s>%v vec=%v\n", strings.Repeat("  ", depth), n.PhysicalOp, n.Object, n.Filters, n.Vectorized)
		for _, ch := range n.Children {
			walk(ch, depth+1)
		}
	}
	walk(qp.Root, 0)
	return sb.String()
}

var mergeViews = []mergeView{
	{"alice", "swap", "SELECT a AS b, b AS a, s FROM t WHERE c > 10"},
	{"alice", "twice", "SELECT a AS x, a AS y, s FROM t WHERE a > 5"},
	{"alice", "qual", "SELECT T.A AS Aa, t.b, [S] FROM t AS T WHERE T.c IS NOT NULL"},
	{"alice", "reord", "SELECT s, c, a FROM t WHERE b > 0"},
	{"alice", "v1", "SELECT a, b, c, s FROM t WHERE c >= 0"},
	{"alice", "v2", "SELECT a AS k, b AS val, s FROM v1 WHERE b > -1"},
	{"alice", "v3", "SELECT val, k FROM v2"},
	{"alice", "starv", "SELECT * FROM reord WHERE c < 40"},
	{"alice", "qstar", "SELECT q.* FROM swap AS q WHERE q.a < 10"},
	{"alice", "pub", "SELECT a, b FROM t WHERE a > 3"},
	{"bob", "bv", "SELECT b AS bb, a FROM [alice.pub] WHERE a < 300"},
	{"alice", "lv", "SELECT a, b, c FROM t WHERE c > 20"},
	{"alice", "ren", "SELECT a AS ka, b AS kb FROM t"},
	{"alice", "castv", "SELECT a, s FROM t WHERE CAST(s AS INT) > 3"},
	{"alice", "nm_sub", "SELECT a, b FROM t WHERE b > (SELECT AVG(b) FROM t WHERE b = b)"},
	{"alice", "nm_comp", "SELECT a, CAST(s AS INT) AS si FROM t"},
	{"alice", "nm_top", "SELECT TOP 50 a, b FROM t"},
	{"alice", "nm_dist", "SELECT DISTINCT c FROM t"},
	{"alice", "nm_group", "SELECT c, COUNT(*) AS n FROM t GROUP BY c"},
	{"alice", "nm_union", "SELECT a FROM t UNION SELECT c FROM t"},
	{"alice", "over_nm", "SELECT a, b FROM nm_top WHERE a > 2"},
}

func TestViewMergeMatchesReference(t *testing.T) {
	mergeTuning(t)
	merged := mergeCatalog(t, mergeViews, false)
	ref := mergeCatalog(t, mergeViews, true)
	checkAgainstReference(t, merged, ref, []mergeQuery{
		// Swapped aliases: b is the clustered column a, so b = 17 seeks.
		{"alice", "SELECT * FROM swap WHERE a > 0.5"},
		{"alice", "SELECT b, s FROM swap WHERE b = 17"},
		{"alice", "SELECT a, b FROM swap WHERE b BETWEEN 100 AND 140 ORDER BY a, b"},
		// One column under two names is not merged.
		{"alice", "SELECT * FROM twice WHERE x = 10"},
		{"alice", "SELECT y FROM twice WHERE x < 20"},
		// Qualified, case-folded and star references.
		{"alice", "SELECT v.* FROM qual AS v WHERE V.AA > 300"},
		{"alice", "SELECT * FROM qual"},
		{"alice", "SELECT QUAL.b, Qual.s FROM qual WHERE qual.aa < 30 AND QUAL.S = '4'"},
		{"alice", "SELECT * FROM reord WHERE a < 50"},
		{"alice", "SELECT * FROM starv"},
		{"alice", "SELECT * FROM qstar"},
		{"alice", "SELECT reord.*, r2.a FROM reord JOIN reord AS r2 ON reord.a = r2.a + 1"},
		// A chain, read by a seek, a range, a scalar and a grouped aggregate.
		{"alice", "SELECT * FROM v3 WHERE k = 42"},
		{"alice", "SELECT * FROM v3 WHERE k >= 100 AND k < 140"},
		{"alice", "SELECT COUNT(*), SUM(val), MIN(val), MAX(k) FROM v3 WHERE k > 100"},
		{"alice", "SELECT k, COUNT(*) AS n, AVG(val) AS m FROM v3 GROUP BY k ORDER BY k"},
		{"alice", "SELECT s, COUNT(*), SUM(val) FROM v3 GROUP BY s"},
		{"alice", "SELECT TOP 7 k, val FROM v3 WHERE val < 9 ORDER BY val DESC, k"},
		{"alice", "SELECT k, ROW_NUMBER() OVER (ORDER BY val, k) FROM v3 WHERE k < 60"},
		// Cross-owner: pub's t is alice's, though bob has a t of his own.
		{"bob", "SELECT * FROM bv WHERE bb > 0"},
		{"bob", "SELECT * FROM bv WHERE a = 120"},
		{"bob", "SELECT x.a, y.c FROM bv AS x JOIN t AS y ON x.a = y.a"},
		// The null-supplying side of an outer join keeps the outer WHERE.
		{"alice", "SELECT t.a, v.b FROM t LEFT JOIN lv AS v ON t.a = v.a WHERE v.b IS NULL"},
		{"alice", "SELECT t.a, v.c FROM lv AS v RIGHT JOIN t ON t.a = v.a WHERE t.a < 40"},
		// Self-joins of one view.
		{"alice", "SELECT x.a, y.b FROM lv AS x JOIN lv AS y ON x.a = y.a + 1"},
		{"alice", "SELECT x.ka, y.kb FROM ren AS x JOIN ren AS y ON x.ka = y.ka"},
		{"alice", "SELECT x.ka, y.kb FROM ren AS x, ren AS y WHERE x.ka = y.ka AND y.kb > 5"},
		// IN and correlated EXISTS over a merged view, through the semi-probe.
		{"alice", "SELECT a FROM t WHERE a IN (SELECT a FROM lv WHERE b > 0.5)"},
		{"alice", "SELECT a FROM t AS o WHERE EXISTS (SELECT 1 FROM lv AS i WHERE i.a = o.c)"},
		{"alice", "SELECT a FROM t AS o WHERE EXISTS (SELECT * FROM lv WHERE lv.b > o.b)"},
		{"alice", "SELECT a FROM t AS o WHERE NOT EXISTS (SELECT 1 FROM ren AS r WHERE r.ka = o.c AND r.kb < 3)"},
		{"alice", "SELECT a, (SELECT COUNT(*) FROM lv WHERE lv.c = o.c) FROM t AS o WHERE a < 30"},
		// A failing conjunct inside a merged view fails on the same row.
		{"alice", "SELECT * FROM castv"},
		{"alice", "SELECT a FROM castv WHERE a > 100"},
		// Non-mergeable bodies, and a mergeable view over one.
		{"alice", "SELECT * FROM nm_sub WHERE a < 100"},
		{"alice", "SELECT * FROM nm_comp WHERE a < 10"},
		{"alice", "SELECT * FROM nm_comp"},
		{"alice", "SELECT * FROM nm_top WHERE a > 3"},
		{"alice", "SELECT * FROM nm_dist WHERE c > 3"},
		{"alice", "SELECT * FROM nm_group WHERE n > 9"},
		{"alice", "SELECT * FROM nm_union WHERE a < 20"},
		{"alice", "SELECT * FROM over_nm WHERE b > 1"},
	})
}

// TestViewMergePushdownOrderEdge names the edge DESIGN S4 documents: the
// reader's conjuncts join the view's in one scan, so a seek the reader's
// WHERE makes skips rows on which the view's own WHERE would fail. The
// merged view then answers as its hand-flattened SQL does, where the
// reference (the view run as its own block) fails.
func TestViewMergePushdownOrderEdge(t *testing.T) {
	merged := mergeCatalog(t, mergeViews, false)
	ref := mergeCatalog(t, mergeViews, true)
	const q = "SELECT a FROM castv WHERE a < 5"
	got := renderOutcome(merged.Query("alice", q))
	flat := renderOutcome(merged.Query("alice", "SELECT a FROM t WHERE CAST(s AS INT) > 3 AND a < 5"))
	want := renderOutcome(ref.Query("alice", q))
	if got != flat || got != "a\nINT:4|\n" {
		t.Errorf("merged %q = %q, flattened = %q", q, got, flat)
	}
	if !strings.Contains(want, `cannot convert "x" to INT`) {
		t.Errorf("reference %q = %q, want the cast error", q, want)
	}
}

// TestViewMergePlans: a mergeable view leaves no Filter or Compute Scalar
// in its reader's plan; a non-mergeable one compiles exactly as its body
// written as a derived table.
func TestViewMergePlans(t *testing.T) {
	c := mergeCatalog(t, mergeViews, false)
	for _, sql := range []string{
		"SELECT * FROM v3 WHERE k > 100",
		"SELECT b FROM swap WHERE a > 3",
		"SELECT * FROM starv",
		"SELECT COUNT(*) FROM qual WHERE aa < 9",
	} {
		if shape := planShape(t, c, "alice", sql); strings.Contains(shape, "Filter") || strings.Contains(shape, "Compute Scalar") {
			t.Errorf("%q is not one scan:\n%s", sql, shape)
		}
	}
	if got := planShape(t, c, "alice", "SELECT * FROM v3 WHERE k = 42"); !strings.HasPrefix(got,
		"Clustered Index Seek<t>[(c >= 0) (b > -1) (k = 42)]") {
		t.Errorf("v3 seek plan:\n%s", got)
	}
	for _, v := range mergeViews {
		if !strings.HasPrefix(v.name, "nm_") && v.name != "twice" {
			continue
		}
		viaView := planShape(t, c, "alice", "SELECT * FROM "+v.name+" AS q")
		derived := planShape(t, c, "alice", "SELECT * FROM ("+v.sql+") AS q")
		if viaView != derived {
			t.Errorf("%s is planned differently from its body:\nview:\n%s\nderived:\n%s", v.name, viaView, derived)
		}
	}
}

// TestViewMergeFlattensBenchmarkChains: the analytic and point view chains
// plan exactly as their hand-flattened SQL.
func TestViewMergeFlattensBenchmarkChains(t *testing.T) {
	c := newTestCatalog(t)
	var facts, sites strings.Builder
	facts.WriteString("id,dim_id,ts,amount,region,tag\n")
	for i := 0; i < 400; i++ {
		fmt.Fprintf(&facts, "%d,%d,2015-01-01 00:%02d:00,%d.5,r%d,tag-%d\n", i, i%7-1, i%60, i%50-3, i%4, i)
	}
	sites.WriteString("k,name,lat,lon\n")
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&sites, "%d,site%d,%d,%d\n", i, i, i%200-100, i%90)
	}
	for name, csv := range map[string]string{"facts": facts.String(), "sites3": sites.String()} {
		rep, err := ingest.LoadBytes(name, []byte(csv), ingest.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.CreateDatasetFromTable("alice", name, rep.Table, Meta{}); err != nil {
			t.Fatal(err)
		}
	}
	for _, v := range []mergeView{
		{"alice", "facts_valid", "SELECT id, dim_id, ts, amount, region FROM [facts] WHERE amount >= 0"},
		{"alice", "facts_keyed", "SELECT id, dim_id, amount, region FROM [facts_valid] WHERE dim_id >= 0"},
		{"alice", "facts_report", "SELECT id, amount, region FROM [facts_keyed]"},
		{"alice", "sites3_valid", "SELECT k, name, lat, lon FROM [sites3] WHERE lat >= -90"},
		{"alice", "sites3_pub", "SELECT k, name, lat FROM [sites3_valid]"},
	} {
		if _, err := c.SaveView(v.owner, v.name, v.sql, Meta{}); err != nil {
			t.Fatal(err)
		}
	}
	for _, pair := range [][2]string{
		{"SELECT region, COUNT(*) AS n, AVG(amount) AS a FROM [facts_report] WHERE amount > 12.5 GROUP BY region ORDER BY region",
			"SELECT region, COUNT(*) AS n, AVG(amount) AS a FROM [facts] WHERE amount >= 0 AND dim_id >= 0 AND amount > 12.5 GROUP BY region ORDER BY region"},
		{"SELECT k, name, lat FROM [sites3_pub] WHERE k = 17",
			"SELECT k, name, lat FROM [sites3] WHERE lat >= -90 AND k = 17"},
		{"SELECT name, lat FROM [sites3_pub] WHERE k >= 20 AND k < 60",
			"SELECT name, lat FROM [sites3] WHERE lat >= -90 AND k >= 20 AND k < 60"},
	} {
		got, want := planShape(t, c, "alice", pair[0]), planShape(t, c, "alice", pair[1])
		if got != want {
			t.Errorf("%q\nplans as\n%s\nbut its flattened form plans as\n%s", pair[0], got, want)
		}
	}
	want := "Sort<>[] vec=false\n" +
		"  Hash Match<>[] vec=false\n" +
		"    Clustered Index Scan<facts>[(amount >= 0) (dim_id >= 0) (amount > 12.5)] vec=true\n"
	if got := planShape(t, c, "alice", "SELECT region, COUNT(*) AS n, AVG(amount) AS a FROM [facts_report] WHERE amount > 12.5 GROUP BY region ORDER BY region"); got != want {
		t.Errorf("viewchain plan:\n%s\nwant:\n%s", got, want)
	}
}

// TestViewMergeNestingDepthUnchanged: the 65th view of a chain of mergeable
// views fails to save with the same error as without merging.
func TestViewMergeNestingDepthUnchanged(t *testing.T) {
	saveChain := func(ref bool) error {
		c := mergeCatalog(t, nil, ref)
		prev := "t"
		for d := 0; ; d++ {
			name := fmt.Sprintf("d%d", d)
			sql := fmt.Sprintf("SELECT a, b FROM %s WHERE a >= %d", prev, d)
			if ref {
				sql = refBody(sql)
			}
			if _, err := c.SaveView("alice", name, sql, Meta{}); err != nil {
				if d != 65 {
					t.Errorf("chain broke at view %d (ref=%v): %v", d, ref, err)
				}
				return err
			}
			prev = name
		}
	}
	merged, ref := saveChain(false), saveChain(true)
	if merged.Error() != ref.Error() {
		t.Errorf("nesting error differs:\nmerged: %v\nreference: %v", merged, ref)
	}
	if !strings.Contains(merged.Error(), `view nesting exceeds 64 (cycle?) at "d0"`) {
		t.Errorf("nesting error = %v", merged)
	}
}
