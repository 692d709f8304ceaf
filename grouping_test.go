package sqlshare

import (
	"fmt"
	"strings"
	"testing"

	"sqlshare/internal/plan"
	"sqlshare/internal/sqltypes"
	"sqlshare/internal/synth"
)

// TestUploadedNaNsDedupe: a FLOAT column with NaN cells, deduplicated the
// way §5.1's recombination queries do it, has one row per value. The
// DISTINCT and UNION sorts used to compare each row with its neighbour only,
// and a NaN, which ties with every number, kept equal values apart.
func TestUploadedNaNsDedupe(t *testing.T) {
	p := newPlatform(t)
	csv := "site,val\na,NaN\nb,1\nc,NaN\nd,2\ne,NaN\nf,1\ng,2\nh,NaN\n"
	if _, _, err := p.UploadString("alice", "readings", csv); err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{
		"SELECT DISTINCT val FROM readings",
		"SELECT val FROM readings UNION SELECT val FROM readings",
	} {
		res, err := p.Query("alice", sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if res.Cols[0].Type != sqltypes.Float || len(res.Rows) != 3 {
			t.Errorf("%s: %d %s rows %v, want 3 FLOAT rows (NaN, 1, 2)", sql, len(res.Rows), res.Cols[0].Type, res.Rows)
		}
	}
}

// sortUnderAggregate walks a plan and counts its aggregates, returning the
// first one that reads a Sort directly.
func sortUnderAggregate(n *plan.Node, aggs *int) *plan.Node {
	if n.LogicalOp == "Aggregate" {
		*aggs++
		for _, c := range n.Children {
			if c.PhysicalOp == "Sort" {
				return n
			}
		}
	}
	for _, c := range n.Children {
		if bad := sortUnderAggregate(c, aggs); bad != nil {
			return bad
		}
	}
	return nil
}

// TestNoSortUnderAggregate: no plan sorts its input for an aggregate's sake
// — not in the seed-1 synthetic corpus, not in the eight analytic benchmark
// shapes. An aggregate hashes, or streams over a scan grouped on its leading
// clustered column; an ORDER BY sorts the groups above it.
func TestNoSortUnderAggregate(t *testing.T) {
	p := newPlatform(t)
	var facts, dims strings.Builder
	facts.WriteString("id,dim_id,ts,amount,region,tag\n")
	for i := 0; i < 500; i++ {
		fmt.Fprintf(&facts, "%d,%d,2015-01-01 00:%02d:%02d,%d.25,r%d,tag-%d\n", i, i%50, i/60, i%60, i%97, i%5, i)
	}
	dims.WriteString("dim_id,category,weight\n")
	for i := 0; i < 50; i++ {
		fmt.Fprintf(&dims, "%d,cat%02d,%d.5\n", i, i%7, i%10)
	}
	for name, csv := range map[string]string{"facts": facts.String(), "dims": dims.String()} {
		if _, _, err := p.UploadString("alice", name, csv); err != nil {
			t.Fatal(err)
		}
	}
	for _, v := range [][2]string{
		{"facts_valid", "SELECT id, dim_id, ts, amount, region FROM [facts] WHERE amount >= 0"},
		{"facts_keyed", "SELECT id, dim_id, amount, region FROM [facts_valid] WHERE dim_id >= 0"},
		{"facts_report", "SELECT id, amount, region FROM [facts_keyed]"},
	} {
		if _, err := p.SaveView("alice", v[0], v[1], Meta{}); err != nil {
			t.Fatal(err)
		}
	}
	// The analytic workload's eight shapes, one literal each.
	analytic := []string{
		"SELECT COUNT(*) AS n, SUM(amount) AS s, AVG(amount) AS a FROM [facts] WHERE amount > 12.5",
		"SELECT id, amount, region FROM [facts] WHERE ts >= '2015-01-01 00:01:00' AND ts < '2015-01-01 00:04:00'",
		"SELECT region, COUNT(*) AS n, SUM(amount) AS s FROM [facts] WHERE id >= 3 GROUP BY region ORDER BY region",
		"SELECT dim_id, COUNT(*) AS n, AVG(amount) AS a FROM [facts] WHERE id >= 3 GROUP BY dim_id ORDER BY dim_id",
		"SELECT d.category, COUNT(*) AS n, SUM(f.amount) AS s FROM [facts] AS f JOIN [dims] AS d ON f.dim_id = d.dim_id WHERE f.id >= 3 GROUP BY d.category ORDER BY d.category",
		"SELECT TOP 100 id, amount FROM [facts] WHERE amount < 90 ORDER BY amount DESC, id",
		"SELECT w.id, w.region, w.amount, w.rk FROM (SELECT id, region, amount, RANK() OVER (PARTITION BY region ORDER BY amount DESC) AS rk FROM [facts] WHERE id >= 10 AND id < 200) AS w WHERE w.rk <= 20 ORDER BY w.region, w.rk, w.id",
		"SELECT region, COUNT(*) AS n, AVG(amount) AS a FROM [facts_report] WHERE amount > 12.5 GROUP BY region ORDER BY region",
	}
	aggs := 0
	for _, sql := range analytic {
		qp, err := p.Explain("alice", sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if bad := sortUnderAggregate(qp.Root, &aggs); bad != nil {
			t.Errorf("%s: %s reads a Sort", sql, bad.PhysicalOp)
		}
	}
	if aggs != 5 {
		t.Errorf("%d aggregates in the analytic shapes, want 5", aggs)
	}
	if testing.Short() {
		return
	}
	corpus, _, err := synth.GenerateSQLShare(synth.SQLShareConfig{Seed: 1, Users: 60, TargetQueries: 2000})
	if err != nil {
		t.Fatal(err)
	}
	aggs = 0
	for _, e := range corpus.Entries {
		qp, err := corpus.Catalog.Explain(e.User, e.SQL)
		if err != nil {
			continue
		}
		if bad := sortUnderAggregate(qp.Root, &aggs); bad != nil {
			t.Errorf("%s: %s reads a Sort", e.SQL, bad.PhysicalOp)
		}
	}
	if aggs < 100 {
		t.Fatalf("only %d aggregates in the corpus plans", aggs)
	}
	t.Logf("%d aggregates in %d corpus queries, none over a Sort", aggs, len(corpus.Entries))
}
