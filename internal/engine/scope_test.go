package engine

import (
	"testing"

	"sqlshare/internal/sqlparser"
	"sqlshare/internal/sqltypes"
	"sqlshare/internal/storage"
)

// scopedResolver resolves names like a MapResolver but hands each view the
// scope its body's names resolve through.
type scopedResolver struct {
	MapResolver
	scopes map[string]Resolver
}

func (s scopedResolver) ResolveDataset(name string) (Resolution, error) {
	res, err := s.MapResolver.ResolveDataset(name)
	res.Scope = s.scopes[name]
	return res, err
}

// TestResolutionScope: names inside a view resolve through Resolution.Scope
// — in a full expansion, in the trivial-wrapper hop loop, and under a CTE —
// and the resolver in force is restored after the view.
func TestResolutionScope(t *testing.T) {
	table := func(v int64) *storage.Table {
		tbl := storage.NewTable("t", storage.Schema{{Name: "v", Type: sqltypes.Int}})
		if err := tbl.Insert([]storage.Row{{sqltypes.NewInt(v)}}); err != nil {
			t.Fatal(err)
		}
		return tbl
	}
	view := func(sql string) sqlparser.QueryExpr {
		q, err := sqlparser.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	// Inside the views, "t" is the owner's table (1); outside, the reader's (2).
	owner := MapResolver{Tables: map[string]*storage.Table{"t": table(1)}}
	reader := scopedResolver{
		MapResolver: MapResolver{
			Tables: map[string]*storage.Table{"t": table(2)},
			Views: map[string]sqlparser.QueryExpr{
				"wrap":  view("SELECT * FROM t"),
				"plus":  view("SELECT v + 10 AS v FROM t"),
				"plain": view("SELECT * FROM t"), // no Scope: the resolver in force
			},
		},
		scopes: map[string]Resolver{"wrap": owner, "plus": owner},
	}
	for sql, want := range map[string]int64{
		"SELECT v FROM wrap":  1,
		"SELECT v FROM plus":  11,
		"SELECT v FROM plain": 2,
		"SELECT v FROM t":     2,
		"SELECT SUM(v) AS v FROM (SELECT v FROM plus UNION ALL SELECT v FROM t) u": 13,
		"WITH c AS (SELECT v FROM wrap) SELECT c.v + t.v AS v FROM c, t":           3,
	} {
		r := run(t, reader, sql)
		if len(r.Rows) != 1 || r.Rows[0][0].Int() != want {
			t.Errorf("%s = %v, want %d", sql, r.Rows, want)
		}
	}
}
