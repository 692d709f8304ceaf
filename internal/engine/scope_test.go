package engine

import (
	"strings"
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

// TestUnqualifiedConjunctStaysAmbiguous: a bare name in WHERE that two FROM
// items carry is ambiguous whether or not the other item is a scan a
// conjunct could be pushed into; it used to be pushed into the one pushable
// scan, which answered for the other item's column.
func TestUnqualifiedConjunctStaysAmbiguous(t *testing.T) {
	emp := storage.NewTable("emp", storage.Schema{{Name: "name", Type: sqltypes.String}, {Name: "dept", Type: sqltypes.String}})
	dept := storage.NewTable("dept", storage.Schema{{Name: "dept", Type: sqltypes.String}, {Name: "building", Type: sqltypes.String}})
	s := sqltypes.NewString
	if err := emp.Insert([]storage.Row{{s("ann"), s("bio")}, {s("bo"), s("bio")}, {s("cy"), s("cs")}}); err != nil {
		t.Fatal(err)
	}
	if err := dept.Insert([]storage.Row{{s("bio"), s("b1")}, {s("cs"), s("b2")}}); err != nil {
		t.Fatal(err)
	}
	res := MapResolver{
		Tables: map[string]*storage.Table{"emp": emp, "dept": dept},
		Views:  map[string]sqlparser.QueryExpr{"dv": sqlparser.MustParse("SELECT DISTINCT dept, building FROM dept")},
	}
	for _, sql := range []string{
		"SELECT * FROM emp, dept WHERE dept = 'bio'",
		"SELECT * FROM emp, dv WHERE dept = 'bio'",
		"SELECT * FROM dv, emp WHERE dept = 'bio'",
		"SELECT * FROM emp JOIN dv ON emp.name <> dv.building WHERE dept = 'bio'",
		"SELECT * FROM emp, dv WHERE emp.dept = dv.dept AND dept = 'bio'",
	} {
		if _, err := Query(sql, res, nil); err == nil || !strings.Contains(err.Error(), `ambiguous column reference "dept"`) {
			t.Errorf("%s: err = %v, want the ambiguity", sql, err)
		}
	}
	// Names only one item has still push into its scan.
	for sql, want := range map[string]int{
		"SELECT * FROM emp, dv WHERE emp.dept = 'bio'":                       4,
		"SELECT * FROM emp, dv WHERE name = 'cy'":                            2,
		"SELECT * FROM emp, dv WHERE building = 'b2' AND emp.dept = dv.dept": 1,
	} {
		if r, err := Query(sql, res, nil); err != nil || len(r.Rows) != want {
			t.Errorf("%s: %v, err %v; want %d rows", sql, r, err, want)
		}
	}
	p := compileLive(t, res, "SELECT * FROM emp, dv WHERE name = 'cy'")
	var scan *scanNode
	var find func(n Node)
	find = func(n Node) {
		if s, ok := n.(*scanNode); ok && s.props.Object == "emp" {
			scan = s
		}
		for _, c := range n.Children() {
			find(c)
		}
	}
	find(p.Root)
	if scan == nil || scan.seek == nil {
		t.Errorf("name = 'cy' is not a seek of emp")
	}
}
