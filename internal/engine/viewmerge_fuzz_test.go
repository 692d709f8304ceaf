package engine

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"sqlshare/internal/sqlparser"
	"sqlshare/internal/sqltypes"
	"sqlshare/internal/storage"
)

// fuzzCol is one output column of a generated view.
type fuzzCol struct {
	name string
	typ  sqltypes.Type
}

var (
	mergeFuzzOnce  sync.Once
	mergeFuzzTable *storage.Table
)

// mergeFuzzBase is a 300-row table over 32-row segments: k the clustered
// INT key with repeats and NULLs, f a FLOAT with NaN, -0 and NULLs, n an
// INT that is mostly NULL, s a short string.
func mergeFuzzBase() *storage.Table {
	mergeFuzzOnce.Do(func() {
		prev := storage.SetSegmentRows(32)
		defer storage.SetSegmentRows(prev)
		tbl := storage.NewTable("t", storage.Schema{
			{Name: "k", Type: sqltypes.Int},
			{Name: "f", Type: sqltypes.Float},
			{Name: "n", Type: sqltypes.Int},
			{Name: "s", Type: sqltypes.String},
		})
		rows := make([]storage.Row, 300)
		for i := range rows {
			k := sqltypes.NewInt(int64(i / 3))
			if i%50 == 0 {
				k = sqltypes.NullValue()
			}
			f := sqltypes.NewFloat(float64((i*29)%83)/4 - 5)
			switch i % 19 {
			case 2:
				f = sqltypes.NewFloat(math.NaN())
			case 5:
				f = sqltypes.NewFloat(math.Copysign(0, -1))
			case 9:
				f = sqltypes.NullValue()
			}
			n := sqltypes.NullValue()
			if i%4 == 0 {
				n = sqltypes.NewInt(int64(i % 11))
			}
			rows[i] = storage.Row{k, f, n, sqltypes.NewString(string(rune('a' + i%7)))}
		}
		if err := tbl.Insert(rows); err != nil {
			panic(err)
		}
		mergeFuzzTable = tbl
	})
	return mergeFuzzTable
}

// fuzzPred renders a conjunct over one of cols that cannot fail on any
// row, so the merged and reference plans may evaluate conjuncts in
// different orders and still agree.
func fuzzPred(rng *rand.Rand, cols []fuzzCol, qual string) string {
	c := cols[rng.Intn(len(cols))]
	ref := c.name
	if qual != "" {
		ref = qual + "." + ref
	}
	if rng.Intn(2) == 0 {
		ref = strings.ToUpper(ref)
	}
	ops := []string{"=", "<", "<=", ">", ">=", "<>"}
	switch {
	case rng.Intn(6) == 0:
		if rng.Intn(2) == 0 {
			return ref + " IS NULL"
		}
		return ref + " IS NOT NULL"
	case c.typ == sqltypes.String:
		if rng.Intn(3) == 0 {
			return ref + " LIKE '" + string(rune('a'+rng.Intn(7))) + "%'"
		}
		return fmt.Sprintf("%s %s '%c'", ref, ops[rng.Intn(len(ops))], 'a'+rng.Intn(7))
	case rng.Intn(4) == 0:
		lo := rng.Intn(60) - 10
		return fmt.Sprintf("%s BETWEEN %d AND %d", ref, lo, lo+rng.Intn(40))
	case rng.Intn(2) == 0:
		return fmt.Sprintf("%s %s %d", ref, ops[rng.Intn(len(ops))], rng.Intn(100)-10)
	default:
		return fmt.Sprintf("%s %s %.2f", ref, ops[rng.Intn(len(ops))], rng.Float64()*30-6)
	}
}

// fuzzWhere renders zero to two conjuncts.
func fuzzWhere(rng *rand.Rand, cols []fuzzCol, qual string) string {
	var cs []string
	for i := rng.Intn(3); i > 0; i-- {
		cs = append(cs, fuzzPred(rng, cols, qual))
	}
	if len(cs) == 0 {
		return ""
	}
	return " WHERE " + strings.Join(cs, " AND ")
}

// fuzzView renders one bare-column select-project-filter body over from
// and its output columns: `*`, or a random list in random order that may
// pick a column twice, under aliases that may swap names.
func fuzzView(rng *rand.Rand, from string, cols []fuzzCol) (string, []fuzzCol) {
	qual := ""
	fromSQL := from
	if rng.Intn(3) == 0 {
		qual = "q"
		fromSQL += " AS q"
	}
	if rng.Intn(6) == 0 {
		star := "*"
		if qual != "" && rng.Intn(2) == 0 {
			star = "q.*"
		}
		return "SELECT " + star + " FROM " + fromSQL + fuzzWhere(rng, cols, qual), cols
	}
	var items []string
	var out []fuzzCol
	used := map[string]bool{}
	for i := 1 + rng.Intn(len(cols)+1); i > 0; i-- {
		c := cols[rng.Intn(len(cols))]
		name := c.name
		if used[name] || rng.Intn(2) == 0 {
			// An alias: a fresh name, or another column's name.
			name = fmt.Sprintf("x%d", rng.Intn(6))
			if rng.Intn(2) == 0 {
				name = cols[rng.Intn(len(cols))].name
			}
		}
		if used[name] {
			continue
		}
		used[name] = true
		ref := c.name
		if qual != "" && rng.Intn(2) == 0 {
			ref = qual + "." + ref
		}
		if name == c.name && rng.Intn(2) == 0 {
			items = append(items, ref)
		} else {
			items = append(items, ref+" AS "+name)
		}
		out = append(out, fuzzCol{name: name, typ: c.typ})
	}
	if len(items) == 0 {
		items, out = []string{cols[0].name}, cols[:1]
	}
	return "SELECT " + strings.Join(items, ", ") + " FROM " + fromSQL + fuzzWhere(rng, cols, qual), out
}

// fuzzReader renders a query over the top view: a projection, a scalar or
// grouped aggregate, an ordered projection, or a self-join.
func fuzzReader(rng *rand.Rand, view string, cols []fuzzCol) string {
	c := cols[rng.Intn(len(cols))]
	switch rng.Intn(5) {
	case 0:
		return "SELECT * FROM " + view + fuzzWhere(rng, cols, "")
	case 1:
		agg := "COUNT(" + c.name + ")"
		if c.typ != sqltypes.String {
			agg = "SUM(" + c.name + "), AVG(" + c.name + ")"
		}
		return "SELECT COUNT(*), MIN(" + c.name + "), MAX(" + c.name + "), " + agg + " FROM " + view + fuzzWhere(rng, cols, "")
	case 2:
		return "SELECT " + c.name + ", COUNT(*) FROM " + view + fuzzWhere(rng, cols, "") + " GROUP BY " + c.name
	case 3:
		d := cols[rng.Intn(len(cols))]
		return "SELECT " + d.name + ", " + c.name + " FROM " + view + fuzzWhere(rng, cols, "") + " ORDER BY " + c.name + ", " + d.name
	default:
		return "SELECT a." + c.name + ", b." + cols[0].name + " FROM " + view + " AS a JOIN " + view +
			" AS b ON a." + c.name + " = b." + c.name + fuzzWhere(rng, cols, "a")
	}
}

// FuzzViewMerge generates a chain of one to four bare-column
// select-project-filter views over mergeFuzzBase and a query over the top
// of it, and requires the merged plan (at DOP 1 and 2) to answer exactly as
// the reference where every body B runs as `SELECT TOP 1000000 * FROM (B)
// AS v`, which never merges: same columns, same rows in the same order,
// FLOAT by its bits.
func FuzzViewMerge(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(seed, uint8(seed%4))
	}
	f.Fuzz(func(t *testing.T, seed int64, depth uint8) {
		rng := rand.New(rand.NewSource(seed))
		merged := MapResolver{Tables: map[string]*storage.Table{"t": mergeFuzzBase()}, Views: map[string]sqlparser.QueryExpr{}}
		ref := MapResolver{Tables: merged.Tables, Views: map[string]sqlparser.QueryExpr{}}
		cols := []fuzzCol{{"k", sqltypes.Int}, {"f", sqltypes.Float}, {"n", sqltypes.Int}, {"s", sqltypes.String}}
		from := "t"
		var bodies []string
		for d := 0; d <= int(depth%4); d++ {
			var body string
			body, cols = fuzzView(rng, from, cols)
			from = fmt.Sprintf("v%d", d)
			for _, r := range []struct {
				res MapResolver
				sql string
			}{{merged, body}, {ref, "SELECT TOP 1000000 * FROM (" + body + ") AS v"}} {
				q, err := sqlparser.Parse(r.sql)
				if err != nil {
					t.Fatalf("%s: %v", r.sql, err)
				}
				r.res.Views[from] = q
			}
			bodies = append(bodies, from+" = "+body)
		}
		sql := fuzzReader(rng, from, cols)
		outcome := func(res Resolver, dop int) string {
			r, err := Query(sql, res, &ExecContext{DOP: dop})
			if err != nil {
				return "error: " + err.Error()
			}
			return strings.Join(r.ColumnNames(), ",") + "\n" + renderBits(r)
		}
		want := outcome(ref, 1)
		for _, dop := range []int{1, 2} {
			if got := outcome(merged, dop); got != want {
				t.Fatalf("%s\nover\n%s\nDOP %d merged:\n%s\nreference:\n%s", sql, strings.Join(bodies, "\n"), dop, got, want)
			}
		}
	})
}
