package engine

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"sqlshare/internal/sqlparser"
	"sqlshare/internal/sqltypes"
	"sqlshare/internal/storage"
)

// keyShapesResolver builds two tables whose columns cover every key shape:
// duplicate-heavy and all-distinct keys, NULLs everywhere, a FLOAT column
// with NaN and both zeros, DATETIMEs (one beyond the nanosecond range in
// far), a column mixing Int and Float, one mixing strings and numbers, and
// measures whose SUM fails (s holds 'abc', 'xyz') or whose CAST does.
func keyShapesResolver(t testing.TB, rows int) MapResolver {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	null := func(typ sqltypes.Type, v sqltypes.Value) sqltypes.Value {
		if rng.Intn(9) == 0 {
			return sqltypes.TypedNull(typ)
		}
		return v
	}
	floats := []float64{math.NaN(), 0, math.Copysign(0, -1), 1, 1.5, 2, -3.25, 1e-7, 2e-7, math.Inf(1)}
	day := time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC)
	mk := func(name string, n int) *storage.Table {
		tbl := storage.NewTable(name, storage.Schema{
			{Name: "id", Type: sqltypes.Int},
			{Name: "ki", Type: sqltypes.Int},
			{Name: "kf", Type: sqltypes.Float},
			{Name: "ks", Type: sqltypes.String},
			{Name: "kd", Type: sqltypes.DateTime},
			{Name: "far", Type: sqltypes.DateTime},
			{Name: "km", Type: sqltypes.Float},
			{Name: "kx", Type: sqltypes.String},
			{Name: "u", Type: sqltypes.Int},
			{Name: "v", Type: sqltypes.Float},
			{Name: "w", Type: sqltypes.Int},
			{Name: "s", Type: sqltypes.String},
		})
		perm := rng.Perm(n)
		data := make([]storage.Row, n)
		for i := range data {
			km := sqltypes.NewInt(int64(rng.Intn(4)))
			if rng.Intn(2) == 0 {
				km = sqltypes.NewFloat(float64(rng.Intn(8)) / 2)
			}
			kx := sqltypes.NewString(fmt.Sprint(rng.Intn(12)))
			switch rng.Intn(4) {
			case 0:
				kx = sqltypes.NewInt(int64(rng.Intn(12)))
			case 1:
				kx = sqltypes.NewString([]string{"a", "b", "9x"}[rng.Intn(3)])
			}
			far := day.AddDate(0, 0, rng.Intn(3))
			if i == n/2 {
				far = time.Date(1, 1, 1, 0, 0, 0, 0, time.UTC)
			}
			s := sqltypes.NewString(fmt.Sprint(rng.Intn(50)))
			switch {
			case i%37 == 5:
				s = sqltypes.NewString("abc")
			case i%41 == 7:
				s = sqltypes.NewString("xyz")
			}
			data[i] = storage.Row{
				sqltypes.NewInt(int64(i)),
				null(sqltypes.Int, sqltypes.NewInt(int64(rng.Intn(7)))),
				null(sqltypes.Float, sqltypes.NewFloat(floats[rng.Intn(len(floats))])),
				null(sqltypes.String, sqltypes.NewString(fmt.Sprintf("g%d", rng.Intn(5)))),
				null(sqltypes.DateTime, sqltypes.NewDateTime(day.Add(time.Duration(rng.Intn(6))*time.Nanosecond))),
				sqltypes.NewDateTime(far),
				null(sqltypes.Float, km),
				null(sqltypes.String, kx),
				sqltypes.NewInt(int64(perm[i])),
				null(sqltypes.Float, sqltypes.NewFloat(float64(rng.Intn(1000))/8)),
				null(sqltypes.Int, sqltypes.NewInt(int64(rng.Intn(100)))),
				s,
			}
		}
		if err := tbl.Insert(data); err != nil {
			t.Fatal(err)
		}
		return tbl
	}
	return MapResolver{Tables: map[string]*storage.Table{"t": mk("t", rows), "d": mk("d", rows/4)}}
}

// runBoth executes sql as compiled and with the reference operators swapped
// in, at the given DOP, and returns both outcomes rendered bit-exactly.
func runBoth(t *testing.T, res Resolver, sql string, dop int) (got, want string) {
	t.Helper()
	render := func(ref bool) string {
		p, err := Compile(sqlparser.MustParse(sql), res)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if ref && withReferenceOps(p) == 0 {
			t.Fatalf("%s: no operator to swap", sql)
		}
		r, err := p.Execute(&ExecContext{Now: time.Unix(0, 0), DOP: dop})
		if err != nil {
			return "error: " + err.Error()
		}
		return renderBits(r)
	}
	return render(false), render(true)
}

// TestKeyOperatorsMatchReference compares sort, grouped aggregation and hash
// join on typed key columns against the retained []Value / key-string
// operators over every key shape, at DOP 1, 2 and 8.
func TestKeyOperatorsMatchReference(t *testing.T) {
	parallelTestSetup(t)
	res := keyShapesResolver(t, 400)
	aggs := "COUNT(*) AS n, SUM(v) AS sv, AVG(v) AS av, STDEV(v) AS sd, MIN(ks) AS lo, MAX(w) AS hi, COUNT(DISTINCT ks) AS dk, SUM(DISTINCT w) AS dw, COUNT(DISTINCT kf) AS df"
	var queries []string
	for _, key := range []string{"ki", "kf", "ks", "kd", "far", "km", "kx", "u", "ki, ks", "kf DESC, id", "ks, ki DESC", "kx DESC, km", "v * 2, id"} {
		queries = append(queries, "SELECT id, ki, kf, ks, km, kx FROM t ORDER BY "+key)
	}
	for _, key := range []string{"ki", "kf", "ks", "kd", "far", "km", "kx", "u", "id", "ki, ks", "kf, kx", "w % 3"} {
		queries = append(queries,
			fmt.Sprintf("SELECT %s, %s FROM t GROUP BY %s", key, aggs, key),                  // hash (id: stream)
			fmt.Sprintf("SELECT %s, %s FROM t GROUP BY %s ORDER BY %s", key, aggs, key, key)) // the same, groups sorted
	}
	for _, side := range []string{"JOIN", "LEFT JOIN", "RIGHT JOIN", "FULL OUTER JOIN"} {
		for _, on := range []string{
			"t.ki = d.ki", "t.kf = d.kf", "t.ki = d.kf", "t.km = d.ki", "t.kx = d.kx", "t.kx = d.ki",
			"t.kd = d.kd", "t.far = d.far", "t.ki = d.ki AND t.ks = d.ks", "t.ki = d.ki AND t.v < d.v",
		} {
			queries = append(queries, fmt.Sprintf("SELECT t.id, d.id, t.kx, d.kf FROM t %s d ON %s", side, on))
		}
	}
	queries = append(queries,
		"SELECT DISTINCT ki, ks FROM t", "SELECT DISTINCT kf FROM t", "SELECT DISTINCT kx, km FROM t ORDER BY kx",
		"SELECT kf FROM t UNION SELECT kf FROM d", "SELECT km FROM t UNION SELECT kx FROM d ORDER BY 1 DESC",
		"SELECT kf, km FROM t INTERSECT SELECT kf, km FROM d", "SELECT kx FROM t INTERSECT SELECT ki FROM d",
		"SELECT kf, kx FROM t EXCEPT SELECT kf, kx FROM d", "SELECT km FROM t EXCEPT SELECT kf FROM d ORDER BY 1",
		"SELECT id, ROW_NUMBER() OVER (PARTITION BY kf ORDER BY id) AS r, RANK() OVER (PARTITION BY kx ORDER BY km) AS k FROM t ORDER BY id",
		"SELECT id, DENSE_RANK() OVER (PARTITION BY km, kx ORDER BY kf DESC) AS r FROM t ORDER BY id",
		"SELECT id, ROW_NUMBER() OVER (PARTITION BY ks ORDER BY kf, kx) AS r, RANK() OVER (PARTITION BY ki, kd ORDER BY kx) AS k FROM t ORDER BY id",
		"SELECT id, SUM(v) OVER (PARTITION BY kf, km ORDER BY ki) AS s, COUNT(*) OVER (PARTITION BY kx) AS n FROM t ORDER BY id",
		"SELECT TOP 7 id, kf FROM t ORDER BY kf, id", "SELECT TOP 7 id, kx FROM t ORDER BY kx",
		// Erroring arguments: a fold error and an argument error in different
		// groups and aggregates; the first in group, aggregate, row order wins.
		"SELECT ki, SUM(w) AS a, SUM(s) AS b FROM t GROUP BY ki",
		"SELECT ks, SUM(s) AS b, SUM(CAST(s AS INT)) AS c FROM t GROUP BY ks ORDER BY ks",
		"SELECT ki, MAX(CAST(s AS INT)) AS c, SUM(s) AS b FROM t WHERE id > 50 GROUP BY ki",
	)
	for _, sql := range queries {
		for _, dop := range []int{1, 2, 8} {
			if got, want := runBoth(t, res, sql, dop); got != want {
				t.Fatalf("%s (dop %d):\n--- typed keys\n%.600s\n--- reference\n%.600s", sql, dop, got, want)
			}
		}
	}
}

// TestOneRowPerKey: every operator that groups rows — DISTINCT, UNION,
// INTERSECT, EXCEPT, hashed and streamed GROUP BY, PARTITION BY — returns
// exactly one row per distinct Value.Key of its key columns, over the
// columns whose sort order is not a strict weak one (NaN and both zeros,
// Int/Float, string/number), singly and in pairs, at DOP 1, 2 and 8 with
// vectorization on and off. The oracle is a map over Value.Key of the table
// rows. A Distinct Sort that compared each row with its neighbour in the
// sorted order kept equal keys a NaN or a coercing comparison set apart.
func TestOneRowPerKey(t *testing.T) {
	parallelTestSetup(t)
	res := keyShapesResolver(t, 400)
	colIdx := map[string]int{}
	for j, c := range res.Tables["t"].Schema() {
		colIdx[c.Name] = j
	}
	// keysOf is the set of Value.Keys of cols over the rows of table.
	keysOf := func(table string, cols []string) map[string]bool {
		set := map[string]bool{}
		for _, r := range res.Tables[table].Scan() {
			var k string
			for _, c := range cols {
				k += r[colIdx[c]].Key() + "|"
			}
			set[k] = true
		}
		return set
	}
	// A streamed GROUP BY groups on the leading column of a clustered table:
	// s<col> holds the column col of t first.
	for _, col := range []string{"kf", "km", "kx"} {
		j := colIdx[col]
		tbl := storage.NewTable("s"+col, storage.Schema{res.Tables["t"].Schema()[j], {Name: "id", Type: sqltypes.Int}})
		var rows []storage.Row
		for _, r := range res.Tables["t"].Scan() {
			rows = append(rows, storage.Row{r[j], r[0]})
		}
		if err := tbl.Insert(rows); err != nil {
			t.Fatal(err)
		}
		res.Tables["s"+col] = tbl
	}
	if ops := planOps(compileLive(t, res, "SELECT kf, COUNT(*) AS n FROM skf GROUP BY kf").Root); ops != "Stream Aggregate;Clustered Index Scan;" {
		t.Fatalf("GROUP BY on the clustered column plans as %s", ops)
	}
	type check struct {
		sql   string
		width int // the leading columns that are the key
		want  map[string]bool
	}
	var checks []check
	for _, key := range []string{"kf", "km", "kx", "kf, km", "kf, kx", "km, kx"} {
		cols := strings.Split(key, ", ")
		tk, dk := keysOf("t", cols), keysOf("d", cols)
		union, inter, except := map[string]bool{}, map[string]bool{}, map[string]bool{}
		for k := range tk {
			union[k] = true
			if dk[k] {
				inter[k] = true
			} else {
				except[k] = true
			}
		}
		for k := range dk {
			union[k] = true
		}
		w := len(cols)
		checks = append(checks,
			check{"SELECT DISTINCT " + key + " FROM t", w, tk},
			check{"SELECT " + key + " FROM t UNION SELECT " + key + " FROM d", w, union},
			check{"SELECT " + key + " FROM t INTERSECT SELECT " + key + " FROM d", w, inter},
			check{"SELECT " + key + " FROM t EXCEPT SELECT " + key + " FROM d", w, except},
			check{"SELECT " + key + ", COUNT(*) AS n FROM t GROUP BY " + key, w, tk},
			check{"SELECT " + key + " FROM (SELECT " + key + ", ROW_NUMBER() OVER (PARTITION BY " + key + " ORDER BY id) AS r FROM t) AS q WHERE r = 1", w, tk},
		)
		if w == 1 {
			checks = append(checks, check{"SELECT " + key + ", COUNT(*) AS n FROM s" + key + " GROUP BY " + key, w, tk})
		}
	}
	for _, vec := range []bool{true, false} {
		prev := SetVectorizedEnabled(vec)
		for _, c := range checks {
			for _, dop := range []int{1, 2, 8} {
				r, err := compileLive(t, res, c.sql).Execute(&ExecContext{DOP: dop})
				if err != nil {
					t.Fatalf("%s: %v", c.sql, err)
				}
				got := map[string]bool{}
				for _, row := range r.Rows {
					var k string
					for _, v := range row[:c.width] {
						k += v.Key() + "|"
					}
					if !c.want[k] {
						t.Errorf("%s (dop %d, vectorized %v): key %q is not in the oracle", c.sql, dop, vec, k)
					}
					got[k] = true
				}
				if len(r.Rows) != len(c.want) || len(got) != len(c.want) {
					t.Errorf("%s (dop %d, vectorized %v): %d rows of %d keys, want one row per each of %d keys",
						c.sql, dop, vec, len(r.Rows), len(got), len(c.want))
				}
			}
		}
		SetVectorizedEnabled(prev)
	}
}

// TestTopNSortMatchesFullSort: a sort under TOP keeps n rows — its traced
// output is n, not its input — and they are the first n of the full sort,
// with ties, DESC, PERCENT and keys that cannot be bounded (NaN, mixed).
func TestTopNSortMatchesFullSort(t *testing.T) {
	parallelTestSetup(t)
	const rows = 300
	res := keyShapesResolver(t, rows)
	for _, order := range []string{"ki, id", "ki DESC, ks, id", "kf, id", "kx, id", "ks", "u DESC"} {
		for _, top := range []string{"0", "1", "17", "300", "301", "10 PERCENT", "100 PERCENT", "0 PERCENT"} {
			sql := fmt.Sprintf("SELECT TOP %s id, ki, ks FROM t ORDER BY %s", top, order)
			for _, dop := range []int{1, 8} {
				if got, want := runBoth(t, res, sql, dop); got != want {
					t.Fatalf("%s (dop %d):\n--- top n sort\n%.400s\n--- full sort\n%.400s", sql, dop, got, want)
				}
			}
		}
	}
	p := compileLive(t, res, "SELECT TOP 17 id FROM t ORDER BY ki DESC, id")
	ctx := &ExecContext{}
	if _, err := p.Execute(ctx); err != nil {
		t.Fatal(err)
	}
	ops := flattenTrace(p, ctx)
	if top, srt, in := ops[0], ops[1], ops[2]; top.PhysicalOp != "Top" || srt.PhysicalOp != "Sort" || srt.Rows != 17 || in.Rows != rows {
		t.Fatalf("Top N Sort passed on %d of %d rows, want 17 of %d", srt.Rows, in.Rows, rows)
	}
	// The bounded heap itself never holds more than n row indices.
	part := rand.New(rand.NewSource(1)).Perm(1000)
	kept := smallest(part, 10, func(a, b int) bool { return a < b })
	if len(kept) != 10 || cap(kept) != cap(part) {
		t.Fatalf("heap of %d (cap %d), want 10 in place", len(kept), cap(kept))
	}
	for _, x := range kept {
		if x >= 10 {
			t.Fatalf("kept %v, want 0..9", kept)
		}
	}
	// A DISTINCT sort sees every row even under TOP.
	got, err := Query("SELECT DISTINCT TOP 3 ki FROM t", res, nil)
	if err != nil || len(got.Rows) != 3 {
		t.Fatalf("DISTINCT TOP 3: %d rows, err %v", len(got.Rows), err)
	}
}

// TestGroupedFoldEvaluatesArgumentsOncePerRow: the grouped aggregate calls
// each aggregate argument exactly once per input row (it used to, too — but
// into a per-group copy), in streaming and in hashing mode. The argument is
// a computed one (argCol -1): a bare column is read from its source instead
// (a hand-built aggSpec's zero argCol means column 0).
func TestGroupedFoldEvaluatesArgumentsOncePerRow(t *testing.T) {
	in := &relation{cols: []ColMeta{{Name: "g", Type: sqltypes.Int}, {Name: "x", Type: sqltypes.Float}}}
	for i := 0; i < 500; i++ {
		in.rows = append(in.rows, storage.Row{sqltypes.NewInt(int64(i / 50)), sqltypes.NewFloat(float64(i))})
	}
	for _, sorted := range []bool{true, false} {
		calls := 0
		arg := func(_ *ExecContext, ev *Env) (sqltypes.Value, error) { calls++; return ev.row[1], nil }
		a := &streamAggregateNode{
			groupFns: []exprFn{func(_ *ExecContext, ev *Env) (sqltypes.Value, error) { return ev.row[0], nil }},
			specs: []aggSpec{
				{name: "SUM", argFn: arg, outType: sqltypes.Float, argCol: -1},
				{name: "COUNT", star: true, outType: sqltypes.Int},
			},
			sorted: sorted,
		}
		a.children = []Node{&countingNode{rel: in}}
		out, err := execNode(&ExecContext{Progress: &Progress{}, tracer: newTracer()}, a, nil)
		if err != nil {
			t.Fatal(err)
		}
		if calls != len(in.rows) || len(out.rows) != 10 {
			t.Fatalf("sorted=%v: %d argument calls for %d rows, %d groups", sorted, calls, len(in.rows), len(out.rows))
		}
		if got := out.rows[3][1].Float(); got != (150+199)*50/2 {
			t.Fatalf("sorted=%v: SUM of group 3 = %v", sorted, got)
		}
	}
}

// TestGroupByAllocatesPerGroupNotPerRow guards the representation: a
// single-key GROUP BY over 24,000 rows allocates a few objects per group and
// per morsel, not several per row (a key slice, a formatted key, a
// concatenation, a sort-key slice), so per-row key strings cannot come back
// unnoticed.
func TestGroupByAllocatesPerGroupNotPerRow(t *testing.T) {
	const rows = 24000
	tbl := storage.NewTable("t", storage.Schema{
		{Name: "id", Type: sqltypes.Int}, {Name: "g", Type: sqltypes.String}, {Name: "x", Type: sqltypes.Float},
	})
	data := make([]storage.Row, rows)
	for i := range data {
		data[i] = storage.Row{sqltypes.NewInt(int64(i)), sqltypes.NewString(fmt.Sprintf("g%02d", i%20)), sqltypes.NewFloat(float64(i) / 64)}
	}
	if err := tbl.Insert(data); err != nil {
		t.Fatal(err)
	}
	res := MapResolver{Tables: map[string]*storage.Table{"t": tbl}}
	for _, sql := range []string{
		"SELECT g, COUNT(*) AS n, SUM(x) AS s FROM t GROUP BY g",            // hash
		"SELECT g, COUNT(*) AS n, SUM(x) AS s FROM t GROUP BY g ORDER BY g", // hash, then sort the groups
	} {
		p := compileLive(t, res, sql)
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := p.Execute(&ExecContext{}); err != nil {
				t.Fatal(err)
			}
		})
		if perRow := allocs / rows; perRow >= 0.1 {
			t.Fatalf("%s: %.0f allocations = %.2f per input row, want < 0.1", sql, allocs, perRow)
		}
	}
}

// TestKeysDistinguishCloseValues: the %024.6f key merged numbers closer than
// 1e-6, integers beyond 2^53 and datetimes inside a millisecond, through
// every operator that hashed it.
func TestKeysDistinguishCloseValues(t *testing.T) {
	at := time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC)
	mk := func(name string, typ sqltypes.Type, vals ...sqltypes.Value) *storage.Table {
		// x is not the leading column, so a self-join on it hashes.
		tbl := storage.NewTable(name, storage.Schema{{Name: "id", Type: sqltypes.Int}, {Name: "x", Type: typ}})
		var rows []storage.Row
		for i, v := range vals {
			rows = append(rows, storage.Row{sqltypes.NewInt(int64(i)), v})
		}
		if err := tbl.Insert(rows); err != nil {
			t.Fatal(err)
		}
		return tbl
	}
	res := MapResolver{Tables: map[string]*storage.Table{
		"f": mk("f", sqltypes.Float, sqltypes.NewFloat(1e-7), sqltypes.NewFloat(2e-7)),
		"i": mk("i", sqltypes.Int, sqltypes.NewInt(9007199254740992), sqltypes.NewInt(9007199254740993)),
		"d": mk("d", sqltypes.DateTime, sqltypes.NewDateTime(at), sqltypes.NewDateTime(at.Add(time.Microsecond))),
	}}
	for _, tbl := range []string{"f", "i", "d"} {
		for sql, want := range map[string]string{
			"SELECT DISTINCT x FROM %s":                                                                "2 rows",
			"SELECT x, COUNT(*) FROM %s GROUP BY x":                                                    "2 rows",
			"SELECT a.x FROM %[1]s a JOIN %[1]s b ON a.x = b.x":                                        "2 rows",
			"SELECT x FROM %[1]s UNION SELECT x FROM %[1]s":                                            "2 rows",
			"SELECT x FROM %[1]s INTERSECT SELECT x FROM %[1]s":                                        "2 rows",
			"SELECT COUNT(DISTINCT x) FROM %s":                                                         "2",
			"SELECT MAX(n) FROM (SELECT COUNT(*) AS n FROM %s GROUP BY x) q":                           "1",
			"SELECT MAX(r) FROM (SELECT ROW_NUMBER() OVER (PARTITION BY x ORDER BY x) AS r FROM %s) q": "1",
		} {
			sql = fmt.Sprintf(sql, tbl)
			r, err := Query(sql, res, nil)
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			got := fmt.Sprintf("%d rows", len(r.Rows))
			if !strings.HasSuffix(want, "rows") {
				got = r.Rows[0][0].String()
			}
			if got != want {
				t.Errorf("%s: got %s, want %s", sql, got, want)
			}
		}
	}
}

// scanTrace finds the operator of the scan or seek on object.
func scanTrace(ops []opTrace, object string) *opTrace {
	for i := range ops {
		if ops[i].Object == object {
			return &ops[i]
		}
	}
	return nil
}

// TestBoundedRangeSeek: both ends of a key range on the leading clustered
// column close one seek, which then touches exactly the rows in range — no
// row predicate runs to the end of the table.
func TestBoundedRangeSeek(t *testing.T) {
	day := time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC)
	mk := func(name string, typ sqltypes.Type, key func(i int) sqltypes.Value) *storage.Table {
		tbl := storage.NewTable(name, storage.Schema{{Name: "k", Type: typ}, {Name: "n", Type: sqltypes.Int}})
		var rows []storage.Row
		for i := 0; i < 100; i++ {
			k := key(i)
			if i%10 == 0 {
				k = sqltypes.TypedNull(typ)
			}
			rows = append(rows, storage.Row{k, sqltypes.NewInt(int64(i))})
		}
		if err := tbl.Insert(rows); err != nil {
			t.Fatal(err)
		}
		return tbl
	}
	res := MapResolver{Tables: map[string]*storage.Table{
		"ti": mk("ti", sqltypes.Int, func(i int) sqltypes.Value { return sqltypes.NewInt(int64(i)) }),
		"ts": mk("ts", sqltypes.String, func(i int) sqltypes.Value { return sqltypes.NewString(fmt.Sprintf("k%03d", i)) }),
		"td": mk("td", sqltypes.DateTime, func(i int) sqltypes.Value { return sqltypes.NewDateTime(day.AddDate(0, 0, i)) }),
	}}
	for _, tc := range []struct {
		sql     string
		touched int64 // rows the seek reads
		rows    int   // rows the query returns
		filters string
	}{
		{"SELECT n FROM ti WHERE k >= 20 AND k < 40", 18, 18, "[(k >= 20) (k < 40)]"},
		{"SELECT n FROM ti WHERE k < 40 AND k >= 20", 18, 18, "[(k < 40) (k >= 20)]"},
		{"SELECT n FROM ti WHERE k > 20 AND k <= 40", 18, 18, "[(k > 20) (k <= 40)]"},
		{"SELECT n FROM ti WHERE 21 <= k AND 39 >= k", 18, 18, "[(21 <= k) (39 >= k)]"},
		{"SELECT n FROM ti WHERE k < 15", 13, 13, "[(k < 15)]"}, // open lower end skips the NULL prefix
		{"SELECT n FROM ti WHERE k <= 15 AND n > 3", 14, 11, "[(k <= 15) (n > 3)]"},
		{"SELECT n FROM ti WHERE k > 50 AND k < 50", 0, 0, "[(k > 50) (k < 50)]"},
		{"SELECT n FROM ti WHERE k >= 60 AND k <= 30", 0, 0, "[(k >= 60) (k <= 30)]"},
		{"SELECT n FROM ti WHERE k = 33 AND k < 90", 1, 1, "[(k = 33) (k < 90)]"}, // = keeps the range as a predicate
		{"SELECT n FROM ti WHERE k = 33 AND k < 10", 1, 0, "[(k = 33) (k < 10)]"},
		{"SELECT n FROM ti WHERE k > 20 AND k > 30 AND k < 35", 13, 4, "[(k > 20) (k > 30) (k < 35)]"}, // second lower bound stays a predicate
		{"SELECT n FROM ts WHERE k >= 'k020' AND k < 'k040'", 18, 18, "[(k >= 'k020') (k < 'k040')]"},
		{"SELECT n FROM td WHERE k >= '2015-06-21' AND k < '2015-07-11'", 18, 18, "[(k >= '2015-06-21') (k < '2015-07-11')]"},
	} {
		p := compileLive(t, res, tc.sql)
		ctx := &ExecContext{}
		r, err := p.Execute(ctx)
		if err != nil {
			t.Fatalf("%s: %v", tc.sql, err)
		}
		var seek *scanNode
		var find func(n Node)
		find = func(n Node) {
			if s, ok := n.(*scanNode); ok {
				seek = s
			}
			for _, c := range n.Children() {
				find(c)
			}
		}
		find(p.Root)
		if seek.props.PhysicalOp != "Clustered Index Seek" || fmt.Sprint(seek.props.Filters) != tc.filters {
			t.Errorf("%s: %s %v, want a seek with %s", tc.sql, seek.props.PhysicalOp, seek.props.Filters, tc.filters)
		}
		if len(r.Rows) != tc.rows {
			t.Errorf("%s: %d rows, want %d", tc.sql, len(r.Rows), tc.rows)
		}
		// What the seek read: its output when no row predicate is left,
		// otherwise the range its one storage call returned.
		touched := int64(len(seekRows(seek)))
		if touched != tc.touched {
			t.Errorf("%s: seek touched %d rows, want %d", tc.sql, touched, tc.touched)
		}
		if len(seek.preds) == 0 {
			if got := scanTrace(flattenTrace(p, ctx), seek.props.Object).Rows; got != tc.touched {
				t.Errorf("%s: traced seek rows %d, want %d", tc.sql, got, tc.touched)
			}
		}
	}
}

// seekRows is the row range s.seek reads, before row predicates.
func seekRows(s *scanNode) []storage.Row {
	bare := *s
	bare.preds = nil
	rel, err := bare.exec(&ExecContext{tracer: newTracer()}, nil)
	if err != nil {
		panic(err)
	}
	materialize(rel)
	return rel.rows
}

// TestEqualitySemiProbeReadsOneBucket: an equality-correlated EXISTS probes a
// hash of the cached inner rows, so the conjuncts run on the rows sharing the
// outer key — not on every inner row, which is what a probe that finds
// nothing used to cost.
func TestEqualitySemiProbeReadsOneBucket(t *testing.T) {
	const inner, buckets, outer = 1000, 100, 50
	in := &relation{cols: []ColMeta{{Name: "k", Type: sqltypes.Int}, {Name: "v", Type: sqltypes.Int}}}
	for i := 0; i < inner; i++ {
		in.rows = append(in.rows, storage.Row{sqltypes.NewInt(int64(i % buckets)), sqltypes.NewInt(int64(i))})
	}
	evals := 0
	innerKey := func(_ *ExecContext, ev *Env) (sqltypes.Value, error) { return ev.row[0], nil }
	outerKey := func(_ *ExecContext, ev *Env) (sqltypes.Value, error) { return ev.outer.row[0], nil }
	counted := func(fn exprFn) exprFn {
		return func(ctx *ExecContext, ev *Env) (sqltypes.Value, error) { evals++; return fn(ctx, ev) }
	}
	never := func(*ExecContext, *Env) (sqltypes.Value, error) { return sqltypes.NewBool(false), nil }
	mk := func(hash bool) *semiProbeNode {
		p := &semiProbeNode{
			inner: &subplan{node: &countingNode{rel: in}},
			conjs: []exprFn{counted(compareFn(innerKey, outerKey, "=")), never},
		}
		if hash {
			p.eq = &eqProbe{innerFns: []exprFn{innerKey}, outerFns: []exprFn{outerKey}}
		}
		return p
	}
	run := func(p *semiProbeNode, key sqltypes.Value) int {
		out, err := execNode(&ExecContext{Progress: &Progress{}, tracer: newTracer()}, p, &Env{row: storage.Row{key}})
		if err != nil {
			t.Fatal(err)
		}
		return len(out.rows)
	}
	hashed, looped := mk(true), mk(false)
	for i := 0; i < outer; i++ {
		if run(hashed, sqltypes.NewInt(int64(i))) != 0 {
			t.Fatal("matched")
		}
	}
	if want := outer * inner / buckets; evals != want {
		t.Fatalf("hash probe: %d conjunct evaluations for %d outer rows, want %d (one bucket each)", evals, outer, want)
	}
	evals = 0
	run(looped, sqltypes.NewInt(3))
	if evals != inner {
		t.Fatalf("loop probe: %d conjunct evaluations, want %d", evals, inner)
	}
	// What the table cannot decide goes back to the loop: a string that `=`
	// coerces to the number, and NaN, which `=` cannot tell from any number.
	for _, v := range []sqltypes.Value{sqltypes.NewString("3"), sqltypes.NewFloat(math.NaN())} {
		evals = 0
		run(hashed, v)
		if evals != inner {
			t.Fatalf("probe with %v: %d conjunct evaluations, want the loop's %d", v, evals, inner)
		}
	}
	// A Float that is an inner Int's number finds its bucket; NULL finds none.
	evals = 0
	run(hashed, sqltypes.NewFloat(7))
	run(hashed, sqltypes.TypedNull(sqltypes.Int))
	if evals != inner/buckets {
		t.Fatalf("Float and NULL probes: %d conjunct evaluations, want %d", evals, inner/buckets)
	}
}

// TestOutputSizesAreMeasuredOnce: the sizes execNode reports for outputs an
// operator sized itself (an unfiltered scan from segment statistics, a sort
// as its input's, a hash join as the sum of what it charged, pass-throughs
// as their child's) equal a walk over the cells.
func TestOutputSizesAreMeasuredOnce(t *testing.T) {
	res := keyShapesResolver(t, 300)
	tRows, dRows := res.Tables["t"].Scan(), res.Tables["d"].Scan()
	for _, tc := range []struct {
		sql  string
		want map[string]int64 // PhysicalOp -> bytes; the result's size under "result"
	}{
		{"SELECT * FROM t ORDER BY ks, id", map[string]int64{"Clustered Index Scan": rowsBytes(tRows), "Sort": rowsBytes(tRows)}},
		{"SELECT * FROM t a JOIN d b ON a.ki = b.ki", map[string]int64{"Hash Match": -1}},
		{"SELECT * FROM t a FULL OUTER JOIN d b ON a.ks = b.ks AND a.v < b.v", map[string]int64{"Hash Match": -1}},
		{"SELECT TOP 1000 * FROM t ORDER BY u", map[string]int64{"Sort": rowsBytes(tRows), "Top": rowsBytes(tRows)}},
		{"SELECT TOP 5 * FROM d ORDER BY u", map[string]int64{"Clustered Index Scan": rowsBytes(dRows), "Sort": -1, "Top": -1}},
	} {
		p := compileLive(t, res, tc.sql)
		prog := &Progress{}
		ctx := &ExecContext{Progress: prog}
		r, err := p.Execute(ctx)
		if err != nil {
			t.Fatalf("%s: %v", tc.sql, err)
		}
		for _, tn := range flattenTrace(p, ctx) {
			if want, ok := tc.want[tn.PhysicalOp]; ok {
				if want < 0 {
					want = rowsBytes(r.Rows)
				}
				if tn.Bytes != want {
					t.Errorf("%s: %s reported %d bytes, a walk measures %d", tc.sql, tn.PhysicalOp, tn.Bytes, want)
				}
			}
		}
		// Every operator output, the ones the plan tree splices out included.
		var total int64
		for _, a := range ctx.tracer.stats {
			total += a.Bytes
		}
		if got := prog.Bytes.Load(); got != total {
			t.Errorf("%s: Progress.Bytes %d, traced total %d", tc.sql, got, total)
		}
		if got, want := prog.Mem.Load(), rowsBytes(r.Rows); got != want {
			t.Errorf("%s: %d bytes still charged after execution, want the result's %d", tc.sql, got, want)
		}
	}
}

// keyFuzzValue decodes one value of every kind from a tag and payloads.
func keyFuzzValue(tag uint8, i int64, f float64, s string) sqltypes.Value {
	switch tag % 7 {
	case 0:
		return sqltypes.NewInt(i)
	case 1:
		return sqltypes.NewFloat(f)
	case 2:
		return sqltypes.NewString(s)
	case 3:
		return sqltypes.NewDateTime(time.Unix(i%(1<<40), int64(uint32(i>>40))%1e9))
	case 4:
		return sqltypes.NewBool(i&1 == 1)
	case 5:
		return sqltypes.NewFloat(float64(i)) // a Float that is some Int's number
	}
	return sqltypes.TypedNull(sqltypes.Int)
}

// FuzzKeyOrder pins keys.go to sqltypes on arbitrary value pairs: a column
// built from the two values orders them as SortCompare does and calls them
// equal exactly when their Value.Keys are; same-type key equality is
// Compare == 0 (NaN, which Compare ties with everything, keeps to itself);
// and probing the one-value column with the other value agrees with the key
// where the types share a class and never claims a match Compare denies.
func FuzzKeyOrder(f *testing.F) {
	f.Add(uint8(0), int64(1), 1.0, "a", uint8(1), int64(1), 1.0, "a")
	f.Add(uint8(0), int64(9007199254740993), 0.0, "", uint8(0), int64(9007199254740992), 0.0, "")
	f.Add(uint8(0), int64(9007199254740993), 0.0, "", uint8(5), int64(9007199254740992), 0.0, "")
	f.Add(uint8(1), int64(0), 1e-7, "", uint8(1), int64(0), 2e-7, "")
	f.Add(uint8(1), int64(0), math.NaN(), "", uint8(1), int64(0), math.Copysign(0, -1), "")
	f.Add(uint8(2), int64(0), 0.0, "a\x1f", uint8(2), int64(0), 0.0, "a")
	f.Add(uint8(2), int64(0), 0.0, "10", uint8(0), int64(10), 0.0, "")
	f.Add(uint8(3), int64(1)<<41|5, 0.0, "", uint8(3), int64(5), 0.0, "")
	f.Add(uint8(6), int64(0), 0.0, "", uint8(4), int64(1), 0.0, "")
	f.Fuzz(func(t *testing.T, ta uint8, ia int64, fa float64, sa string, tb uint8, ib int64, fb float64, sb string) {
		a, b := keyFuzzValue(ta, ia, fa, sa), keyFuzzValue(tb, ib, fb, sb)
		in := &relation{cols: []ColMeta{{Name: "x"}}, rows: []storage.Row{{a}, {b}}}
		col := func(_ *ExecContext, ev *Env) (sqltypes.Value, error) { return ev.row[0], nil }
		keys, err := buildKeys(&ExecContext{tracer: newTracer()}, &constantScanNode{}, in, nil, []exprFn{col}, nil)
		if err != nil {
			t.Fatal(err)
		}
		sign := func(c int) int {
			switch {
			case c < 0:
				return -1
			case c > 0:
				return 1
			}
			return 0
		}
		if got, want := keys.cols[0].cmp(0, 1), sqltypes.SortCompare(a, b); sign(got) != sign(want) {
			t.Fatalf("cmp(%v, %v) = %d, SortCompare = %d", a, b, got, want)
		}
		keyEq := a.Key() == b.Key()
		if got := keys.equal(0, 1); got != keyEq {
			t.Fatalf("equal(%v, %v) = %v, Key equality = %v", a, b, got, keyEq)
		}
		if keyEq && keys.hash(0) != keys.hash(1) {
			t.Fatalf("equal keys %v, %v hash apart", a, b)
		}
		isNaN := func(v sqltypes.Value) bool { return v.Type() == sqltypes.Float && math.IsNaN(v.Float()) }
		if c, ok := sqltypes.Compare(a, b); ok && a.Type() == b.Type() && !isNaN(a) && !isNaN(b) && keyEq != (c == 0) {
			t.Fatalf("Key equality of %v, %v = %v, Compare = %d", a, b, keyEq, c)
		}
		if two := (sqltypes.Value{}).AppendKey(a.AppendKey(nil)); !strings.HasPrefix(string(two), a.Key()) || len(two) != len(a.Key())+1 {
			t.Fatalf("key of %v is not self-delimiting", a)
		}
		if a.IsNull() || b.IsNull() {
			return
		}
		// Probe the column holding only a with b.
		one := &relation{cols: in.cols, rows: in.rows[:1]}
		keys, err = buildKeys(&ExecContext{tracer: newTracer()}, &constantScanNode{}, one, nil, []exprFn{col}, nil)
		if err != nil {
			t.Fatal(err)
		}
		row, ok := newRowTable(keys, 1).probe([]sqltypes.Value{b}, make([]probeKey, 1))
		c, comparable := sqltypes.Compare(a, b)
		switch hit := row == 0; {
		case !ok && hit:
			t.Fatalf("probe of [%v] with %v hit without ok", a, b)
		case keyEq && !hit:
			t.Fatalf("probe of [%v] with %v missed an equal key", a, b)
		case hit && !keyEq && !(comparable && c == 0):
			t.Fatalf("probe of [%v] with %v hit; keys differ and Compare = %d, %v", a, b, c, comparable)
		}
	})
}
