package engine

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"sqlshare/internal/sqlparser"
	"sqlshare/internal/sqltypes"
	"sqlshare/internal/storage"
)

// randomTable builds a deterministic random table for property tests.
func randomTable(t testing.TB, seed int64, rows int) (*storage.Table, MapResolver) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tbl := storage.NewTable("r", storage.Schema{
		{Name: "k", Type: sqltypes.Int},
		{Name: "grp", Type: sqltypes.String},
		{Name: "v", Type: sqltypes.Float},
	})
	groups := []string{"a", "b", "c", "d"}
	data := make([]storage.Row, rows)
	for i := range data {
		v := sqltypes.NewFloat(rng.Float64() * 100)
		if rng.Intn(10) == 0 {
			v = sqltypes.TypedNull(sqltypes.Float)
		}
		data[i] = storage.Row{
			sqltypes.NewInt(int64(rng.Intn(50))),
			sqltypes.NewString(groups[rng.Intn(len(groups))]),
			v,
		}
	}
	if err := tbl.Insert(data); err != nil {
		t.Fatal(err)
	}
	return tbl, MapResolver{Tables: map[string]*storage.Table{"r": tbl}}
}

// TestFilterMatchesBruteForce checks WHERE evaluation against a direct
// scan-and-test over many random tables and thresholds.
func TestFilterMatchesBruteForce(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		tbl, res := randomTable(t, seed, 60)
		threshold := float64(seed * 7 % 100)
		r := run(t, res, fmt.Sprintf("SELECT k FROM r WHERE v > %.4f", threshold))
		want := 0
		for _, row := range tbl.Scan() {
			if !row[2].IsNull() && row[2].Float() > threshold {
				want++
			}
		}
		if len(r.Rows) != want {
			t.Fatalf("seed %d: engine %d rows, brute force %d", seed, len(r.Rows), want)
		}
	}
}

// TestSeekEquivalentToScanPredicate: a seek on the clustered key returns
// the same rows as the unsargable spelling of the same predicate.
func TestSeekEquivalentToScanPredicate(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		_, res := randomTable(t, seed, 80)
		key := seed % 50
		viaSeek := run(t, res, fmt.Sprintf("SELECT * FROM r WHERE k = %d", key))
		// k + 0 = key is not sargable, so it runs as a scan predicate.
		viaScan := run(t, res, fmt.Sprintf("SELECT * FROM r WHERE k + 0 = %d", key))
		if len(viaSeek.Rows) != len(viaScan.Rows) {
			t.Fatalf("seed %d: seek %d vs scan %d rows", seed, len(viaSeek.Rows), len(viaScan.Rows))
		}
	}
}

// TestGroupByMatchesBruteForce checks SUM/COUNT per group.
func TestGroupByMatchesBruteForce(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		tbl, res := randomTable(t, seed, 70)
		r := run(t, res, "SELECT grp, COUNT(v) AS n, SUM(v) AS s FROM r GROUP BY grp ORDER BY grp")
		type agg struct {
			n int
			s float64
		}
		want := map[string]*agg{}
		for _, row := range tbl.Scan() {
			g := row[1].Str()
			if want[g] == nil {
				want[g] = &agg{}
			}
			if !row[2].IsNull() {
				want[g].n++
				want[g].s += row[2].Float()
			}
		}
		if len(r.Rows) != len(want) {
			t.Fatalf("seed %d: groups %d vs %d", seed, len(r.Rows), len(want))
		}
		for _, row := range r.Rows {
			w := want[row[0].Str()]
			if int(row[1].Int()) != w.n {
				t.Fatalf("seed %d grp %s: count %d vs %d", seed, row[0].Str(), row[1].Int(), w.n)
			}
			if diff := row[2].Float() - w.s; diff > 1e-6 || diff < -1e-6 {
				t.Fatalf("seed %d grp %s: sum %v vs %v", seed, row[0].Str(), row[2].Float(), w.s)
			}
		}
	}
}

// TestJoinMatchesBruteForce checks inner hash joins against nested loops
// done by hand.
func TestJoinMatchesBruteForce(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		tblA, _ := randomTable(t, seed, 30)
		tblB, _ := randomTable(t, seed+100, 30)
		res := MapResolver{Tables: map[string]*storage.Table{"a": tblA, "b": tblB}}
		r := run(t, res, "SELECT a.k FROM a JOIN b ON a.k = b.k")
		want := 0
		for _, ra := range tblA.Scan() {
			for _, rb := range tblB.Scan() {
				if c, ok := sqltypes.Compare(ra[0], rb[0]); ok && c == 0 {
					want++
				}
			}
		}
		if len(r.Rows) != want {
			t.Fatalf("seed %d: join %d vs brute %d", seed, len(r.Rows), want)
		}
	}
}

// TestLeftJoinRowAccounting: every left row appears at least once.
func TestLeftJoinRowAccounting(t *testing.T) {
	tblA, _ := randomTable(t, 1, 25)
	tblB, _ := randomTable(t, 2, 25)
	res := MapResolver{Tables: map[string]*storage.Table{"a": tblA, "b": tblB}}
	r := run(t, res, "SELECT a.k, b.k FROM a LEFT JOIN b ON a.k = b.k AND a.grp = b.grp")
	if len(r.Rows) < tblA.NumRows() {
		t.Fatalf("left join lost rows: %d < %d", len(r.Rows), tblA.NumRows())
	}
}

// TestUnionInvariants: |A UNION ALL B| = |A|+|B|; |A UNION B| <= that and
// has no duplicate rows.
func TestUnionInvariants(t *testing.T) {
	_, res := randomTable(t, 3, 40)
	all := run(t, res, "SELECT grp FROM r UNION ALL SELECT grp FROM r")
	if len(all.Rows) != 80 {
		t.Fatalf("union all rows = %d", len(all.Rows))
	}
	distinct := run(t, res, "SELECT grp FROM r UNION SELECT grp FROM r")
	if len(distinct.Rows) > len(all.Rows) {
		t.Fatal("UNION larger than UNION ALL")
	}
	seen := map[string]bool{}
	for _, row := range distinct.Rows {
		k := row[0].Key()
		if seen[k] {
			t.Fatalf("duplicate in UNION output: %v", row[0])
		}
		seen[k] = true
	}
}

// TestIntersectExceptPartition: INTERSECT ∪ EXCEPT = DISTINCT left side.
func TestIntersectExceptPartition(t *testing.T) {
	tblA, _ := randomTable(t, 5, 40)
	tblB, _ := randomTable(t, 6, 40)
	res := MapResolver{Tables: map[string]*storage.Table{"a": tblA, "b": tblB}}
	inter := run(t, res, "SELECT k FROM a INTERSECT SELECT k FROM b")
	except := run(t, res, "SELECT k FROM a EXCEPT SELECT k FROM b")
	left := run(t, res, "SELECT DISTINCT k FROM a")
	if len(inter.Rows)+len(except.Rows) != len(left.Rows) {
		t.Fatalf("partition broken: %d + %d != %d", len(inter.Rows), len(except.Rows), len(left.Rows))
	}
}

// TestTopNeverExceedsN and respects ordering.
func TestTopNeverExceedsN(t *testing.T) {
	_, res := randomTable(t, 7, 30)
	for _, n := range []int{0, 1, 5, 100} {
		r := run(t, res, fmt.Sprintf("SELECT TOP %d v FROM r ORDER BY v DESC", n))
		if len(r.Rows) > n {
			t.Fatalf("TOP %d returned %d", n, len(r.Rows))
		}
		for i := 1; i < len(r.Rows); i++ {
			if sqltypes.SortCompare(r.Rows[i-1][0], r.Rows[i][0]) < 0 {
				t.Fatal("TOP output not descending")
			}
		}
	}
}

// TestWindowSumEqualsGroupSum: the final running SUM per partition equals
// the GROUP BY SUM.
func TestWindowSumEqualsGroupSum(t *testing.T) {
	_, res := randomTable(t, 8, 50)
	grouped := run(t, res, "SELECT grp, SUM(v) AS s FROM r GROUP BY grp ORDER BY grp")
	windowed := run(t, res, "SELECT grp, SUM(v) OVER (PARTITION BY grp) AS s FROM r")
	perGroup := map[string]float64{}
	for _, row := range windowed.Rows {
		if !row[1].IsNull() {
			perGroup[row[0].Str()] = row[1].Float()
		}
	}
	for _, row := range grouped.Rows {
		if row[1].IsNull() {
			continue
		}
		if diff := perGroup[row[0].Str()] - row[1].Float(); diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("grp %s: window %v vs group %v", row[0].Str(), perGroup[row[0].Str()], row[1].Float())
		}
	}
}

// TestRowNumberIsPermutation: row numbers within a partition are 1..n.
func TestRowNumberIsPermutation(t *testing.T) {
	_, res := randomTable(t, 9, 40)
	r := run(t, res, "SELECT grp, ROW_NUMBER() OVER (PARTITION BY grp ORDER BY v) AS rk FROM r")
	seen := map[string]map[int64]bool{}
	counts := map[string]int{}
	for _, row := range r.Rows {
		g := row[0].Str()
		if seen[g] == nil {
			seen[g] = map[int64]bool{}
		}
		rk := row[1].Int()
		if seen[g][rk] {
			t.Fatalf("duplicate rank %d in %s", rk, g)
		}
		seen[g][rk] = true
		counts[g]++
	}
	for g, n := range counts {
		for i := int64(1); i <= int64(n); i++ {
			if !seen[g][i] {
				t.Fatalf("missing rank %d in %s", i, g)
			}
		}
	}
}

// TestDistinctIdempotent: DISTINCT twice equals DISTINCT once.
func TestDistinctIdempotent(t *testing.T) {
	_, res := randomTable(t, 10, 40)
	once := run(t, res, "SELECT DISTINCT grp FROM r")
	twice := run(t, res, "SELECT DISTINCT grp FROM (SELECT DISTINCT grp FROM r) AS s")
	if len(once.Rows) != len(twice.Rows) {
		t.Fatalf("distinct not idempotent: %d vs %d", len(once.Rows), len(twice.Rows))
	}
}

// ---------------------------------------------------------------- misc

func TestHavingWithoutGroupBy(t *testing.T) {
	_, res := randomTable(t, 11, 30)
	r := run(t, res, "SELECT COUNT(*) AS n FROM r HAVING COUNT(*) > 5")
	if len(r.Rows) != 1 {
		t.Fatalf("having over scalar agg: %v", r.Rows)
	}
	r = run(t, res, "SELECT COUNT(*) AS n FROM r HAVING COUNT(*) > 500")
	if len(r.Rows) != 0 {
		t.Fatalf("failed having should drop the row: %v", r.Rows)
	}
}

func TestEmptyTableBehaviour(t *testing.T) {
	empty := storage.NewTable("e", storage.Schema{
		{Name: "a", Type: sqltypes.Int}, {Name: "s", Type: sqltypes.String},
	})
	res := MapResolver{Tables: map[string]*storage.Table{"e": empty}}
	if r := run(t, res, "SELECT * FROM e"); len(r.Rows) != 0 {
		t.Fatal("empty scan")
	}
	r := run(t, res, "SELECT COUNT(*), SUM(a), MIN(s) FROM e")
	if r.Rows[0][0].Int() != 0 || !r.Rows[0][1].IsNull() || !r.Rows[0][2].IsNull() {
		t.Fatalf("empty aggregates: %v", r.Rows[0])
	}
	if r := run(t, res, "SELECT a, COUNT(*) FROM e GROUP BY a"); len(r.Rows) != 0 {
		t.Fatal("empty group by should produce no rows")
	}
	if r := run(t, res, "SELECT ROW_NUMBER() OVER (ORDER BY a) AS rk FROM e"); len(r.Rows) != 0 {
		t.Fatal("window over empty input")
	}
}

func TestStddevAndVariance(t *testing.T) {
	tbl := storage.NewTable("s", storage.Schema{{Name: "x", Type: sqltypes.Float}})
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		if err := tbl.Insert([]storage.Row{{sqltypes.NewFloat(v)}}); err != nil {
			t.Fatal(err)
		}
	}
	res := MapResolver{Tables: map[string]*storage.Table{"s": tbl}}
	r := run(t, res, "SELECT STDEVP(x), VARP(x), STDEV(x) FROM s")
	if got := r.Rows[0][0].Float(); got < 1.99 || got > 2.01 {
		t.Errorf("stdevp = %v, want 2", got)
	}
	if got := r.Rows[0][1].Float(); got < 3.99 || got > 4.01 {
		t.Errorf("varp = %v, want 4", got)
	}
	if got := r.Rows[0][2].Float(); got < 2.13 || got > 2.15 {
		t.Errorf("stdev = %v, want ~2.138", got)
	}
}

func TestOrderByMultipleKeysMixedDirections(t *testing.T) {
	_, res := randomTable(t, 12, 40)
	r := run(t, res, "SELECT grp, v FROM r ORDER BY grp ASC, v DESC")
	for i := 1; i < len(r.Rows); i++ {
		prev, cur := r.Rows[i-1], r.Rows[i]
		gc := sqltypes.SortCompare(prev[0], cur[0])
		if gc > 0 {
			t.Fatal("primary key order violated")
		}
		if gc == 0 && sqltypes.SortCompare(prev[1], cur[1]) < 0 {
			t.Fatal("secondary descending order violated")
		}
	}
}

func TestNestedSubqueryDepth(t *testing.T) {
	_, res := randomTable(t, 13, 20)
	sql := "SELECT k, grp, v FROM r"
	for i := 0; i < 12; i++ {
		sql = fmt.Sprintf("SELECT k, grp, v FROM (%s) AS s%d WHERE v IS NOT NULL", sql, i)
	}
	r := run(t, res, sql)
	if len(r.Cols) != 3 {
		t.Fatalf("deep nesting cols = %v", r.ColumnNames())
	}
}

func TestCaseInsensitiveIdentifiers(t *testing.T) {
	_, res := randomTable(t, 14, 10)
	r := run(t, res, "SELECT GRP, V FROM r WHERE K >= 0")
	if len(r.Cols) != 2 {
		t.Fatalf("case-insensitive resolution failed: %v", r.ColumnNames())
	}
}

func TestSelfJoinWithAliases(t *testing.T) {
	_, res := randomTable(t, 15, 15)
	r := run(t, res, "SELECT x.k, y.k FROM r AS x JOIN r AS y ON x.k = y.k WHERE x.grp = 'a' AND y.grp = 'b'")
	for _, row := range r.Rows {
		if c, ok := sqltypes.Compare(row[0], row[1]); !ok || c != 0 {
			t.Fatalf("self-join key mismatch: %v", row)
		}
	}
}

func TestCorrelatedSubqueryInSelectList(t *testing.T) {
	_, res := randomTable(t, 16, 25)
	r := run(t, res, `SELECT grp, (SELECT COUNT(*) FROM r AS i WHERE i.grp = o.grp) AS n FROM r AS o`)
	counts := map[string]int64{}
	for _, row := range r.Rows {
		counts[row[0].Str()] = row[1].Int()
	}
	check := run(t, res, "SELECT grp, COUNT(*) AS n FROM r GROUP BY grp")
	for _, row := range check.Rows {
		if counts[row[0].Str()] != row[1].Int() {
			t.Fatalf("correlated count mismatch for %s: %d vs %d",
				row[0].Str(), counts[row[0].Str()], row[1].Int())
		}
	}
}

func TestExpressionErrorsSurface(t *testing.T) {
	_, res := randomTable(t, 17, 10)
	cases := []string{
		"SELECT k / 0 FROM r",
		"SELECT UNKNOWN_FUNC(k) FROM r",
		"SELECT SUBSTRING(grp) FROM r",           // wrong arity
		"SELECT COUNT(*) + MAX(COUNT(*)) FROM r", // nested aggregate is an unknown-column error at best
	}
	for _, sql := range cases {
		if _, err := Query(sql, res, nil); err == nil {
			t.Errorf("%q should fail", sql)
		}
	}
}

func TestPlanOpsStableAcrossRuns(t *testing.T) {
	_, res := randomTable(t, 18, 30)
	q := sqlparser.MustParse("SELECT grp, COUNT(*) FROM r WHERE k > 10 GROUP BY grp ORDER BY grp")
	p1, err := Compile(q, res)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Compile(q, res)
	if err != nil {
		t.Fatal(err)
	}
	if planOps(p1.Root) != planOps(p2.Root) {
		t.Fatalf("plans differ:\n%s\n%s", planOps(p1.Root), planOps(p2.Root))
	}
	// And execution is deterministic.
	r1, err := p1.Execute(nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := p2.Execute(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Rows) != len(r2.Rows) {
		t.Fatal("nondeterministic results")
	}
	for i := range r1.Rows {
		for j := range r1.Rows[i] {
			if sqltypes.SortCompare(r1.Rows[i][j], r2.Rows[i][j]) != 0 {
				t.Fatalf("row %d differs", i)
			}
		}
	}
}

func TestStringsCoerceInComparisons(t *testing.T) {
	tbl := storage.NewTable("m", storage.Schema{{Name: "raw", Type: sqltypes.String}})
	for _, s := range []string{"10", "3", "oops", "25"} {
		if err := tbl.Insert([]storage.Row{{sqltypes.NewString(s)}}); err != nil {
			t.Fatal(err)
		}
	}
	res := MapResolver{Tables: map[string]*storage.Table{"m": tbl}}
	// Relaxed-schema data: numeric strings compare numerically; 'oops'
	// yields UNKNOWN and is filtered out rather than erroring.
	r := run(t, res, "SELECT raw FROM m WHERE raw > 5")
	if len(r.Rows) != 2 {
		t.Fatalf("coerced comparison rows = %d: %v", len(r.Rows), r.Rows)
	}
}

func TestWideRowProjection(t *testing.T) {
	cols := make(storage.Schema, 60)
	row := make(storage.Row, 60)
	for i := range cols {
		cols[i] = storage.Column{Name: fmt.Sprintf("c%02d", i), Type: sqltypes.Int}
		row[i] = sqltypes.NewInt(int64(i))
	}
	tbl := storage.NewTable("wide", cols)
	if err := tbl.Insert([]storage.Row{row}); err != nil {
		t.Fatal(err)
	}
	res := MapResolver{Tables: map[string]*storage.Table{"wide": tbl}}
	var sb strings.Builder
	sb.WriteString("SELECT ")
	for i := 0; i < 60; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "c%02d + 1 AS d%02d", i, i)
	}
	sb.WriteString(" FROM wide")
	r := run(t, res, sb.String())
	if len(r.Cols) != 60 || r.Rows[0][59].Int() != 60 {
		t.Fatalf("wide projection: %d cols", len(r.Cols))
	}
}

func TestWithCTE(t *testing.T) {
	_, res := randomTable(t, 20, 40)
	r := run(t, res, `
		WITH filtered AS (SELECT grp, v FROM r WHERE v IS NOT NULL),
		     tally AS (SELECT grp, COUNT(*) AS n, AVG(v) AS m FROM filtered GROUP BY grp)
		SELECT grp, n FROM tally WHERE n > 0 ORDER BY grp`)
	if len(r.Rows) == 0 || len(r.Cols) != 2 {
		t.Fatalf("cte result: %v", r.ColumnNames())
	}
	// Equivalent to the nested spelling.
	nested := run(t, res, `
		SELECT grp, n FROM (
			SELECT grp, COUNT(*) AS n, AVG(v) AS m FROM (
				SELECT grp, v FROM r WHERE v IS NOT NULL) AS filtered
			GROUP BY grp) AS tally
		WHERE n > 0 ORDER BY grp`)
	if len(nested.Rows) != len(r.Rows) {
		t.Fatalf("cte %d rows vs nested %d", len(r.Rows), len(nested.Rows))
	}
	for i := range r.Rows {
		for j := range r.Rows[i] {
			if sqltypes.SortCompare(r.Rows[i][j], nested.Rows[i][j]) != 0 {
				t.Fatalf("row %d differs", i)
			}
		}
	}
}

func TestWithCTEReferencedTwice(t *testing.T) {
	_, res := randomTable(t, 21, 20)
	r := run(t, res, `
		WITH base AS (SELECT k, v FROM r WHERE v IS NOT NULL)
		SELECT a.k FROM base AS a JOIN base AS b ON a.k = b.k`)
	if len(r.Cols) != 1 {
		t.Fatalf("cols = %v", r.ColumnNames())
	}
}

func TestRecursiveCTERejected(t *testing.T) {
	_, res := randomTable(t, 22, 10)
	if _, err := Query("WITH a AS (SELECT * FROM a) SELECT * FROM a", res, nil); err == nil {
		t.Fatal("self-referential CTE should error (recursion unsupported)")
	}
}

func TestCTEShadowsDataset(t *testing.T) {
	_, res := randomTable(t, 23, 10)
	// The CTE named r shadows the table r inside the body.
	out := run(t, res, "WITH r AS (SELECT 1 AS one) SELECT one FROM r")
	if len(out.Rows) != 1 || out.Rows[0][0].Int() != 1 {
		t.Fatalf("shadowing: %v", out.Rows)
	}
}

func TestTrigAndMathFunctions(t *testing.T) {
	_, res := randomTable(t, 24, 5)
	r := run(t, res, "SELECT PI(), SIN(0), COS(0), DEGREES(PI()), RADIANS(180.0), ATN2(1.0, 1.0) FROM r WHERE k = (SELECT MIN(k) FROM r)")
	if len(r.Rows) == 0 {
		t.Skip("no min row")
	}
	row := r.Rows[0]
	approx := func(got, want float64) bool { d := got - want; return d < 1e-9 && d > -1e-9 }
	if !approx(row[0].Float(), 3.141592653589793) {
		t.Errorf("pi = %v", row[0])
	}
	if !approx(row[1].Float(), 0) || !approx(row[2].Float(), 1) {
		t.Errorf("sin/cos: %v %v", row[1], row[2])
	}
	if !approx(row[3].Float(), 180) || !approx(row[4].Float(), 3.141592653589793) {
		t.Errorf("degrees/radians: %v %v", row[3], row[4])
	}
	if !approx(row[5].Float(), 0.7853981633974483) {
		t.Errorf("atn2: %v", row[5])
	}
}

func TestAsciiCharDatename(t *testing.T) {
	_, res := randomTable(t, 25, 3)
	r := run(t, res, "SELECT ASCII('A'), CHAR(66), DATENAME('month', '2014-03-05'), DATENAME('weekday', '2014-03-05')")
	row := r.Rows[0]
	if row[0].Int() != 65 || row[1].Str() != "B" {
		t.Errorf("ascii/char: %v %v", row[0], row[1])
	}
	if row[2].Str() != "March" || row[3].Str() != "Wednesday" {
		t.Errorf("datename: %v %v", row[2], row[3])
	}
}

// TestHaversineIdiom: the spherical-distance computation a spatial science
// workload writes by hand — exercising the trig vocabulary end to end.
func TestHaversineIdiom(t *testing.T) {
	tbl := storage.NewTable("pts", storage.Schema{
		{Name: "name", Type: sqltypes.String},
		{Name: "lat", Type: sqltypes.Float},
		{Name: "lon", Type: sqltypes.Float},
	})
	if err := tbl.Insert([]storage.Row{
		{sqltypes.NewString("seattle"), sqltypes.NewFloat(47.6), sqltypes.NewFloat(-122.3)},
		{sqltypes.NewString("portland"), sqltypes.NewFloat(45.5), sqltypes.NewFloat(-122.7)},
	}); err != nil {
		t.Fatal(err)
	}
	res := MapResolver{Tables: map[string]*storage.Table{"pts": tbl}}
	r := run(t, res, `
		SELECT a.name, b.name,
		       6371 * 2 * ASIN(SQRT(
		           SQUARE(SIN(RADIANS(b.lat - a.lat) / 2)) +
		           COS(RADIANS(a.lat)) * COS(RADIANS(b.lat)) *
		           SQUARE(SIN(RADIANS(b.lon - a.lon) / 2)))) AS km
		FROM pts AS a JOIN pts AS b ON a.lat < b.lat`)
	if len(r.Rows) != 1 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	km := r.Rows[0][2].Float()
	if km < 230 || km > 240 { // Seattle–Portland ≈ 234 km
		t.Errorf("haversine km = %v", km)
	}
}

// TestUnaliasedComputedItemsAreColumnN: an unaliased select item that is
// not a bare column is named Column<n> by its position, whether it is
// arithmetic, an aggregate, a group expression or a window function — never
// by the internal column the aggregation or window rewrite gave it. A view
// saved over such a query exposes that name.
func TestUnaliasedComputedItemsAreColumnN(t *testing.T) {
	res := testResolver(t)
	q, err := sqlparser.Parse("SELECT dept, COUNT(*), MAX(salary) FROM emp GROUP BY dept")
	if err != nil {
		t.Fatal(err)
	}
	res.Views["counts"] = q
	for sql, want := range map[string]string{
		"SELECT id + 1 FROM emp":   "Column1",
		"SELECT COUNT(*) FROM emp": "Column1",
		"SELECT dept, COUNT(*), SUM(salary) AS s FROM emp GROUP BY dept": "dept,Column2,s",
		"SELECT UPPER(dept) FROM emp GROUP BY UPPER(dept)":               "Column1",
		"SELECT id, ROW_NUMBER() OVER (ORDER BY id) FROM emp":            "id,Column2",
		"SELECT * FROM counts":                           "dept,Column2,Column3",
		"SELECT Column2 FROM counts WHERE Column3 > 250": "Column2",
	} {
		if got := strings.Join(run(t, res, sql).ColumnNames(), ","); got != want {
			t.Errorf("%s: columns %s, want %s", sql, got, want)
		}
	}
}
