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

// vecTestSetup shrinks segments so small tables span many of them, and
// restores everything (including the vectorized toggle) on cleanup.
func vecTestSetup(t testing.TB, segRows int) {
	t.Helper()
	prevSeg := storage.SetSegmentRows(segRows)
	prevVec := SetVectorizedEnabled(true)
	t.Cleanup(func() {
		storage.SetSegmentRows(prevSeg)
		SetVectorizedEnabled(prevVec)
	})
}

func TestExtractVecPreds(t *testing.T) {
	cols := []ColMeta{
		{Binding: "t", Name: "a", Type: sqltypes.Int},
		{Binding: "t", Name: "b", Type: sqltypes.String},
	}
	colA := &sqlparser.ColumnRef{Name: "a"}
	lit5 := &sqlparser.Literal{Val: sqltypes.NewInt(5)}
	lit9 := &sqlparser.Literal{Val: sqltypes.NewInt(9)}

	if ps, ok := extractVecPreds(&sqlparser.Binary{Op: "<", L: colA, R: lit5}, cols); !ok ||
		len(ps) != 1 || ps[0].col != 0 || ps[0].op != "<" {
		t.Fatalf("col<lit: got %v ok=%v", ps, ok)
	}
	// Literal on the left flips the comparison.
	if ps, ok := extractVecPreds(&sqlparser.Binary{Op: "<", L: lit5, R: colA}, cols); !ok || ps[0].op != ">" {
		t.Fatalf("lit<col should flip to >: got %v ok=%v", ps, ok)
	}
	// BETWEEN decomposes into >= lo AND <= hi.
	if ps, ok := extractVecPreds(&sqlparser.BetweenExpr{X: colA, Lo: lit5, Hi: lit9}, cols); !ok ||
		len(ps) != 2 || ps[0].op != ">=" || ps[1].op != "<=" {
		t.Fatalf("BETWEEN: got %v ok=%v", ps, ok)
	}
	// NOT BETWEEN is not decomposable under three-valued logic (one bound
	// Unknown and the other False must keep the row) and must not extract.
	if _, ok := extractVecPreds(&sqlparser.BetweenExpr{X: colA, Lo: lit5, Hi: lit9, Not: true}, cols); ok {
		t.Fatal("NOT BETWEEN must not vectorize")
	}
	if ps, ok := extractVecPreds(&sqlparser.IsNullExpr{X: colA, Not: true}, cols); !ok || ps[0].op != "isnotnull" {
		t.Fatalf("IS NOT NULL: got %v ok=%v", ps, ok)
	}
	// Unknown column (resolves outward / typo) must not extract.
	if _, ok := extractVecPreds(&sqlparser.Binary{Op: "=", L: &sqlparser.ColumnRef{Name: "zz"}, R: lit5}, cols); ok {
		t.Fatal("unresolvable column must not vectorize")
	}
	// Column-vs-column comparisons stay on the closure path.
	if _, ok := extractVecPreds(&sqlparser.Binary{Op: "=", L: colA, R: &sqlparser.ColumnRef{Name: "b"}}, cols); ok {
		t.Fatal("col=col must not vectorize")
	}
}

// vecDiffResolver builds a table designed to stress every kernel and
// coercion edge: ints and floats with NULLs, NaN and negative zero,
// numeric-looking and unparseable strings (dictionary and overflow
// cardinalities), datetimes, booleans, and an all-NULL column.
func vecDiffResolver(t testing.TB, rows int) MapResolver {
	t.Helper()
	rng := rand.New(rand.NewSource(77))
	tbl := storage.NewTable("mix", storage.Schema{
		{Name: "id", Type: sqltypes.Int},
		{Name: "n", Type: sqltypes.Int},
		{Name: "f", Type: sqltypes.Float},
		{Name: "s", Type: sqltypes.String},
		{Name: "big", Type: sqltypes.String},
		{Name: "b", Type: sqltypes.Bool},
		{Name: "d", Type: sqltypes.DateTime},
		{Name: "z", Type: sqltypes.Int},
	})
	var batch []storage.Row
	for i := 0; i < rows; i++ {
		n := sqltypes.NewInt(int64(rng.Intn(200) - 100))
		if rng.Intn(11) == 0 {
			n = sqltypes.TypedNull(sqltypes.Int)
		}
		var f sqltypes.Value
		switch rng.Intn(12) {
		case 0:
			f = sqltypes.NewFloat(math.NaN())
		case 1:
			f = sqltypes.NewFloat(math.Copysign(0, -1))
		case 2:
			f = sqltypes.TypedNull(sqltypes.Float)
		default:
			f = sqltypes.NewFloat(float64(rng.Intn(2000)-1000) / 16)
		}
		var s sqltypes.Value
		switch rng.Intn(4) {
		case 0:
			s = sqltypes.NewString(fmt.Sprintf("%d", rng.Intn(60)-30)) // parses numeric
		case 1:
			s = sqltypes.NewString(fmt.Sprintf("w%02d", rng.Intn(20))) // dictionary-sized
		case 2:
			s = sqltypes.NewString("2014-03-0" + fmt.Sprint(1+rng.Intn(9))) // parses datetime
		default:
			s = sqltypes.TypedNull(sqltypes.String)
		}
		batch = append(batch, storage.Row{
			sqltypes.NewInt(int64(i)),
			n,
			f,
			s,
			sqltypes.NewString(fmt.Sprintf("u%05d", rng.Intn(rows))), // overflows the dictionary
			sqltypes.NewBool(rng.Intn(2) == 0),
			sqltypes.NewDateTime(time.Date(2014, 1, 1+rng.Intn(400), 0, 0, 0, 0, time.UTC)),
			sqltypes.TypedNull(sqltypes.Int),
		})
	}
	if err := tbl.Insert(batch); err != nil {
		t.Fatal(err)
	}
	return MapResolver{Tables: map[string]*storage.Table{"mix": tbl}, Views: map[string]sqlparser.QueryExpr{}}
}

// vecDiffQueries hit every kernel/literal alignment, the zone-map rules,
// residual predicates, the fused projections and the fused scalar
// aggregates — each must be byte-identical with the row path.
var vecDiffQueries = []string{
	"SELECT id, n FROM mix WHERE n > 10",
	"SELECT id FROM mix WHERE n <= -50",
	"SELECT id FROM mix WHERE n BETWEEN -5 AND 5",
	"SELECT id FROM mix WHERE n = '7'",            // string literal vs int column
	"SELECT id FROM mix WHERE n > 'not a number'", // unparseable: constant false
	"SELECT id FROM mix WHERE f > 0",
	"SELECT id FROM mix WHERE f = 0",  // hits -0.0 rows too
	"SELECT id FROM mix WHERE f <> 0", // NaN compares equal to everything
	"SELECT id FROM mix WHERE s = 'w07'",
	"SELECT id FROM mix WHERE s > 'w'",
	"SELECT id FROM mix WHERE s < 12",                   // numeric literal vs string column: per-row parse
	"SELECT id FROM mix WHERE big >= 'u00900'",          // plain-encoded strings
	"SELECT id FROM mix WHERE b = 1",                    // bool as numeric
	"SELECT id FROM mix WHERE d >= '2014-06-01'",        // string literal vs datetime column
	"SELECT id FROM mix WHERE d < '2014-02-01 00:00'",   // another layout
	"SELECT id FROM mix WHERE z IS NULL",                // all-NULL column
	"SELECT id FROM mix WHERE z IS NOT NULL",            // always-empty
	"SELECT id FROM mix WHERE n IS NOT NULL AND f > 20", // two kernels
	"SELECT id FROM mix WHERE n > 0 AND f + 1 > n",      // kernel + residual closure
	"SELECT id, s FROM mix WHERE s IS NULL",
	"SELECT n, f FROM mix WHERE id >= 100 AND id < 500 AND n < 0", // seek + preds
	"SELECT COUNT(*) AS c FROM mix",
	"SELECT COUNT(n) AS c, SUM(n) AS s, AVG(n) AS a, MIN(n) AS lo, MAX(n) AS hi FROM mix",
	"SELECT SUM(f) AS s, AVG(f) AS a, MIN(f) AS lo, MAX(f) AS hi FROM mix", // NaN in the fold
	"SELECT MIN(s) AS lo, MAX(s) AS hi, COUNT(s) AS c FROM mix",
	"SELECT MIN(d) AS lo, MAX(d) AS hi FROM mix",
	"SELECT SUM(b) AS s FROM mix",                 // bool is numeric for SUM
	"SELECT COUNT(z) AS c, MIN(z) AS lo FROM mix", // all-NULL aggregate input
	"SELECT SUM(n) AS s FROM mix WHERE n BETWEEN 0 AND 40",
	"SELECT COUNT(*) AS c, AVG(f) AS a FROM mix WHERE f > 0 AND id % 2 = 0", // kernel + residual under fused agg
	"SELECT SUM(s) AS s FROM mix WHERE s < 100 AND s > -100",                // string args folded numerically
}

// TestVectorizedDifferential runs every differential query with the
// vectorized path off (ground truth) and on, and requires byte-identical
// results. The aggregate queries with errors must fail identically too.
func TestVectorizedDifferential(t *testing.T) {
	vecTestSetup(t, 32)
	res := vecDiffResolver(t, 1000)
	for _, sql := range vecDiffQueries {
		SetVectorizedEnabled(false)
		rowRes, rowErr := Query(sql, res, nil)
		SetVectorizedEnabled(true)
		vecRes, vecErr := Query(sql, res, nil)
		if (rowErr == nil) != (vecErr == nil) {
			t.Errorf("%s: outcome differs: row err=%v, vec err=%v", sql, rowErr, vecErr)
			continue
		}
		if rowErr != nil {
			if rowErr.Error() != vecErr.Error() {
				t.Errorf("%s: error text differs: row %q, vec %q", sql, rowErr, vecErr)
			}
			continue
		}
		if want, got := resultKey(rowRes), resultKey(vecRes); want != got {
			t.Errorf("%s: results differ\nrow path:\n%s\nvectorized:\n%s", sql, want, got)
		}
	}
}

// TestVectorizedDateTimeRange runs DATETIME predicates, keys and folds with
// the vectorized path off and on over a table whose segments hold Unix
// nanoseconds where every value fits them and fall back to values where one
// does not (years 0001 and 9999), against literals on both sides of the
// nanosecond range: results must be byte-identical.
func TestVectorizedDateTimeRange(t *testing.T) {
	vecTestSetup(t, 4)
	tbl := storage.NewTable("dt", storage.Schema{
		{Name: "id", Type: sqltypes.Int},
		{Name: "d", Type: sqltypes.DateTime},
	})
	days := []time.Time{
		time.Date(2014, 3, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2014, 3, 1, 0, 0, 0, 1, time.UTC),
		time.Date(1969, 12, 31, 23, 59, 59, 999999999, time.UTC),
		time.Date(1900, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(1, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(9999, 12, 31, 23, 59, 59, 0, time.UTC),
	}
	var batch []storage.Row
	for i := 0; i < 40; i++ {
		d := sqltypes.NewDateTime(days[i%len(days)].AddDate(0, 0, i/len(days)))
		switch {
		case i%7 == 0:
			d = sqltypes.TypedNull(sqltypes.DateTime)
		case i >= 24 && i%len(days) >= 4:
			d = sqltypes.NewDateTime(days[i%4].AddDate(0, 0, i))
		}
		batch = append(batch, storage.Row{sqltypes.NewInt(int64(i)), d})
	}
	if err := tbl.Insert(batch); err != nil {
		t.Fatal(err)
	}
	res := MapResolver{Tables: map[string]*storage.Table{"dt": tbl}, Views: map[string]sqlparser.QueryExpr{}}
	for _, sql := range []string{
		"SELECT id FROM dt WHERE d > '0001-01-01'",
		"SELECT id FROM dt WHERE d >= '0001-01-01'",
		"SELECT id FROM dt WHERE d < '9999-12-31'",
		"SELECT id FROM dt WHERE d <= '1000-01-01'",
		"SELECT id FROM dt WHERE d = '2014-03-01'",
		"SELECT id FROM dt WHERE d > '1969-12-31 23:59:59'",
		"SELECT id FROM dt WHERE d <> '1900-01-01'",
		"SELECT id, d FROM dt ORDER BY d, id",
		"SELECT d, COUNT(*) AS c FROM dt GROUP BY d",
		"SELECT MIN(d) AS lo, MAX(d) AS hi FROM dt",
		"SELECT a.id, b.id FROM dt a JOIN dt b ON a.d = b.d WHERE a.id < b.id",
	} {
		SetVectorizedEnabled(false)
		rowRes, rowErr := Query(sql, res, nil)
		SetVectorizedEnabled(true)
		vecRes, vecErr := Query(sql, res, nil)
		if rowErr != nil || vecErr != nil {
			t.Fatalf("%s: row err=%v, vec err=%v", sql, rowErr, vecErr)
		}
		if want, got := resultKey(rowRes), resultKey(vecRes); want != got {
			t.Errorf("%s: results differ\nrow path:\n%s\nvectorized:\n%s", sql, want, got)
		}
	}
}

// TestVectorizedDifferentialParallel re-runs the differential suite at
// DOP 8 with tiny morsels, exercising the segment-chunked parallel scan.
func TestVectorizedDifferentialParallel(t *testing.T) {
	vecTestSetup(t, 32)
	parallelTestSetup(t)
	res := vecDiffResolver(t, 1000)
	for _, sql := range vecDiffQueries {
		SetVectorizedEnabled(false)
		rowRes, rowErr := Query(sql, res, &ExecContext{DOP: 8})
		SetVectorizedEnabled(true)
		vecRes, vecErr := Query(sql, res, &ExecContext{DOP: 8})
		if (rowErr == nil) != (vecErr == nil) {
			t.Errorf("%s: outcome differs at DOP 8: row err=%v, vec err=%v", sql, rowErr, vecErr)
			continue
		}
		if rowErr != nil {
			continue
		}
		if want, got := resultKey(rowRes), resultKey(vecRes); want != got {
			t.Errorf("%s: DOP 8 results differ\nrow path:\n%s\nvectorized:\n%s", sql, want, got)
		}
	}
}

// TestZoneMapSkipsSegments checks that a selective predicate on a column
// correlated with the clustered order prunes most segments, that the
// skip/scan counts surface through both the execution's counters and the
// trace, and that pruning never changes the answer.
func TestZoneMapSkipsSegments(t *testing.T) {
	vecTestSetup(t, 64)
	tbl := storage.NewTable("seq", storage.Schema{
		{Name: "id", Type: sqltypes.Int},
		{Name: "v", Type: sqltypes.Int},
	})
	var rows []storage.Row
	for i := 0; i < 4096; i++ {
		rows = append(rows, storage.Row{sqltypes.NewInt(int64(i)), sqltypes.NewInt(int64(i * 3))})
	}
	if err := tbl.Insert(rows); err != nil {
		t.Fatal(err)
	}
	res := MapResolver{Tables: map[string]*storage.Table{"seq": tbl}, Views: map[string]sqlparser.QueryExpr{}}

	// Predicate on v (not the leading clustered column, so no seek), but v
	// follows the clustered order, so zone maps prune almost everything.
	sql := "SELECT id FROM seq WHERE v BETWEEN 600 AND 660"
	q, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(q, res)
	if err != nil {
		t.Fatal(err)
	}
	if !scanHasVectorized(p.Root) {
		t.Fatal("scan not marked vectorized in plan props")
	}
	ctx := &ExecContext{}
	out, err := p.Execute(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) != 21 {
		t.Fatalf("got %d rows, want 21", len(out.Rows))
	}
	scanned, skipped := ctx.Segments()
	if skipped == 0 || scanned == 0 || skipped < scanned {
		t.Fatalf("zone maps did not prune: scanned=%d skipped=%d", scanned, skipped)
	}
	var traceSkipped int64
	for _, tn := range flattenTrace(p, ctx) {
		traceSkipped += tn.SegmentsSkipped
	}
	if traceSkipped != skipped {
		t.Fatalf("trace skip count %d != execution skip count %d", traceSkipped, skipped)
	}
}

func scanHasVectorized(n Node) bool {
	if sc, ok := n.(*scanNode); ok && sc.props.Vectorized {
		return true
	}
	for _, c := range n.Children() {
		if scanHasVectorized(c) {
			return true
		}
	}
	return false
}

// TestVectorizedToggleInvisible: flipping the toggle between executions of
// the SAME compiled plan must not change results (the static Vectorized
// annotation describes the plan's capability, not the toggle).
func TestVectorizedToggleInvisible(t *testing.T) {
	vecTestSetup(t, 32)
	res := vecDiffResolver(t, 500)
	q, err := sqlparser.Parse("SELECT id, n, f FROM mix WHERE n > 0 AND f > 0")
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(q, res)
	if err != nil {
		t.Fatal(err)
	}
	SetVectorizedEnabled(true)
	on, err := p.Execute(nil)
	if err != nil {
		t.Fatal(err)
	}
	SetVectorizedEnabled(false)
	off, err := p.Execute(nil)
	if err != nil {
		t.Fatal(err)
	}
	if resultKey(on) != resultKey(off) {
		t.Fatal("same compiled plan produced different results across toggle flip")
	}
}

// TestVectorizedFusedAggTrace: the fused scalar aggregation skips the
// intermediate scan relation, but the trace must still report the scan's
// survivors and one execution, identically to the row path.
func TestVectorizedFusedAggTrace(t *testing.T) {
	vecTestSetup(t, 32)
	res := vecDiffResolver(t, 800)
	sql := "SELECT COUNT(*) AS c, SUM(n) AS s FROM mix WHERE n > 0"

	shape := func() string {
		q, err := sqlparser.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		p, err := Compile(q, res)
		if err != nil {
			t.Fatal(err)
		}
		ctx := &ExecContext{}
		if _, err := p.Execute(ctx); err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		traceShape(flattenTrace(p, ctx), &b)
		return b.String()
	}
	SetVectorizedEnabled(false)
	want := shape()
	SetVectorizedEnabled(true)
	got := shape()
	if want != got {
		t.Fatalf("fused aggregation changed the trace shape\nrow path:\n%s\nvectorized:\n%s", want, got)
	}
}

// TestFusedScanReportsBytes: a scan fused into a scalar aggregate reports
// its survivors' logical size — in the trace and in Progress.Bytes — as the
// same plan's unfused scan does, over whole segments and the partial last
// one, with and without a predicate.
func TestFusedScanReportsBytes(t *testing.T) {
	vecTestSetup(t, 32)
	res := vecDiffResolver(t, 810) // 25 whole segments and one of 10 rows
	for _, sql := range []string{
		"SELECT COUNT(*) FROM mix",
		"SELECT COUNT(*) FROM mix WHERE n > 0",
		"SELECT COUNT(*), SUM(n) FROM mix WHERE s = 'a' OR f > 1",
	} {
		q, err := sqlparser.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		p, err := Compile(q, res)
		if err != nil {
			t.Fatal(err)
		}
		run := func() (scanBytes, progress int64) {
			ctx := &ExecContext{Progress: &Progress{}}
			if _, err := p.Execute(ctx); err != nil {
				t.Fatal(err)
			}
			for _, tn := range flattenTrace(p, ctx) {
				if tn.Object != "" {
					scanBytes = tn.Bytes
				}
			}
			return scanBytes, ctx.Progress.Bytes.Load()
		}
		SetVectorizedEnabled(false)
		wantScan, wantProgress := run()
		SetVectorizedEnabled(true)
		gotScan, gotProgress := run()
		if wantScan == 0 || gotScan != wantScan || gotProgress != wantProgress {
			t.Errorf("%s: fused scan reports %d bytes (progress %d), unfused %d (progress %d)",
				sql, gotScan, gotProgress, wantScan, wantProgress)
		}
	}
}
