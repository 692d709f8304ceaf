// Benchmarks regenerating every table and figure of the paper's evaluation
// (DESIGN.md's per-experiment index maps each to its section), plus
// platform micro-benchmarks for the design choices of §3. The corpora are
// generated once per scale and shared; each benchmark iteration recomputes
// the experiment's analysis, so `go test -bench .` both measures the
// analysis cost and exercises every experiment end to end.
package sqlshare

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"sqlshare/internal/catalog"
	"sqlshare/internal/engine"
	"sqlshare/internal/history"
	"sqlshare/internal/ingest"
	"sqlshare/internal/plan"
	"sqlshare/internal/synth"
	"sqlshare/internal/workload"
)

// benchScale keeps the default `go test -bench .` run fast; the
// cmd/workload-report binary raises scale toward the paper's.
const (
	benchSQLShareQueries = 1200
	benchSQLShareUsers   = 40
	benchSDSSQueries     = 6000
)

var (
	benchOnce     sync.Once
	benchSQLShare *workload.Corpus
	benchGenRep   *synth.GenReport
	benchSDSS     *workload.Corpus
)

func corpora(b *testing.B) (*workload.Corpus, *workload.Corpus, *synth.GenReport) {
	b.Helper()
	benchOnce.Do(func() {
		var err error
		benchSQLShare, benchGenRep, err = synth.GenerateSQLShare(synth.SQLShareConfig{
			Seed: 1, Users: benchSQLShareUsers, TargetQueries: benchSQLShareQueries,
		})
		if err != nil {
			panic(err)
		}
		benchSDSS, err = synth.GenerateSDSS(synth.SDSSConfig{Seed: 1, Queries: benchSDSSQueries})
		if err != nil {
			panic(err)
		}
	})
	return benchSQLShare, benchSDSS, benchGenRep
}

func BenchmarkTable2aWorkloadMetadata(b *testing.B) {
	ss, _, _ := corpora(b)
	b.ResetTimer()
	var s workload.Summary
	for i := 0; i < b.N; i++ {
		s = workload.Summarize(ss)
	}
	b.ReportMetric(float64(s.Queries), "queries")
	b.ReportMetric(float64(s.Views), "views")
}

func BenchmarkTable2bQueryMetadata(b *testing.B) {
	ss, _, _ := corpora(b)
	b.ResetTimer()
	var q workload.QuerySummary
	for i := 0; i < b.N; i++ {
		q = workload.SummarizeQueries(ss)
	}
	b.ReportMetric(q.MeanLength, "mean-len")
	b.ReportMetric(q.MeanDistinctOperators, "mean-distinct-ops")
}

func BenchmarkTable3WorkloadEntropy(b *testing.B) {
	ss, sdss, _ := corpora(b)
	b.ResetTimer()
	var eq, es workload.Entropy
	for i := 0; i < b.N; i++ {
		eq = workload.ComputeEntropy(ss)
		es = workload.ComputeEntropy(sdss)
	}
	b.ReportMetric(eq.StringDistinctPct, "sqlshare-distinct-%")
	b.ReportMetric(es.StringDistinctPct, "sdss-distinct-%")
}

func BenchmarkTable4ExpressionOperators(b *testing.B) {
	ss, sdss, _ := corpora(b)
	b.ResetTimer()
	var nq, ns int
	for i := 0; i < b.N; i++ {
		nq = workload.DistinctExpressionOperators(ss)
		ns = workload.DistinctExpressionOperators(sdss)
		workload.ComputeExpressionFrequency(ss, 11)
	}
	b.ReportMetric(float64(nq), "sqlshare-expr-ops")
	b.ReportMetric(float64(ns), "sdss-expr-ops")
}

func BenchmarkFigure4QueriesPerTable(b *testing.B) {
	ss, _, _ := corpora(b)
	b.ResetTimer()
	var f workload.QueriesPerTable
	for i := 0; i < b.N; i++ {
		f = workload.ComputeQueriesPerTable(ss)
	}
	b.ReportMetric(float64(f.MostQueried), "max-queries-per-table")
}

func BenchmarkFigure6ViewDepth(b *testing.B) {
	ss, _, _ := corpora(b)
	b.ResetTimer()
	var h workload.ViewDepthHistogram
	for i := 0; i < b.N; i++ {
		h = workload.ComputeViewDepth(ss, 100)
	}
	b.ReportMetric(float64(h.D1to3+h.D4to6+h.D7plus), "users-with-chains")
}

func BenchmarkFigure7QueryLength(b *testing.B) {
	ss, sdss, _ := corpora(b)
	b.ResetTimer()
	var hq, hs workload.LengthHistogram
	for i := 0; i < b.N; i++ {
		hq = workload.ComputeLengthHistogram(ss)
		hs = workload.ComputeLengthHistogram(sdss)
	}
	b.ReportMetric(float64(hq.MaxLength), "sqlshare-max-len")
	b.ReportMetric(float64(hs.MaxLength), "sdss-max-len")
}

func BenchmarkFigure8DistinctOperators(b *testing.B) {
	ss, sdss, _ := corpora(b)
	b.ResetTimer()
	var hq, hs workload.DistinctOpsHistogram
	for i := 0; i < b.N; i++ {
		hq = workload.ComputeDistinctOps(ss)
		hs = workload.ComputeDistinctOps(sdss)
	}
	b.ReportMetric(hq.Top10PercentMean, "sqlshare-top-decile")
	b.ReportMetric(hs.Top10PercentMean, "sdss-top-decile")
}

func BenchmarkFigure9OperatorFrequencySQLShare(b *testing.B) {
	ss, _, _ := corpora(b)
	exclude := map[string]bool{"Clustered Index Scan": true}
	b.ResetTimer()
	var freqs []workload.OperatorFrequency
	for i := 0; i < b.N; i++ {
		freqs = workload.ComputeOperatorFrequency(ss, exclude, 10)
	}
	if len(freqs) > 0 {
		b.ReportMetric(freqs[0].Percent, "top-op-%")
	}
}

func BenchmarkFigure10OperatorFrequencySDSS(b *testing.B) {
	_, sdss, _ := corpora(b)
	b.ResetTimer()
	var freqs []workload.OperatorFrequency
	for i := 0; i < b.N; i++ {
		freqs = workload.ComputeOperatorFrequency(sdss, nil, 10)
	}
	if len(freqs) > 0 {
		b.ReportMetric(freqs[0].Percent, "top-op-%")
	}
}

func BenchmarkFigure11DatasetLifetime(b *testing.B) {
	ss, _, _ := corpora(b)
	b.ResetTimer()
	var within, total int
	for i := 0; i < b.N; i++ {
		lifetimes := workload.ComputeLifetimes(ss, 12)
		within, total = workload.LifetimeSummary(lifetimes, 10)
	}
	if total > 0 {
		b.ReportMetric(100*float64(within)/float64(total), "short-lived-%")
	}
}

func BenchmarkFigure12TableCoverage(b *testing.B) {
	ss, _, _ := corpora(b)
	b.ResetTimer()
	var curves map[string][]workload.CoveragePoint
	for i := 0; i < b.N; i++ {
		curves = workload.ComputeCoverage(ss, 12)
	}
	b.ReportMetric(float64(len(curves)), "users")
}

func BenchmarkFigure13UserClassification(b *testing.B) {
	ss, _, _ := corpora(b)
	b.ResetTimer()
	var counts map[workload.UserClass]int
	for i := 0; i < b.N; i++ {
		counts = workload.ClassCounts(workload.ClassifyUsers(ss))
	}
	b.ReportMetric(float64(counts[workload.Exploratory]), "exploratory-users")
}

func BenchmarkSection51SchematizationIdioms(b *testing.B) {
	ss, _, rep := corpora(b)
	b.ResetTimer()
	var idioms workload.SchematizationIdioms
	for i := 0; i < b.N; i++ {
		idioms = workload.ComputeSchematizationIdioms(ss)
	}
	b.ReportMetric(float64(idioms.NullInjection), "null-injection-views")
	b.ReportMetric(float64(rep.UploadsAllDefaulted), "headerless-uploads")
}

func BenchmarkSection52Sharing(b *testing.B) {
	ss, _, _ := corpora(b)
	b.ResetTimer()
	var s workload.SharingStats
	for i := 0; i < b.N; i++ {
		s = workload.ComputeSharingStats(ss)
	}
	b.ReportMetric(s.PublicPct, "public-%")
	b.ReportMetric(s.CrossOwnerQueries, "cross-owner-q-%")
}

func BenchmarkSection53SQLFeatures(b *testing.B) {
	ss, _, _ := corpora(b)
	b.ResetTimer()
	var f workload.SQLFeatureStats
	for i := 0; i < b.N; i++ {
		f = workload.ComputeSQLFeatures(ss)
	}
	b.ReportMetric(f.SortingPct, "sorting-%")
	b.ReportMetric(f.WindowPct, "window-%")
}

func BenchmarkReuseEstimation(b *testing.B) {
	ss, sdss, _ := corpora(b)
	b.ResetTimer()
	var rq, rs workload.ReuseResult
	for i := 0; i < b.N; i++ {
		rq = workload.EstimateReuse(ss)
		rs = workload.EstimateReuse(sdss)
	}
	b.ReportMetric(rq.SavedPct, "sqlshare-saved-%")
	b.ReportMetric(rs.SavedPct, "sdss-saved-%")
}

func BenchmarkMozafariDiversity(b *testing.B) {
	ss, _, _ := corpora(b)
	b.ResetTimer()
	var divs []workload.UserDiversity
	for i := 0; i < b.N; i++ {
		divs = workload.ComputeUserDiversity(ss, 20, 4)
	}
	b.ReportMetric(float64(len(divs)), "users")
}

// ---------------------------------------------------------------------
// Platform micro-benchmarks: the §3 design choices in isolation.

// BenchmarkIngestRelaxedSchema measures the full relaxed-schema pipeline
// (delimiter inference, header detection, type inference, load) on a
// 1,000-row dirty CSV.
func BenchmarkIngestRelaxedSchema(b *testing.B) {
	var sb strings.Builder
	sb.WriteString("ts,station,depth,value\n")
	for i := 0; i < 1000; i++ {
		val := "12.5"
		if i%10 == 0 {
			val = "-999"
		}
		fmt.Fprintf(&sb, "2014-03-%02d 00:00:00,st%02d,%d.5,%s\n", 1+i%28, i%8, i%100, val)
	}
	data := sb.String()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := New()
		if _, err := p.CreateUser("u", ""); err != nil {
			b.Fatal(err)
		}
		if _, _, err := p.UploadString("u", "d", data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQuerySeekVsScan contrasts the mandatory clustered index's seek
// path against a full scan with a residual predicate (§3.4).
func BenchmarkQuerySeekVsScan(b *testing.B) {
	p := New()
	if _, err := p.CreateUser("u", ""); err != nil {
		b.Fatal(err)
	}
	var sb strings.Builder
	sb.WriteString("id,v\n")
	for i := 0; i < 5000; i++ {
		fmt.Fprintf(&sb, "%d,%d\n", i, i%97)
	}
	if _, _, err := p.UploadString("u", "big", sb.String()); err != nil {
		b.Fatal(err)
	}
	b.Run("seek", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := p.Query("u", "SELECT * FROM big WHERE id = 2500"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := p.Query("u", "SELECT * FROM big WHERE v = 13"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchScaling runs sql over an n-row table at 800 and 8,000 rows and reports
// ns per table row: a linear operator shows the same figure at both sizes, a
// quadratic one ten times more at the larger.
func benchScaling(b *testing.B, sql string) {
	for _, n := range []int{800, 8000} {
		b.Run(fmt.Sprintf("rows-%d", n), func(b *testing.B) {
			p := New()
			if _, err := p.CreateUser("u", ""); err != nil {
				b.Fatal(err)
			}
			var sb strings.Builder
			sb.WriteString("id,v\n")
			for i := 0; i < n; i++ {
				fmt.Fprintf(&sb, "%d,%d.5\n", i, (i*7919)%n)
			}
			if _, _, err := p.UploadString("u", "t", sb.String()); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.Query("u", sql); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/row")
		})
	}
}

// BenchmarkRunningTotal is the paper mix's window_running shape: a running
// SUM over the whole table (§5.3 window functions).
func BenchmarkRunningTotal(b *testing.B) {
	benchScaling(b, "SELECT id, SUM(v) OVER (ORDER BY v) AS running_total FROM t")
}

// BenchmarkCorrelatedExists is the paper mix's subquery_exists shape: a
// self-correlated EXISTS with one inequality.
func BenchmarkCorrelatedExists(b *testing.B) {
	benchScaling(b, "SELECT * FROM t AS o WHERE EXISTS (SELECT 1 FROM t AS i WHERE i.v > o.v)")
}

// keyOpsRows is the size of the analytic workload's fact table (bench/).
const keyOpsRows = 24000

var (
	keyOpsOnce     sync.Once
	keyOpsPlatform *Platform
)

// keyOpsTables loads, once, a 24,000-row fact table shaped like the
// benchmark's (a unique id, a 1,000-value Int key, a FLOAT measure in
// sixty-fourths, an 8-value string) and its 1,000-row dimension table.
func keyOpsTables(b testing.TB) *Platform {
	b.Helper()
	keyOpsOnce.Do(func() {
		p := New()
		if _, err := p.CreateUser("u", ""); err != nil {
			panic(err)
		}
		rng := rand.New(rand.NewSource(1))
		regions := []string{"north", "south", "east", "west", "arctic", "tropic", "coast", "inland"}
		var facts, dims strings.Builder
		facts.WriteString("id,dim_id,amount,region\n")
		for i := 0; i < keyOpsRows; i++ {
			fmt.Fprintf(&facts, "%d,%d,%v,%s\n", i, rng.Intn(1000), float64(rng.Intn(64000))/64, regions[rng.Intn(len(regions))])
		}
		dims.WriteString("dim_id,category\n")
		for i := 0; i < 1000; i++ {
			fmt.Fprintf(&dims, "%d,cat%02d\n", i, rng.Intn(20))
		}
		for name, csv := range map[string]string{"facts": facts.String(), "dims": dims.String()} {
			if _, _, err := p.UploadString("u", name, csv); err != nil {
				panic(err)
			}
		}
		keyOpsPlatform = p
	})
	return keyOpsPlatform
}

// benchKeyOp runs sql over the 24,000-row fact table the way the server runs
// a query (no result cache) and reports time and heap objects per fact row.
func benchKeyOp(b *testing.B, sql string) {
	p := keyOpsTables(b)
	opts := catalog.QueryOptions{NoCache: true}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := p.Catalog().QueryWithOptions("u", sql, opts); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/keyOpsRows, "ns/row")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N)/keyOpsRows, "allocs/row")
}

// The analytic workload's join_agg and topn shapes over keyOpsTables.
const (
	joinAggSQL = "SELECT d.category, COUNT(*) AS n, SUM(f.amount) AS s FROM facts AS f JOIN dims AS d ON f.dim_id = d.dim_id WHERE f.id >= 100 GROUP BY d.category ORDER BY d.category"
	topNSQL    = "SELECT TOP 100 id, amount FROM facts WHERE amount < 975 ORDER BY amount DESC, id"
)

// TestLateMaterializationAllocs: a hash join under an aggregate and a Top N
// over a column projection build no row per input row — the join emits row
// index pairs and the projection composes a column map, which the operators
// above read through a reused scratch row — so each query stays under 0.05
// heap allocations per fact row (building every joined and every projected
// row cost about one), run the way the server runs it, at DOP 1 and 2, with
// vectorized execution on and off.
func TestLateMaterializationAllocs(t *testing.T) {
	p := keyOpsTables(t)
	for _, q := range []struct{ name, sql string }{{"join_agg", joinAggSQL}, {"topn", topNSQL}} {
		for _, dop := range []int{1, 2} {
			for _, vec := range []bool{true, false} {
				prev := engine.SetVectorizedEnabled(vec)
				opts := catalog.QueryOptions{NoCache: true, Parallelism: dop}
				allocs := testing.AllocsPerRun(3, func() {
					if _, _, err := p.Catalog().QueryWithOptions("u", q.sql, opts); err != nil {
						t.Fatal(err)
					}
				})
				engine.SetVectorizedEnabled(prev)
				if perRow := allocs / keyOpsRows; perRow >= 0.05 {
					t.Errorf("%s (dop %d, vectorized %v): %.0f allocations = %.3f per fact row, want < 0.05",
						q.name, dop, vec, allocs, perRow)
				}
			}
		}
	}
}

// The key-consuming operators — the paper's Sort, Stream Aggregate and Hash
// Match (§5, Figure 9) — on the shapes of the analytic workload.
func BenchmarkSort(b *testing.B) {
	for _, c := range []struct{ name, order string }{
		{"int", "dim_id"}, {"string-lowcard", "region"}, {"float+int", "amount DESC, id"},
	} {
		b.Run(c.name, func(b *testing.B) { benchKeyOp(b, "SELECT id, amount FROM facts ORDER BY "+c.order) })
	}
}

func BenchmarkTopN(b *testing.B) {
	benchKeyOp(b, topNSQL)
}

func BenchmarkGroupBy(b *testing.B) {
	b.Run("low", func(b *testing.B) {
		benchKeyOp(b, "SELECT region, COUNT(*) AS n, SUM(amount) AS s FROM facts WHERE id >= 100 GROUP BY region ORDER BY region")
	})
	b.Run("high", func(b *testing.B) {
		benchKeyOp(b, "SELECT dim_id, COUNT(*) AS n, AVG(amount) AS a FROM facts WHERE id >= 100 GROUP BY dim_id ORDER BY dim_id")
	})
}

func BenchmarkHashJoinAgg(b *testing.B) {
	benchKeyOp(b, joinAggSQL)
}

// analyticPlatform loads, once, the tables of the benchmark's analytic
// workload (bench/gen_analytic.go): a 24,000-row facts table with a
// DATETIME ts and a tag of near-distinct strings, its 1,000-row dims table,
// and the three saved views stacked on facts.
var analyticPlatform = sync.OnceValue(func() *Platform {
	const rows, dimRows = 24000, 1000
	p := New()
	if _, err := p.CreateUser("an", ""); err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewSource(1))
	regions := []string{"north", "south", "east", "west", "arctic", "tropic", "coast", "inland"}
	var facts, dims strings.Builder
	facts.WriteString("id,dim_id,ts,amount,region,tag\n")
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&facts, "%d,%d,%s,%v,%s,tag-%d\n", i, rng.Intn(dimRows), analyticTimestamp(i),
			float64(rng.Intn(1000*64))/64, regions[rng.Intn(len(regions))], rng.Intn(1_000_000))
	}
	dims.WriteString("dim_id,category,weight\n")
	for i := 0; i < dimRows; i++ {
		fmt.Fprintf(&dims, "%d,cat%02d,%v\n", i, rng.Intn(20), float64(rng.Intn(10*64))/64)
	}
	for _, d := range []struct{ name, csv string }{{"facts", facts.String()}, {"dims", dims.String()}} {
		if _, _, err := p.UploadString("an", d.name, d.csv); err != nil {
			panic(err)
		}
	}
	for _, v := range []struct{ name, sql string }{
		{"facts_valid", "SELECT id, dim_id, ts, amount, region FROM [facts] WHERE amount >= 0"},
		{"facts_keyed", "SELECT id, dim_id, amount, region FROM [facts_valid] WHERE dim_id >= 0"},
		{"facts_report", "SELECT id, amount, region FROM [facts_keyed]"},
	} {
		if _, err := p.SaveView("an", v.name, v.sql, Meta{}); err != nil {
			panic(err)
		}
	}
	return p
})

// analyticTimestamp is the i-th minute after 2014-01-01, as ingest infers a
// DATETIME.
func analyticTimestamp(i int) string {
	return time.Date(2014, 1, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(i) * time.Minute).Format("2006-01-02 15:04:05")
}

// analyticShapes are the analytic workload's eight query shapes, each with
// one set of the literals the workload draws.
var analyticShapes = []struct{ name, sql string }{
	{"scan_agg", "SELECT COUNT(*) AS n, SUM(amount) AS s, AVG(amount) AS a FROM [facts] WHERE amount > 25.5"},
	{"range", "SELECT id, amount, region FROM [facts] WHERE ts >= '" + analyticTimestamp(10000) + "' AND ts < '" + analyticTimestamp(10400) + "'"},
	{"group_low", "SELECT region, COUNT(*) AS n, SUM(amount) AS s FROM [facts] WHERE id >= 100 GROUP BY region ORDER BY region"},
	{"group_high", "SELECT dim_id, COUNT(*) AS n, AVG(amount) AS a FROM [facts] WHERE id >= 100 GROUP BY dim_id ORDER BY dim_id"},
	{"join_agg", "SELECT d.category, COUNT(*) AS n, SUM(f.amount) AS s FROM [facts] AS f JOIN [dims] AS d ON f.dim_id = d.dim_id WHERE f.id >= 100 GROUP BY d.category ORDER BY d.category"},
	{"topn", "SELECT TOP 100 id, amount FROM [facts] WHERE amount < 975.5 ORDER BY amount DESC, id"},
	{"window", "SELECT w.id, w.region, w.amount, w.rk FROM (SELECT id, region, amount, RANK() OVER (PARTITION BY region ORDER BY amount DESC) AS rk FROM [facts] WHERE id >= 6000 AND id < 12000) AS w WHERE w.rk <= 20 ORDER BY w.region, w.rk, w.id"},
	{"viewchain", "SELECT region, COUNT(*) AS n, AVG(amount) AS a FROM [facts_report] WHERE amount > 25.5 GROUP BY region ORDER BY region"},
}

// BenchmarkAnalyticShapes runs each analytic shape in process the way the
// server runs a query — no result cache — so one command gives the
// per-shape cost the benchmark's engine.q_*_ms report over REST:
// go test -run '^$' -bench AnalyticShapes .
func BenchmarkAnalyticShapes(b *testing.B) {
	p := analyticPlatform()
	opts := catalog.QueryOptions{NoCache: true}
	for _, s := range analyticShapes {
		b.Run(s.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := p.Catalog().QueryWithOptions("an", s.sql, opts); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/1000/float64(b.N), "ms/query")
		})
	}
}

// analyticShapeBounds bounds the heap one query of each analytic shape
// allocates, bytes and allocations: the measured value plus 10 %, traced,
// no cache, at DOP 2 (linux/amd64, Go 1.24).
var analyticShapeBounds = map[string]struct{ bytes, allocs float64 }{
	"scan_agg":   {39_500, 239},
	"range":      {79_700, 264},
	"group_low":  {357_300, 426},
	"group_high": {836_100, 1_422},
	"join_agg":   {854_500, 704},
	"topn":       {997_700, 418},
	"window":     {2_490_400, 875},
	"viewchain":  {802_600, 812},
}

// TestAnalyticShapeAllocs: no analytic shape allocates more per query than
// its bound in analyticShapeBounds, so scratch that comes back per row —
// a []string of key strings where dictionary codes serve, a Value per key,
// a row per input row — fails here with the shape that grew.
func TestAnalyticShapeAllocs(t *testing.T) {
	p := analyticPlatform()
	opts := catalog.QueryOptions{NoCache: true, Parallelism: 2}
	const runs = 4
	for _, s := range analyticShapes {
		run := func() {
			if _, _, err := p.Catalog().QueryWithOptions("an", s.sql, opts); err != nil {
				t.Fatal(err)
			}
		}
		run()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
		allocs := float64(after.Mallocs-before.Mallocs) / runs
		bound := analyticShapeBounds[s.name]
		t.Logf("%s: %.0f B, %.0f allocations per query", s.name, bytes, allocs)
		if bytes > bound.bytes || allocs > bound.allocs {
			t.Errorf("%s: %.0f B and %.0f allocations per query, bound %.0f B and %.0f", s.name, bytes, allocs, bound.bytes, bound.allocs)
		}
	}
}

// BenchmarkViewChainDepth measures a key seek and a 100-key range read
// through a chain of 1, 4 and 8 saved views over a 20,000-row upload — the
// provenance chains of §5.2. Every view selects bare columns under a WHERE
// on a non-key column, so it merges into the scan of the upload: the reader's
// predicate on the key stays a seek at every depth.
func BenchmarkViewChainDepth(b *testing.B) {
	const rows = 20000
	p := New()
	if _, err := p.CreateUser("u", ""); err != nil {
		b.Fatal(err)
	}
	var sb strings.Builder
	sb.WriteString("a,bv\n")
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&sb, "%d,%d\n", i, i*7%1000)
	}
	if _, _, err := p.UploadString("u", "base", sb.String()); err != nil {
		b.Fatal(err)
	}
	prev := "base"
	for d := 0; d < 8; d++ {
		name := fmt.Sprintf("v%d", d)
		if _, err := p.SaveView("u", name,
			fmt.Sprintf("SELECT a, bv FROM %s WHERE bv >= %d", prev, d), Meta{}); err != nil {
			b.Fatal(err)
		}
		prev = name
	}
	for _, depth := range []int{1, 4, 8} {
		top := fmt.Sprintf("v%d", depth-1)
		for _, shape := range []struct{ name, sql string }{
			{"point", "SELECT a, bv FROM %s WHERE a = %d"},
			{"range", "SELECT a, bv FROM %s WHERE a >= %d AND a < %d"},
		} {
			b.Run(fmt.Sprintf("depth-%d/%s", depth, shape.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					k := i * 7919 % (rows - 100)
					sql := fmt.Sprintf(shape.sql, top, k, k+100)
					if shape.name == "point" {
						sql = fmt.Sprintf(shape.sql, top, k)
					}
					if _, err := p.Query("u", sql); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkPreviewVsQuery contrasts serving the memoized dataset preview
// against re-running the defining query (§3.3's caching rationale).
func BenchmarkPreviewVsQuery(b *testing.B) {
	p := New()
	if _, err := p.CreateUser("u", ""); err != nil {
		b.Fatal(err)
	}
	var sb strings.Builder
	sb.WriteString("a,bv\n")
	for i := 0; i < 2000; i++ {
		fmt.Fprintf(&sb, "%d,%d\n", i, i*i%101)
	}
	if _, _, err := p.UploadString("u", "d", sb.String()); err != nil {
		b.Fatal(err)
	}
	if _, err := p.SaveView("u", "agg", "SELECT bv, COUNT(*) AS n FROM d GROUP BY bv", Meta{}); err != nil {
		b.Fatal(err)
	}
	b.Run("preview", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pv, err := p.Preview("u", "agg")
			if err != nil || len(pv.Rows) == 0 {
				b.Fatal("no preview")
			}
		}
	})
	b.Run("query", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := p.Query("u", "SELECT * FROM agg"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkIngestInferenceVsForced ablates the §3.1 inference heuristics:
// full inference (delimiter + header + types) against a run with all
// decisions forced, isolating what the relaxed-schema convenience costs.
func BenchmarkIngestInferenceVsForced(b *testing.B) {
	var sb strings.Builder
	sb.WriteString("ts,station,depth,value\n")
	for i := 0; i < 2000; i++ {
		fmt.Fprintf(&sb, "2014-03-%02d 00:00:00,st%02d,%d.5,%d.25\n", 1+i%28, i%8, i%100, i%37)
	}
	data := []byte(sb.String())
	b.Run("inferred", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if _, err := ingest.LoadBytes("d", data, ingest.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("forced", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		hasHeader := true
		for i := 0; i < b.N; i++ {
			if _, err := ingest.LoadBytes("d", data, ingest.Options{
				Delimiter: ',', HasHeader: &hasHeader, InferenceRows: 1,
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPlanExtraction measures the §4 Phase 1+2 pipeline per query —
// the instrument's overhead on top of execution.
func BenchmarkPlanExtraction(b *testing.B) {
	p := New()
	if _, err := p.CreateUser("u", ""); err != nil {
		b.Fatal(err)
	}
	if _, _, err := p.UploadString("u", "d", "g,v\na,1\nb,2\nc,3\n"); err != nil {
		b.Fatal(err)
	}
	sql := "SELECT g, COUNT(*) AS n, AVG(v) AS m FROM d GROUP BY g HAVING COUNT(*) >= 1 ORDER BY n DESC"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qp, err := p.Explain("u", sql)
		if err != nil {
			b.Fatal(err)
		}
		md := plan.Extract(sql, qp)
		if md.Template == "" {
			b.Fatal("no template")
		}
	}
}

// BenchmarkMaterializationAdvisor ablates the advisor (§3.2/§6.2): the
// same query against a live expensive view versus its in-place
// materialization.
func BenchmarkMaterializationAdvisor(b *testing.B) {
	build := func(b *testing.B) *Platform {
		p := New()
		if _, err := p.CreateUser("u", ""); err != nil {
			b.Fatal(err)
		}
		var sb strings.Builder
		sb.WriteString("g,v\n")
		for i := 0; i < 4000; i++ {
			fmt.Fprintf(&sb, "g%02d,%d\n", i%25, i%97)
		}
		if _, _, err := p.UploadString("u", "obs", sb.String()); err != nil {
			b.Fatal(err)
		}
		if _, err := p.SaveView("u", "hot",
			"SELECT g, COUNT(*) AS n, AVG(v) AS m, STDEV(v) AS sd FROM obs GROUP BY g", Meta{}); err != nil {
			b.Fatal(err)
		}
		return p
	}
	b.Run("live-view", func(b *testing.B) {
		p := build(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := p.Query("u", "SELECT * FROM hot WHERE n > 1"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("materialized", func(b *testing.B) {
		p := build(b)
		applied, err := p.ApplyMaterializationAdvice(1)
		if err != nil || len(applied) == 0 {
			// Seed at least two references so the advisor sees reuse.
			for i := 0; i < 3; i++ {
				if _, err := p.Query("u", "SELECT * FROM hot"); err != nil {
					b.Fatal(err)
				}
			}
			if applied, err = p.ApplyMaterializationAdvice(1); err != nil || len(applied) == 0 {
				b.Fatalf("advice not applied: %v %v", applied, err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := p.Query("u", "SELECT * FROM hot WHERE n > 1"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkHistoryRecordingOverhead measures what continuous workload
// recording adds to the point-query fast path: the same clustered-index
// seek as BenchmarkQuerySeekVsScan with no history attached, with the
// in-memory ring + analyzer, and with the JSONL log on top. The ISSUE
// budget is < 5% for the in-memory configuration.
func BenchmarkHistoryRecordingOverhead(b *testing.B) {
	build := func(b *testing.B) *Platform {
		p := New()
		if _, err := p.CreateUser("u", ""); err != nil {
			b.Fatal(err)
		}
		var sb strings.Builder
		sb.WriteString("id,v\n")
		for i := 0; i < 5000; i++ {
			fmt.Fprintf(&sb, "%d,%d\n", i, i%97)
		}
		if _, _, err := p.UploadString("u", "big", sb.String()); err != nil {
			b.Fatal(err)
		}
		return p
	}
	seek := func(b *testing.B, p *Platform) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := p.Query("u", "SELECT * FROM big WHERE id = 2500"); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("baseline", func(b *testing.B) {
		seek(b, build(b))
	})
	b.Run("history", func(b *testing.B) {
		p := build(b)
		h, err := history.New(history.Config{})
		if err != nil {
			b.Fatal(err)
		}
		p.Catalog().SetHistory(h)
		seek(b, p)
	})
	b.Run("history-jsonl", func(b *testing.B) {
		p := build(b)
		h, err := history.New(history.Config{LogPath: filepath.Join(b.TempDir(), "history.jsonl")})
		if err != nil {
			b.Fatal(err)
		}
		p.Catalog().SetHistory(h)
		defer h.Close()
		seek(b, p)
	})
}
