package engine

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sqlshare/internal/sqlparser"
	"sqlshare/internal/sqltypes"
	"sqlshare/internal/storage"
)

// parallelTestSetup makes tiny tables eligible for parallel execution and
// gives the scheduler real workers to interleave even on a 1-CPU host:
// morsels shrink to a handful of rows, tables built from now on get small
// segments (a filtered scan's unit of work), and GOMAXPROCS is raised so
// the extra-worker budget grants fan-out. Everything is restored on cleanup.
func parallelTestSetup(t testing.TB) {
	t.Helper()
	prevMorsel, prevMin := SetParallelTuning(7, 10)
	prevSeg := storage.SetSegmentRows(64)
	prevProcs := runtime.GOMAXPROCS(8)
	t.Cleanup(func() {
		SetParallelTuning(prevMorsel, prevMin)
		storage.SetSegmentRows(prevSeg)
		runtime.GOMAXPROCS(prevProcs)
	})
}

// parallelResolver builds a deterministic pseudo-random fact/dim schema
// large enough (at test tuning) that every operator parallelizes: NULLs in
// both key and measure columns, duplicate sort keys to stress stability,
// and a dim table with keys the fact side partially misses (and vice
// versa) to stress every outer-join flavour.
func parallelResolver(t testing.TB, factRows int) MapResolver {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	fact := storage.NewTable("fact", storage.Schema{
		{Name: "id", Type: sqltypes.Int},
		{Name: "grp", Type: sqltypes.String},
		{Name: "cat", Type: sqltypes.Int},
		{Name: "val", Type: sqltypes.Float},
		{Name: "note", Type: sqltypes.String},
	})
	rows := make([]storage.Row, factRows)
	for i := range rows {
		cat := sqltypes.NewInt(int64(rng.Intn(12)))
		if rng.Intn(10) == 0 {
			cat = sqltypes.TypedNull(sqltypes.Int)
		}
		val := sqltypes.NewFloat(float64(rng.Intn(1000)) / 8)
		if rng.Intn(15) == 0 {
			val = sqltypes.TypedNull(sqltypes.Float)
		}
		rows[i] = storage.Row{
			sqltypes.NewInt(int64(i)),
			sqltypes.NewString(fmt.Sprintf("g%d", rng.Intn(5))),
			cat,
			val,
			sqltypes.NewString(strings.Repeat("x", rng.Intn(4)) + fmt.Sprint(rng.Intn(30))),
		}
	}
	if err := fact.Insert(rows); err != nil {
		t.Fatal(err)
	}
	dim := storage.NewTable("dim", storage.Schema{
		{Name: "cat", Type: sqltypes.Int},
		{Name: "label", Type: sqltypes.String},
	})
	var drows []storage.Row
	for c := 0; c < 16; c += 2 { // even keys only: odd fact cats miss
		drows = append(drows, storage.Row{
			sqltypes.NewInt(int64(c)),
			sqltypes.NewString(fmt.Sprintf("label-%d", c)),
		})
	}
	if err := dim.Insert(drows); err != nil {
		t.Fatal(err)
	}
	return MapResolver{
		Tables: map[string]*storage.Table{"fact": fact, "dim": dim},
		Views:  map[string]sqlparser.QueryExpr{},
	}
}

// parallelCorpusQueries covers every parallelized operator: predicate
// scans, computed projections, all hash-join flavours, scalar and grouped
// aggregation (FLOAT folds included), sorts with heavy ties, DISTINCT,
// TOP, UNION, windows, and correlated plus uncorrelated subqueries.
var parallelCorpusQueries = []string{
	"SELECT * FROM fact WHERE val > 50",
	"SELECT id, val * 2 + 1 AS v2, UPPER(grp) AS g FROM fact WHERE id >= 100",
	"SELECT grp, COUNT(*) AS n, SUM(val) AS s, AVG(val) AS a, STDEV(val) AS sd FROM fact GROUP BY grp ORDER BY grp",
	"SELECT COUNT(*) AS n, COUNT(DISTINCT grp) AS g, SUM(val) AS s, MIN(note) AS lo, MAX(note) AS hi FROM fact",
	"SELECT f.id, d.label FROM fact f JOIN dim d ON f.cat = d.cat WHERE f.val < 100",
	"SELECT f.id, d.label FROM fact f LEFT JOIN dim d ON f.cat = d.cat",
	"SELECT d.label, COUNT(*) AS n FROM fact f RIGHT JOIN dim d ON f.cat = d.cat GROUP BY d.label",
	"SELECT f.id, d.cat FROM fact f FULL OUTER JOIN dim d ON f.cat = d.cat WHERE f.id IS NULL OR d.cat IS NULL OR f.id < 40",
	"SELECT grp, val FROM fact ORDER BY grp, val DESC, id",
	"SELECT DISTINCT grp, cat FROM fact ORDER BY grp, cat",
	"SELECT TOP 25 id, val FROM fact ORDER BY val DESC, id",
	"SELECT id FROM fact WHERE val > 100 UNION SELECT id FROM fact WHERE cat = 3 ORDER BY id",
	"SELECT id, grp, ROW_NUMBER() OVER (PARTITION BY grp ORDER BY val DESC, id) AS rk, SUM(val) OVER (PARTITION BY grp) AS gs FROM fact",
	"SELECT id FROM fact WHERE cat IN (SELECT cat FROM dim WHERE cat >= 4) ORDER BY id",
	"SELECT grp, (SELECT COUNT(*) FROM dim) AS dims FROM fact WHERE id < 30",
	"SELECT f.id FROM fact f WHERE EXISTS (SELECT 1 FROM dim d WHERE d.cat = f.cat) ORDER BY f.id",
	"SELECT grp, CASE WHEN AVG(val) > 60 THEN 'hi' ELSE 'lo' END AS band FROM fact GROUP BY grp HAVING COUNT(*) > 10 ORDER BY grp",
}

// resultKey renders a result to a canonical string so two runs can be
// compared for bit-identical columns, rows and row order.
func resultKey(r *Result) string {
	var b strings.Builder
	for _, c := range r.Cols {
		b.WriteString(c.Name)
		b.WriteByte(':')
		b.WriteString(fmt.Sprint(c.Type))
		b.WriteByte('|')
	}
	b.WriteByte('\n')
	for _, row := range r.Rows {
		for _, v := range row {
			b.WriteString(v.Key())
			b.WriteByte('|')
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// traceShape renders the statistics of an execution's operators that must
// not depend on the degree of parallelism: operators, row counts,
// executions.
func traceShape(ops []opTrace, b *strings.Builder) {
	for _, tn := range ops {
		fmt.Fprintf(b, "%s%s/%s[%s] rows=%d execs=%d\n",
			strings.Repeat(" ", tn.depth), tn.PhysicalOp, tn.LogicalOp, tn.Object,
			tn.Rows, tn.Executions)
	}
}

func runAtDOP(t *testing.T, res Resolver, sql string, dop int) (*Result, []opTrace) {
	t.Helper()
	q, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	p, err := Compile(q, res)
	if err != nil {
		t.Fatalf("compile %q: %v", sql, err)
	}
	ctx := &ExecContext{Now: time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC), DOP: dop}
	r, err := p.Execute(ctx)
	if err != nil {
		t.Fatalf("execute %q at DOP %d: %v", sql, dop, err)
	}
	return r, flattenTrace(p, ctx)
}

// TestParallelMatchesSerial is the differential gate: every corpus query
// must return bit-identical columns, rows and row order — and identical
// per-operator row counts in the trace — at DOP 1, 2 and 8.
func TestParallelMatchesSerial(t *testing.T) {
	parallelTestSetup(t)
	res := parallelResolver(t, 600)
	for _, sql := range parallelCorpusQueries {
		serialRes, serialTrace := runAtDOP(t, res, sql, 1)
		wantKey := resultKey(serialRes)
		var wantShape strings.Builder
		traceShape(serialTrace, &wantShape)
		for _, dop := range []int{2, 8} {
			gotRes, gotTrace := runAtDOP(t, res, sql, dop)
			if gotKey := resultKey(gotRes); gotKey != wantKey {
				t.Errorf("query %q: DOP %d result differs from serial\nserial:\n%s\nparallel:\n%s",
					sql, dop, wantKey, gotKey)
				continue
			}
			var gotShape strings.Builder
			traceShape(gotTrace, &gotShape)
			if gotShape.String() != wantShape.String() {
				t.Errorf("query %q: DOP %d trace shape differs\nserial:\n%s\nparallel:\n%s",
					sql, dop, wantShape.String(), gotShape.String())
			}
		}
	}
}

// TestParallelActuallyFansOut guards against the parallel path silently
// degrading to serial: with tiny morsels and workers available, a scan
// with a predicate must report more than one worker in its trace.
func TestParallelActuallyFansOut(t *testing.T) {
	parallelTestSetup(t)
	res := parallelResolver(t, 600)
	q, err := sqlparser.Parse("SELECT * FROM fact WHERE val > 50")
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(q, res)
	if err != nil {
		t.Fatal(err)
	}
	ctx := &ExecContext{Now: time.Now(), DOP: 4}
	if _, err := p.Execute(ctx); err != nil {
		t.Fatal(err)
	}
	var maxTraced int64
	for _, tn := range flattenTrace(p, ctx) {
		if tn.Workers > maxTraced {
			maxTraced = tn.Workers
		}
	}
	if maxTraced < 2 {
		t.Fatalf("trace reports max workers %d, want >= 2", maxTraced)
	}
	// The compile-time annotation agrees: some operator is marked Parallel.
	marked := false
	var mark func(n Node)
	mark = func(n Node) {
		if n.Props().Parallel {
			marked = true
		}
		for _, c := range n.Children() {
			mark(c)
		}
	}
	mark(p.Root)
	if !marked {
		t.Fatal("no operator carries the Parallel plan annotation")
	}
}

// TestParallelPoolDrains checks the global extra-worker pool is balanced:
// after a burst of concurrent parallel queries, no tokens stay leaked.
func TestParallelPoolDrains(t *testing.T) {
	parallelTestSetup(t)
	res := parallelResolver(t, 600)
	if busy := PoolBusy(); busy != 0 {
		t.Fatalf("pool busy = %d before test, want 0", busy)
	}
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := &ExecContext{Now: time.Now(), DOP: 8}
			_, err := Query("SELECT grp, SUM(val) AS s FROM fact GROUP BY grp ORDER BY grp", res, ctx)
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if busy := PoolBusy(); busy != 0 {
		t.Fatalf("pool busy = %d after queries, want 0 (leaked worker tokens)", busy)
	}
}

// TestParallelWorkerHookBalanced checks the workers-busy counter behind
// the sqlshare_parallel_workers_busy gauge: a sampler sees it rise while
// parallel operators run, and it is back at zero once the query ends.
func TestParallelWorkerHookBalanced(t *testing.T) {
	parallelTestSetup(t)
	res := parallelResolver(t, 2000)
	var peak atomic.Int64
	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if b := WorkersBusy(); b > peak.Load() {
				peak.Store(b)
			}
			runtime.Gosched()
		}
	}()
	for i := 0; i < 200 && peak.Load() < 2; i++ {
		ctx := &ExecContext{Now: time.Now(), DOP: 4}
		if _, err := Query("SELECT * FROM fact WHERE val > 10", res, ctx); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	<-sampled
	if busy := WorkersBusy(); busy != 0 {
		t.Fatalf("workers busy = %d after queries, want 0", busy)
	}
	if p := peak.Load(); p < 2 {
		t.Fatalf("workers busy peaked at %d, want >= 2 (never observed parallel workers)", p)
	}
}

// TestParallelCancellation cancels executions mid-flight and checks that
// they return promptly with the context error and leak no goroutines.
func TestParallelCancellation(t *testing.T) {
	parallelTestSetup(t)
	res := parallelResolver(t, 5000)
	q, err := sqlparser.Parse("SELECT f.grp, SUM(f.val) AS s FROM fact f JOIN fact g ON f.cat = g.cat GROUP BY f.grp ORDER BY f.grp")
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(q, res)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()

	// A context canceled before execution fails at the first operator.
	pre, cancelPre := context.WithCancel(context.Background())
	cancelPre()
	if _, err := p.Execute(&ExecContext{Now: time.Now(), DOP: 8, Ctx: pre}); err != context.Canceled {
		t.Fatalf("pre-canceled execute: err = %v, want context.Canceled", err)
	}

	// Cancel at staggered points while workers are mid-query: every run
	// must end in either a clean result or the context's error — never a
	// hang, never a panic.
	for _, delay := range []time.Duration{0, 50 * time.Microsecond, 500 * time.Microsecond, 5 * time.Millisecond} {
		ctx, cancel := context.WithCancel(context.Background())
		timer := time.AfterFunc(delay, cancel)
		done := make(chan error, 1)
		go func() {
			_, err := p.Execute(&ExecContext{Now: time.Now(), DOP: 8, Ctx: ctx})
			done <- err
		}()
		select {
		case err := <-done:
			if err != nil && err != context.Canceled {
				t.Fatalf("cancel after %v: err = %v, want nil or context.Canceled", delay, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("cancel after %v: execution did not return", delay)
		}
		timer.Stop()
		cancel()
	}

	// All workers must have drained: goroutine count settles back to the
	// pre-test level (allowing scheduler slack).
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines = %d, was %d before: workers leaked", runtime.NumGoroutine(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if busy := PoolBusy(); busy != 0 {
		t.Fatalf("pool busy = %d after cancellations, want 0", busy)
	}
}

// TestScanSharedSliceNotMutated pins the satellite fix: a predicate-free
// scan returns the table's shared row slice, and downstream operators
// (sort, projection with new columns) must not mutate it.
func TestScanSharedSliceNotMutated(t *testing.T) {
	res := parallelResolver(t, 100)
	fact := res.Tables["fact"]
	snap := make([]string, 0, 100)
	for _, r := range fact.Scan() {
		var b strings.Builder
		for _, v := range r {
			b.WriteString(v.Key())
			b.WriteByte('|')
		}
		snap = append(snap, b.String())
	}
	for _, sql := range []string{
		"SELECT * FROM fact",
		"SELECT * FROM fact ORDER BY val DESC, id",
		"SELECT id, val + 1 AS v FROM fact",
		"SELECT id, ROW_NUMBER() OVER (ORDER BY id) AS rk FROM fact",
	} {
		if _, err := Query(sql, res, nil); err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
	}
	for i, r := range fact.Scan() {
		var b strings.Builder
		for _, v := range r {
			b.WriteString(v.Key())
			b.WriteByte('|')
		}
		if b.String() != snap[i] {
			t.Fatalf("base table row %d mutated by query execution:\nbefore %s\nafter  %s", i, snap[i], b.String())
		}
	}
}

// TestSeekRangeSkipsNullsBinary pins the satellite fix: an open-lower-bound
// range seek over a column with a NULL prefix returns exactly the non-NULL
// rows in range (the NULL prefix is skipped via binary search, but the
// observable contract is correctness of the result).
func TestSeekRangeSkipsNullsBinary(t *testing.T) {
	tbl := storage.NewTable("t", storage.Schema{
		{Name: "k", Type: sqltypes.Int},
		{Name: "v", Type: sqltypes.String},
	})
	rows := []storage.Row{}
	for i := 0; i < 50; i++ {
		rows = append(rows, storage.Row{sqltypes.TypedNull(sqltypes.Int), sqltypes.NewString(fmt.Sprint("n", i))})
	}
	for i := 0; i < 50; i++ {
		rows = append(rows, storage.Row{sqltypes.NewInt(int64(i)), sqltypes.NewString(fmt.Sprint("v", i))})
	}
	if err := tbl.Insert(rows); err != nil {
		t.Fatal(err)
	}
	res := MapResolver{Tables: map[string]*storage.Table{"t": tbl}, Views: map[string]sqlparser.QueryExpr{}}
	r := run(t, res, "SELECT k FROM t WHERE k < 10")
	if len(r.Rows) != 10 {
		t.Fatalf("k < 10 over NULL-prefixed key: rows = %d, want 10", len(r.Rows))
	}
	for i, row := range r.Rows {
		if row[0].IsNull() || row[0].Int() != int64(i) {
			t.Fatalf("row %d = %v, want %d", i, row[0], i)
		}
	}
	r = run(t, res, "SELECT COUNT(*) AS n FROM t WHERE k <= 48")
	if r.Rows[0][0].Int() != 49 {
		t.Fatalf("k <= 48: count = %v, want 49", r.Rows[0][0])
	}
}

// TestSetParallelTuningRestores pins the knob contract used by tests and
// benchmarks.
func TestSetParallelTuningRestores(t *testing.T) {
	pm, pn := SetParallelTuning(64, 128)
	if parMorselRows != 64 || parMinRows != 128 {
		t.Fatalf("tuning not applied: morsel=%d min=%d", parMorselRows, parMinRows)
	}
	SetParallelTuning(pm, pn)
	if parMorselRows != pm || parMinRows != pn {
		t.Fatalf("tuning not restored: morsel=%d min=%d", parMorselRows, parMinRows)
	}
}

// TestParallelErrorIsTheSerialError: when several morsels fail, the error a
// query reports is the serial plan's — the lowest-numbered failed task's —
// whichever worker fails first, for a filter and for sort keys alike, and
// with vectorized execution on or off. The table is ordered on id, so
// `id >= 0` is a seek and BETWEEN a kernel: a residual conjunct fails behind
// a seek, behind a kernel prefix, under an aggregate over a seek, and (the
// kernel on s) inside the fused aggregate.
func TestParallelErrorIsTheSerialError(t *testing.T) {
	parallelTestSetup(t)
	defer SetVectorizedEnabled(VectorizedEnabled())
	tbl := storage.NewTable("t", storage.Schema{
		{Name: "id", Type: sqltypes.Int},
		{Name: "s", Type: sqltypes.String},
	})
	rows := make([]storage.Row, 4000)
	for i := range rows {
		s := fmt.Sprint(i % 10)
		if i%40 == 39 {
			s = fmt.Sprintf("x%d", i) // every failing row names itself
		}
		rows[i] = storage.Row{sqltypes.NewInt(int64(i)), sqltypes.NewString(s)}
	}
	if err := tbl.Insert(rows); err != nil {
		t.Fatal(err)
	}
	res := MapResolver{Tables: map[string]*storage.Table{"t": tbl}}
	for _, sql := range []string{
		"SELECT id FROM t WHERE CAST(s AS INT) > 3",
		"SELECT id FROM t ORDER BY CAST(s AS INT)",
		"SELECT id FROM t WHERE id >= 0 AND CAST(s AS INT) > 3",
		"SELECT id FROM t WHERE id BETWEEN 10 AND 3990 AND CAST(s AS INT) > 3",
		"SELECT COUNT(*) FROM t WHERE id >= 0 AND CAST(s AS INT) > 3",
		"SELECT COUNT(*) FROM t WHERE s <> '' AND CAST(s AS INT) > 3",
	} {
		var want string
		for _, vec := range []bool{true, false} {
			SetVectorizedEnabled(vec)
			for _, dop := range []int{1, 2, 8} {
				for run := 0; run < 50; run++ {
					_, err := compileLive(t, res, sql).Execute(&ExecContext{Now: time.Unix(0, 0), DOP: dop})
					if err == nil {
						t.Fatalf("%s (vectorized %v, dop %d): no error", sql, vec, dop)
					}
					if want == "" {
						want = err.Error()
						if !strings.Contains(want, `"x39"`) {
							t.Fatalf("%s: serial error %q, want the first failing row's", sql, want)
						}
					}
					if err.Error() != want {
						t.Fatalf("%s (vectorized %v, dop %d, run %d): error %q, serial plan reports %q", sql, vec, dop, run, err, want)
					}
				}
			}
		}
	}
}
