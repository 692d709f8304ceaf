package engine

import (
	"errors"
	"fmt"
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

func liveResolver(t testing.TB, rows int) MapResolver {
	t.Helper()
	tbl := storage.NewTable("t", storage.Schema{
		{Name: "id", Type: sqltypes.Int},
		{Name: "grp", Type: sqltypes.Int},
		{Name: "pad", Type: sqltypes.String},
	})
	data := make([]storage.Row, rows)
	for i := range data {
		data[i] = storage.Row{
			sqltypes.NewInt(int64(i)),
			sqltypes.NewInt(int64(i % 7)),
			sqltypes.NewString(strings.Repeat("x", 32)),
		}
	}
	if err := tbl.Insert(data); err != nil {
		t.Fatal(err)
	}
	return MapResolver{Tables: map[string]*storage.Table{"t": tbl}}
}

func compileLive(t testing.TB, res Resolver, sql string) *Plan {
	t.Helper()
	q, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(q, res)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestConcurrentCompilesOneTable: compiles read a table's row count and row
// width, and executions its segments, with no lock, so compiles and runs of
// several queries over one table proceed side by side — and, under -race,
// without a data race — each with the plan estimates and the result a
// serial run gets.
func TestConcurrentCompilesOneTable(t *testing.T) {
	res := liveResolver(t, 5000)
	queries := []string{
		"SELECT grp, COUNT(*) AS n FROM t WHERE id > 100 GROUP BY grp",
		"SELECT id, pad FROM t WHERE id = 4321",
		"SELECT TOP 5 id FROM t WHERE grp = 3 ORDER BY id DESC",
	}
	want := make([]string, len(queries))
	for k, sql := range queries {
		p := compileLive(t, res, sql)
		r, err := p.Execute(&ExecContext{})
		if err != nil {
			t.Fatal(err)
		}
		want[k] = fmt.Sprint(p.Root.Props().EstRows, p.Root.Props().RowSize, r.Rows)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				k := (w + i) % len(queries)
				q, err := sqlparser.Parse(queries[k])
				if err == nil {
					var p *Plan
					if p, err = Compile(q, res); err == nil {
						var r *Result
						if r, err = p.Execute(&ExecContext{DOP: 2}); err == nil {
							if got := fmt.Sprint(p.Root.Props().EstRows, p.Root.Props().RowSize, r.Rows); got != want[k] {
								err = fmt.Errorf("%s: concurrent run gave %s, serial %s", queries[k], got, want[k])
							}
						}
					}
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestProgressCounters checks that an execution with a Progress attached
// publishes row and byte counters, and that the in-flight memory
// estimate drains back to exactly the final result's footprint.
func TestProgressCounters(t *testing.T) {
	res := liveResolver(t, 500)
	p := compileLive(t, res, "SELECT grp, COUNT(*) FROM t GROUP BY grp ORDER BY grp")
	prog := &Progress{}
	ctx := &ExecContext{Progress: prog}
	r, err := p.Execute(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 7 {
		t.Fatalf("got %d groups, want 7", len(r.Rows))
	}
	if prog.Rows.Load() < 500 || prog.Bytes.Load() == 0 {
		t.Fatalf("progress counters not published: rows=%d bytes=%d",
			prog.Rows.Load(), prog.Bytes.Load())
	}
	// Intermediates were consumed and released; only the root result stays
	// charged, and the peak saw the big scan.
	final := rowsBytes(storageRows(r))
	if got := prog.Mem.Load(); got != final {
		t.Fatalf("in-flight mem after execution = %d, want final result footprint %d", got, final)
	}
	if prog.MemPeak.Load() < prog.Mem.Load() {
		t.Fatalf("peak %d below current %d", prog.MemPeak.Load(), prog.Mem.Load())
	}
	if prog.CurrentOp() == "" {
		t.Fatal("CurrentOp empty after execution")
	}
}

func storageRows(r *Result) []storage.Row { return r.Rows }

// TestProgressDoesNotPinPlan: a job record keeps its Progress after the
// execution ends, so what Progress holds must not keep the compiled plan
// reachable. Every operator of the plan carries a finalizer; once the plan
// and the execution are dropped, all of them must run while the Progress
// stays live.
func TestProgressDoesNotPinPlan(t *testing.T) {
	res := liveResolver(t, 500)
	var freed atomic.Int64
	run := func() (*Progress, int64) {
		p := compileLive(t, res, "SELECT grp, COUNT(*) AS n FROM t WHERE id > 10 GROUP BY grp ORDER BY grp")
		var nodes int64
		var mark func(n Node)
		mark = func(n Node) {
			nodes++
			runtime.SetFinalizer(n, func(any) { freed.Add(1) })
			for _, c := range n.Children() {
				mark(c)
			}
		}
		mark(p.Root)
		prog := &Progress{}
		if _, err := p.Execute(&ExecContext{Progress: prog}); err != nil {
			t.Fatal(err)
		}
		return prog, nodes
	}
	prog, nodes := run()
	for i := 0; i < 100 && freed.Load() < nodes; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if got := freed.Load(); got != nodes {
		t.Fatalf("%d of the plan's %d operators collected while its Progress is live (current op %q)", got, nodes, prog.CurrentOp())
	}
	if prog.CurrentOp() == "" {
		t.Fatal("CurrentOp empty after execution")
	}
	runtime.KeepAlive(prog)
}

// TestMemLimitAbortsHashJoin runs a many-to-many self join whose output
// explodes past the budget and checks the execution aborts with ErrMemLimit.
func TestMemLimitAbortsHashJoin(t *testing.T) {
	res := liveResolver(t, 2000)
	p := compileLive(t, res,
		"SELECT a.id FROM t a JOIN t b ON a.grp = b.grp")
	_, err := p.Execute(&ExecContext{MaxBytes: 64 * 1024})
	if !errors.Is(err, ErrMemLimit) {
		t.Fatalf("err = %v, want ErrMemLimit", err)
	}
	// Well under budget, the same plan succeeds.
	if _, err := p.Execute(&ExecContext{MaxBytes: 1 << 30}); err != nil {
		t.Fatalf("generous budget: %v", err)
	}
}

// TestMemLimitAbortsSort checks the sort working-state reservation trips the
// budget too, and that the error names the operator.
func TestMemLimitAbortsSort(t *testing.T) {
	res := liveResolver(t, 3000)
	p := compileLive(t, res, "SELECT pad FROM t ORDER BY pad")
	_, err := p.Execute(&ExecContext{MaxBytes: 16 * 1024})
	if !errors.Is(err, ErrMemLimit) {
		t.Fatalf("err = %v, want ErrMemLimit", err)
	}
	if err != nil && !strings.Contains(err.Error(), "limit") {
		t.Fatalf("error should mention the limit: %v", err)
	}
}

// TestMemLimitUnlimitedByDefault checks MaxBytes == 0 never aborts.
func TestMemLimitUnlimitedByDefault(t *testing.T) {
	res := liveResolver(t, 2000)
	p := compileLive(t, res, "SELECT a.id FROM t a JOIN t b ON a.grp = b.grp")
	if _, err := p.Execute(&ExecContext{Progress: &Progress{}}); err != nil {
		t.Fatalf("unlimited execution failed: %v", err)
	}
}

// TestAccountingMatchesPlainResults checks accounting changes no answers:
// a spread of query shapes returns identical rows with and without Progress
// and a generous budget attached, at DOP 1 and DOP 4.
func TestAccountingMatchesPlainResults(t *testing.T) {
	res := liveResolver(t, 800)
	queries := []string{
		"SELECT id FROM t WHERE grp = 3",
		"SELECT grp, COUNT(*), SUM(id) FROM t GROUP BY grp",
		"SELECT a.id FROM t a JOIN t b ON a.id = b.id WHERE a.grp = 1",
		"SELECT DISTINCT grp FROM t ORDER BY grp",
		"SELECT TOP 10 id FROM t ORDER BY id DESC",
		"SELECT id FROM t WHERE grp IN (SELECT grp FROM t WHERE id < 5)",
		"SELECT id, ROW_NUMBER() OVER (PARTITION BY grp ORDER BY id) FROM t WHERE id < 50",
		"SELECT id FROM t WHERE id < 10 UNION ALL SELECT id FROM t WHERE id >= 790",
		"SELECT id FROM t WHERE EXISTS (SELECT 1 FROM t b WHERE b.id = t.id AND b.grp = 2)",
	}
	for _, sql := range queries {
		p := compileLive(t, res, sql)
		plain, err := p.Execute(&ExecContext{})
		if err != nil {
			t.Fatalf("%s: plain: %v", sql, err)
		}
		for _, dop := range []int{1, 4} {
			got, err := p.Execute(&ExecContext{
				Progress: &Progress{},
				MaxBytes: 1 << 30,
				DOP:      dop,
			})
			if err != nil {
				t.Fatalf("%s (dop %d): accounted: %v", sql, dop, err)
			}
			if fmt.Sprint(got.Rows) != fmt.Sprint(plain.Rows) {
				t.Fatalf("%s (dop %d): accounted results differ", sql, dop)
			}
		}
	}
}

// TestCorrelatedSubqueryReleasesPerRow checks the per-outer-row subplan
// results do not pile up in the live estimate: a correlated EXISTS over many
// outer rows stays within a budget far smaller than the sum of all subquery
// results.
func TestCorrelatedSubqueryReleasesPerRow(t *testing.T) {
	res := liveResolver(t, 400)
	p := compileLive(t, res,
		"SELECT id FROM t WHERE EXISTS (SELECT 1 FROM t b WHERE b.grp = t.grp AND b.pad = t.pad)")
	prog := &Progress{}
	if _, err := p.Execute(&ExecContext{Progress: prog, MaxBytes: 1 << 30}); err != nil {
		t.Fatal(err)
	}
	// Each correlated evaluation scans ~57 padded rows (~2KB); 400 outer rows
	// would pile up ~800KB if releases leaked. The final charge must stay in
	// the neighborhood of the base scan plus one result.
	if got := prog.Mem.Load(); got > 200*1024 {
		t.Fatalf("correlated subquery charges leaked: %d bytes still held", got)
	}
}

// TestEstRowsTotal checks the planner-estimate denominator is positive and
// covers every operator.
func TestEstRowsTotal(t *testing.T) {
	res := liveResolver(t, 100)
	p := compileLive(t, res, "SELECT grp, COUNT(*) FROM t GROUP BY grp")
	if est := p.EstRowsTotal(); est <= 0 {
		t.Fatalf("EstRowsTotal = %v, want > 0", est)
	}
}
