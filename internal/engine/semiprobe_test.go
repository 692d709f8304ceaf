package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"sqlshare/internal/sqlparser"
	"sqlshare/internal/sqltypes"
	"sqlshare/internal/storage"
)

// The oracle for a split EXISTS is the same query with the split switched
// off by its shape: the test queries spell the subquery `SELECT {T} …`, and
// {T} becomes `TOP 1000000` — a no-op on these tables that makes the query
// ineligible, so it runs the whole inner plan once per outer row exactly as
// every correlated EXISTS did before.
func splitSQL(sql string) string  { return strings.ReplaceAll(sql, "{T}", "") }
func oracleSQL(sql string) string { return strings.ReplaceAll(sql, "{T}", "TOP 1000000") }

func semiProbeResolver(t testing.TB) MapResolver {
	t.Helper()
	mk := func(name string, rows []storage.Row) *storage.Table {
		tbl := storage.NewTable(name, storage.Schema{
			{Name: "id", Type: sqltypes.Int},
			{Name: "x", Type: sqltypes.Int},
			{Name: "f", Type: sqltypes.Float},
			{Name: "s", Type: sqltypes.String},
		})
		if err := tbl.Insert(rows); err != nil {
			t.Fatal(err)
		}
		return tbl
	}
	intOrNull := func(null bool, v int) sqltypes.Value {
		if null {
			return sqltypes.TypedNull(sqltypes.Int)
		}
		return sqltypes.NewInt(int64(v))
	}
	floatOrNull := func(null bool, v float64) sqltypes.Value {
		if null {
			return sqltypes.TypedNull(sqltypes.Float)
		}
		return sqltypes.NewFloat(v)
	}
	var outer, inner, mid, allNull, nan []storage.Row
	for i := 0; i < 60; i++ {
		outer = append(outer, storage.Row{
			sqltypes.NewInt(int64(i)),
			intOrNull(i%7 == 0, (i*13)%40-5),
			floatOrNull(i%9 == 0, float64((i*17)%50)/2-3),
			sqltypes.NewString(fmt.Sprint((i * 7) % 30)),
		})
	}
	for i := 0; i < 40; i++ {
		s := sqltypes.NewString(fmt.Sprint((i * 11) % 25)) // "9" > "10" as strings, < as numbers
		if i%10 == 3 {
			s = sqltypes.NewString("abc")
		}
		inner = append(inner, storage.Row{
			sqltypes.NewInt(int64(i)),
			intOrNull(i%5 == 0, (i*7)%30),
			floatOrNull(i%6 == 0, float64((i*19)%45)/2),
			s,
		})
		allNull = append(allNull, storage.Row{
			sqltypes.NewInt(int64(i)), intOrNull(true, 0), floatOrNull(true, 0), sqltypes.TypedNull(sqltypes.String),
		})
		f := sqltypes.NewFloat(float64(i))
		if i == 17 {
			f = sqltypes.NewFloat(math.NaN())
		}
		nan = append(nan, storage.Row{sqltypes.NewInt(int64(i)), sqltypes.NewInt(int64(i)), f, sqltypes.NewString("n")})
	}
	for i := 0; i < 15; i++ {
		mid = append(mid, storage.Row{
			sqltypes.NewInt(int64(i)), intOrNull(i%4 == 0, i*2), floatOrNull(false, float64(i)), sqltypes.NewString("m"),
		})
	}
	return MapResolver{Tables: map[string]*storage.Table{
		"o": mk("o", outer), "i": mk("i", inner), "m": mk("m", mid),
		"inull": mk("inull", allNull), "iempty": mk("iempty", nil), "inan": mk("inan", nan),
	}}
}

// findSemiProbes collects the semiProbeNodes of a plan.
func findSemiProbes(n Node, out *[]*semiProbeNode) {
	if p, ok := n.(*semiProbeNode); ok {
		*out = append(*out, p)
	}
	for _, c := range n.Children() {
		findSemiProbes(c, out)
	}
}

func semiProbesOf(p *Plan) []*semiProbeNode {
	var out []*semiProbeNode
	findSemiProbes(p.Root, &out)
	return out
}

// TestCorrelatedExistsMatchesPerRowExecution runs each EXISTS shape through
// the split plan and through per-outer-row execution of the unsplit
// subquery and requires identical results at DOP 1 and 8, the expected
// probe kind in the plan, and an inner scan that executed once (it executes
// once per outer row in the oracle).
func TestCorrelatedExistsMatchesPerRowExecution(t *testing.T) {
	parallelTestSetup(t)
	res := semiProbeResolver(t)
	type tc struct {
		sql     string
		probes  int  // semiProbeNodes expected in the split plan
		extreme bool // whether the (outermost) probe carries the min/max shortcut
	}
	var cases []tc
	for _, op := range []string{">", ">=", "<", "<=", "=", "<>"} {
		ordering := op != "=" && op != "<>"
		cases = append(cases,
			tc{fmt.Sprintf("SELECT id FROM o WHERE EXISTS (SELECT {T} 1 FROM i WHERE i.x %s o.x) ORDER BY id", op), 1, ordering},
			tc{fmt.Sprintf("SELECT id FROM o WHERE EXISTS (SELECT {T} 1 FROM i WHERE o.x %s i.x) ORDER BY id", op), 1, ordering},
			tc{fmt.Sprintf("SELECT id FROM o WHERE NOT EXISTS (SELECT {T} * FROM i WHERE i.f %s o.f) ORDER BY id", op), 1, ordering},
			tc{fmt.Sprintf("SELECT id FROM o WHERE EXISTS (SELECT {T} 1 FROM inull AS i WHERE i.x %s o.x) ORDER BY id", op), 1, ordering},
			tc{fmt.Sprintf("SELECT id FROM o WHERE NOT EXISTS (SELECT {T} 1 FROM iempty AS i WHERE o.x %s i.x) ORDER BY id", op), 1, ordering},
		)
	}
	cases = append(cases,
		// Uncorrelated conjuncts stay in the inner plan; the one correlated
		// comparison still takes the shortcut.
		tc{"SELECT id FROM o WHERE EXISTS (SELECT {T} 1 FROM i WHERE i.x > o.x AND i.f > 4.5 AND i.id <> 39) ORDER BY id", 1, true},
		tc{"SELECT id FROM o WHERE EXISTS (SELECT {T} i.id FROM i WHERE i.f > 12 AND i.x <= o.x) ORDER BY id", 1, true},
		// Two correlated conjuncts: the loop probe.
		tc{"SELECT id FROM o WHERE EXISTS (SELECT {T} 1 FROM i WHERE i.x > o.x AND i.f < o.f) ORDER BY id", 1, false},
		tc{"SELECT id FROM o WHERE EXISTS (SELECT {T} 1 FROM i WHERE i.x = o.x AND i.s = o.s) ORDER BY id", 1, false},
		// Int against Float, expressions on both sides.
		tc{"SELECT id FROM o WHERE EXISTS (SELECT {T} 1 FROM i WHERE i.x > o.f) ORDER BY id", 1, true},
		tc{"SELECT id FROM o WHERE EXISTS (SELECT {T} 1 FROM i WHERE o.x <= i.f) ORDER BY id", 1, true},
		tc{"SELECT id FROM o WHERE EXISTS (SELECT {T} 1 FROM i WHERE i.x * 2 + 1 < o.x - o.id) ORDER BY id", 1, true},
		tc{"SELECT id FROM o WHERE EXISTS (SELECT {T} 1 FROM i WHERE 20 > o.x) ORDER BY id", 1, true},
		// String against String orders lexically and may take the shortcut;
		// a String column against a number compares by coercion and must not.
		tc{"SELECT id FROM o WHERE EXISTS (SELECT {T} 1 FROM i WHERE i.s > o.s) ORDER BY id", 1, true},
		tc{"SELECT id FROM o WHERE EXISTS (SELECT {T} 1 FROM i WHERE i.s > o.x) ORDER BY id", 1, false},
		tc{"SELECT id FROM o WHERE EXISTS (SELECT {T} 1 FROM i WHERE o.f >= i.s) ORDER BY id", 1, false},
		// Same static class, but the values disagree at run time: a NaN, and
		// Int and Float mixed under one static type — the shortcut is
		// compiled in and must stand down.
		tc{"SELECT id FROM o WHERE EXISTS (SELECT {T} 1 FROM inan AS i WHERE i.f >= o.f) ORDER BY id", 1, true},
		tc{"SELECT id FROM o WHERE EXISTS (SELECT {T} 1 FROM i WHERE CASE WHEN i.id % 2 = 0 THEN i.x ELSE i.f END > o.x) ORDER BY id", 1, true},
		// A mixed side: no shortcut.
		tc{"SELECT id FROM o WHERE EXISTS (SELECT {T} 1 FROM i WHERE i.x + o.id > o.x) ORDER BY id", 1, false},
		// In a select-list CASE, under OR, and from a join.
		tc{"SELECT id, CASE WHEN EXISTS (SELECT {T} 1 FROM i WHERE i.x < o.x) THEN 'y' ELSE 'n' END FROM o ORDER BY id", 1, true},
		tc{"SELECT id FROM o WHERE o.x IS NULL OR EXISTS (SELECT {T} 1 FROM i WHERE i.f > o.f AND i.x = o.x) ORDER BY id", 1, false},
		tc{"SELECT id FROM o WHERE EXISTS (SELECT {T} 1 FROM i, m WHERE i.id = m.id AND m.f > o.f) ORDER BY id", 1, true},
		// Nested two levels, the innermost reading the grand-outer row.
		tc{"SELECT id FROM o WHERE EXISTS (SELECT {T} 1 FROM m WHERE m.x = o.x AND EXISTS (SELECT {T} 1 FROM i WHERE i.x > m.x AND i.f > o.f)) ORDER BY id", 2, false},
		tc{"SELECT id FROM o WHERE EXISTS (SELECT {T} 1 FROM m WHERE m.x < o.x AND NOT EXISTS (SELECT {T} 1 FROM i WHERE i.f = o.f)) ORDER BY id", 2, false},
	)
	for _, c := range cases {
		oracle, err := Query(oracleSQL(c.sql), res, &ExecContext{DOP: 1})
		if err != nil {
			t.Fatalf("%s: oracle: %v", c.sql, err)
		}
		q := sqlparser.MustParse(splitSQL(c.sql))
		for _, dop := range []int{1, 8} {
			p, err := Compile(q, res) // fresh: the inner cache lives on the plan
			if err != nil {
				t.Fatalf("%s: %v", c.sql, err)
			}
			probes := semiProbesOf(p)
			if len(probes) != c.probes || (probes[0].extreme != nil) != c.extreme {
				t.Fatalf("%s: %d probes (extreme %v), want %d (extreme %v)",
					c.sql, len(probes), len(probes) > 0 && probes[0].extreme != nil, c.probes, c.extreme)
			}
			ctx := &ExecContext{DOP: dop}
			got, err := p.Execute(ctx)
			if err != nil {
				t.Fatalf("%s (dop %d): %v", c.sql, dop, err)
			}
			if renderBits(got) != renderBits(oracle) {
				t.Fatalf("%s (dop %d): differs from per-outer-row execution\ngot:\n%swant:\n%s",
					c.sql, dop, renderBits(got), renderBits(oracle))
			}
			for i, pr := range probes {
				// Every inner plan runs once; a nested probe's only if an
				// outer row ever reached it.
				e := ctx.Actual(pr.children[0]).Executions
				if e > 1 || (i == 0 && e != 1) {
					t.Fatalf("%s (dop %d): inner plan of probe %d executed %d times, want 1", c.sql, dop, i, e)
				}
			}
		}
	}
	// The run-time stand-down really happened for the two value-mismatch cases.
	for _, sql := range []string{
		"SELECT id FROM o WHERE EXISTS (SELECT 1 FROM inan AS i WHERE i.f >= o.f)",
		"SELECT id FROM o WHERE EXISTS (SELECT 1 FROM i WHERE CASE WHEN i.id % 2 = 0 THEN i.x ELSE i.f END > o.x)",
	} {
		p, err := Compile(sqlparser.MustParse(sql), res)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Execute(nil); err != nil {
			t.Fatal(err)
		}
		if x := semiProbesOf(p)[0].extreme; x.found == nil || x.found.ordered {
			t.Fatalf("%s: shortcut trusted values it cannot order: %+v", sql, x.found)
		}
	}
}

// TestPerRowExecutionsInOracle documents the "was n" side of the count the
// split removes: unsplit, the inner scan runs once per outer row.
func TestPerRowExecutionsInOracle(t *testing.T) {
	res := semiProbeResolver(t)
	const sql = "SELECT id FROM o WHERE EXISTS (SELECT {T} 1 FROM i WHERE i.x > o.x)"
	scanExecs := func(sql string) int64 {
		p, err := Compile(sqlparser.MustParse(sql), res)
		if err != nil {
			t.Fatal(err)
		}
		ctx := &ExecContext{}
		if _, err := p.Execute(ctx); err != nil {
			t.Fatal(err)
		}
		var execs int64 = -1
		for _, tn := range flattenTrace(p, ctx) {
			if tn.Object == "i" {
				execs = tn.Executions
			}
		}
		return execs
	}
	if got := scanExecs(oracleSQL(sql)); got != 60 {
		t.Fatalf("unsplit inner scan executions = %d, want 60 (one per outer row)", got)
	}
	if got := scanExecs(splitSQL(sql)); got != 1 {
		t.Fatalf("split inner scan executions = %d, want 1", got)
	}
}

// TestIneligibleExistsShapesKeepPerRowExecution: shapes the split must not
// touch still compile to the per-outer-row subplan and answer as before
// (the row counts are the ones the engine returned before the split existed).
func TestIneligibleExistsShapesKeepPerRowExecution(t *testing.T) {
	res := semiProbeResolver(t)
	for _, c := range []struct {
		sql  string
		rows int
	}{
		// An aggregate without GROUP BY always yields a row.
		{"SELECT id FROM o WHERE EXISTS (SELECT COUNT(*) FROM i WHERE i.x > o.x + 1000)", 60},
		{"SELECT id FROM o WHERE EXISTS (SELECT TOP 0 1 FROM i WHERE i.x > o.x - 1000)", 0},
		{"SELECT id FROM o WHERE EXISTS (SELECT i.x FROM i WHERE i.x = o.x GROUP BY i.x)", 31},
		{"SELECT id FROM o WHERE EXISTS (SELECT DISTINCT i.x FROM i WHERE i.x = o.x)", 31},
		{"SELECT id FROM o WHERE EXISTS (SELECT 1 FROM i WHERE i.x = o.x UNION ALL SELECT 1 FROM m WHERE m.x = o.x)", 33},
		{"SELECT id FROM o WHERE EXISTS (SELECT i.x + o.x FROM i WHERE i.x = o.x)", 31},
		{"SELECT id FROM o WHERE EXISTS (SELECT 1 FROM i JOIN m ON m.id = o.id WHERE i.x = o.x)", 6},
		// Uncorrelated: one cached execution, no probe.
		{"SELECT id FROM o WHERE EXISTS (SELECT 1 FROM i WHERE i.x > 28)", 60},
	} {
		p, err := Compile(sqlparser.MustParse(c.sql), res)
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		if n := len(semiProbesOf(p)); n != 0 {
			t.Fatalf("%s: compiled to %d semi probes, want per-outer-row execution", c.sql, n)
		}
		r, err := p.Execute(nil)
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		if len(r.Rows) != c.rows {
			t.Fatalf("%s: %d rows, want %d", c.sql, len(r.Rows), c.rows)
		}
	}
}

// TestSemiProbePlanNamesEachConjunctOnce: the split-off conjuncts are
// listed on the probe, the ones that stayed on the inner operators, none
// twice; and the select list still resolves its names.
func TestSemiProbePlanNamesEachConjunctOnce(t *testing.T) {
	res := semiProbeResolver(t)
	p, err := Compile(sqlparser.MustParse(
		"SELECT id FROM o WHERE EXISTS (SELECT 1 FROM i WHERE i.x > o.x AND i.f > 4.5)"), res)
	if err != nil {
		t.Fatal(err)
	}
	pr := semiProbesOf(p)[0]
	if got := fmt.Sprint(pr.props.Filters); got != "[(i.x > o.x)]" {
		t.Fatalf("probe filters = %s", got)
	}
	if pr.props.PhysicalOp != "Nested Loops" || pr.props.LogicalOp != "Left Semi Join" {
		t.Fatalf("probe is %s / %s", pr.props.PhysicalOp, pr.props.LogicalOp)
	}
	if got := fmt.Sprint(pr.children[0].Props().Filters); got != "[(i.f > 4.5)]" {
		t.Fatalf("inner filters = %s", got)
	}
	if _, err := Compile(sqlparser.MustParse(
		"SELECT id FROM o WHERE EXISTS (SELECT nosuch FROM i WHERE i.x > o.x)"), res); err == nil {
		t.Fatal("unknown select-list column compiled")
	}
	if _, err := Compile(sqlparser.MustParse(
		"SELECT id FROM o WHERE EXISTS (SELECT 1 FROM i WHERE i.x > o.nosuch)"), res); err == nil {
		t.Fatal("unknown outer column compiled")
	}
}

// TestSemiProbeChargesInnerRelationOnce: with accounting on, the cached
// inner relation is charged when it is built and stays charged — like an
// uncorrelated subplan's — while the per-outer-row probe results are
// released; a budget below the inner relation aborts with ErrMemLimit.
func TestSemiProbeChargesInnerRelationOnce(t *testing.T) {
	res := liveResolver(t, 400)
	const sql = "SELECT id FROM t WHERE EXISTS (SELECT 1 FROM t b WHERE b.grp = t.grp AND b.id > t.id)"
	p := compileLive(t, res, sql)
	if len(semiProbesOf(p)) != 1 {
		t.Fatal("expected a semi probe")
	}
	prog := &Progress{}
	r, err := p.Execute(&ExecContext{Progress: prog, MaxBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	inner := rowsBytes(res.Tables["t"].Scan())
	if got, want := prog.Mem.Load(), rowsBytes(r.Rows)+inner; got != want {
		t.Fatalf("in-flight mem after execution = %d, want result + inner relation once = %d", got, want)
	}
	if _, err := compileLive(t, res, sql).Execute(&ExecContext{MaxBytes: inner + inner/2}); !errors.Is(err, ErrMemLimit) {
		t.Fatalf("budget below outer scan + cached inner: err = %v, want ErrMemLimit", err)
	}
}

// TestSemiProbeCancelMidProbe: a kill that lands while one outer row's probe
// is walking the inner rows unwinds with the kill cause.
func TestSemiProbeCancelMidProbe(t *testing.T) {
	in := &relation{cols: []ColMeta{{Name: "x", Type: sqltypes.Int}}}
	for i := 0; i < 10000; i++ {
		in.rows = append(in.rows, storage.Row{sqltypes.NewInt(int64(i))})
	}
	kill := errors.New("killed by operator")
	cctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	calls := 0
	never := func(*ExecContext, *Env) (sqltypes.Value, error) {
		calls++
		if calls == 2500 {
			cancel(kill)
		}
		return sqltypes.NewBool(false), nil
	}
	p := &semiProbeNode{inner: &subplan{node: &countingNode{rel: in}}, conjs: []exprFn{never}}
	ctx := &ExecContext{Ctx: cctx, done: cctx.Done(), Progress: &Progress{}, tracer: newTracer()}
	_, err := execNode(ctx, p, nil)
	if !errors.Is(err, kill) {
		t.Fatalf("err = %v, want the kill cause", err)
	}
	if calls >= len(in.rows) {
		t.Fatalf("probe walked all %d inner rows after the kill", calls)
	}
}
