package engine

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"sqlshare/internal/sqlparser"
	"sqlshare/internal/sqltypes"
	"sqlshare/internal/storage"
)

// refWindowNode is the retained reference for windowed aggregates: the
// definition the engine used before frames folded incrementally. For every
// row it rebuilds the frame [0, end of the row's peer group) and folds all
// of it through computeAggregate — O(n²) per partition, which is why it
// lives only here. Partitions are computed serially, ranking functions go
// through the production code.
type refWindowNode struct{ *windowProjectNode }

func (r refWindowNode) exec(ctx *ExecContext, env *Env) (*relation, error) {
	w := r.windowProjectNode
	in, err := execNode(ctx, w.children[0], env)
	if err != nil {
		return nil, err
	}
	ev := &Env{cols: in.cols, outer: env}
	partIdx := map[string][]int{}
	var partOrder []string
	for i, row := range in.rows {
		ev.row = row
		var key string
		for _, fn := range w.partFns {
			v, err := fn(ctx, ev)
			if err != nil {
				return nil, err
			}
			key += v.Key() + "\x1f"
		}
		if _, ok := partIdx[key]; !ok {
			partOrder = append(partOrder, key)
		}
		partIdx[key] = append(partIdx[key], i)
	}
	outRows := make([]storage.Row, len(in.rows))
	for i, row := range in.rows {
		outRows[i] = append(storage.Row(nil), row...)
	}
	peers, err := w.peerKeys(ctx, env, in)
	if err != nil {
		return nil, err
	}
	for _, pk := range partOrder {
		idxs := partIdx[pk]
		for _, call := range w.calls {
			var vals []sqltypes.Value
			if isAggregateName(call.name) {
				vals, err = r.frameByFrame(ctx, env, in, idxs, call)
			} else {
				vals, err = w.computeCall(ctx, env, in, peers, idxs, call)
			}
			if err != nil {
				return nil, err
			}
			for j, ri := range idxs {
				outRows[ri] = append(outRows[ri], vals[j])
			}
		}
	}
	return &relation{cols: w.props.Cols, rows: outRows}, nil
}

func (r refWindowNode) frameByFrame(ctx *ExecContext, env *Env, in *relation, idxs []int, call windowCall) ([]sqltypes.Value, error) {
	w := r.windowProjectNode
	spec := aggSpec{name: call.name, argFn: call.argFn, outType: call.outType, argCol: -1, star: call.argFn == nil}
	ev := &Env{cols: in.cols, outer: env}
	orderKeyAt := func(i int) ([]sqltypes.Value, error) {
		row := in.rows[idxs[i]]
		kv := make([]sqltypes.Value, len(w.orderKeys))
		for j, k := range w.orderKeys {
			if k.fn == nil {
				kv[j] = row[k.idx]
				continue
			}
			ev.row = row
			v, err := k.fn(ctx, ev)
			if err != nil {
				return nil, err
			}
			kv[j] = v
		}
		return kv, nil
	}
	same := func(a, b []sqltypes.Value) bool {
		for j := range a {
			if sqltypes.SortCompare(a[j], b[j]) != 0 {
				return false
			}
		}
		return true
	}
	out := make([]sqltypes.Value, len(idxs))
	for i := range idxs {
		frameEnd := len(idxs)
		if len(w.orderKeys) > 0 {
			kv, err := orderKeyAt(i)
			if err != nil {
				return nil, err
			}
			for frameEnd = i + 1; frameEnd < len(idxs); frameEnd++ {
				nk, err := orderKeyAt(frameEnd)
				if err != nil {
					return nil, err
				}
				if !same(nk, kv) {
					break
				}
			}
		}
		rows := make([]storage.Row, frameEnd)
		for k := range rows {
			rows[k] = in.rows[idxs[k]]
		}
		v, err := computeAggregate(ctx, spec, in.cols, rows, env)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// withReferenceWindows swaps every windowProjectNode under n for the
// reference and reports how many it replaced.
func withReferenceWindows(n Node) int {
	swapped := 0
	ch := n.Children()
	for i, c := range ch {
		if w, ok := c.(*windowProjectNode); ok {
			ch[i] = refWindowNode{w}
			swapped++
		}
		swapped += withReferenceWindows(c)
	}
	return swapped
}

// renderBits renders a result with FLOAT cells as their IEEE bit patterns,
// so two renderings are equal only if the results are bit-identical.
func renderBits(r *Result) string {
	var sb strings.Builder
	for _, row := range r.Rows {
		for _, v := range row {
			switch {
			case v.IsNull():
				sb.WriteString("NULL")
			case v.Type() == sqltypes.Float:
				fmt.Fprintf(&sb, "f%016x", math.Float64bits(v.Float()))
			default:
				fmt.Fprintf(&sb, "%s:%s", v.Type(), v.String())
			}
			sb.WriteByte('|')
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// windowRefResolver builds a table whose order key k ties in peer groups of
// 1, 2, 3, … rows (and is NULL for a few), spread over three partitions one
// of which is a single peer group, with NULLs in every measure.
func windowRefResolver(t testing.TB) MapResolver {
	t.Helper()
	tbl := storage.NewTable("w", storage.Schema{
		{Name: "id", Type: sqltypes.Int},
		{Name: "p", Type: sqltypes.String},
		{Name: "k", Type: sqltypes.Int},
		{Name: "k2", Type: sqltypes.Int},
		{Name: "x", Type: sqltypes.Float},
		{Name: "n", Type: sqltypes.Int},
		{Name: "s", Type: sqltypes.String},
	})
	var rows []storage.Row
	id := 0
	add := func(p string, k sqltypes.Value) {
		x := sqltypes.NewFloat(float64((id*7919)%1000)/7 + 0.1)
		if id%6 == 0 {
			x = sqltypes.TypedNull(sqltypes.Float)
		}
		n := sqltypes.NewInt(int64((id * 31) % 17))
		if id%5 == 0 {
			n = sqltypes.TypedNull(sqltypes.Int)
		}
		s := sqltypes.NewString(fmt.Sprint(id % 9))
		if id == 40 {
			s = sqltypes.NewString("not a number")
		}
		rows = append(rows, storage.Row{
			sqltypes.NewInt(int64(id)), sqltypes.NewString(p), k,
			sqltypes.NewInt(int64(id % 3)), x, n, s,
		})
		id++
	}
	for g := 1; g <= 9; g++ { // peer groups of 1..9 rows
		for j := 0; j < g; j++ {
			add("a", sqltypes.NewInt(int64(g)))
		}
	}
	for j := 0; j < 4; j++ {
		add("a", sqltypes.TypedNull(sqltypes.Int))
	}
	for j := 0; j < 20; j++ {
		add("b", sqltypes.NewInt(int64(j/2)))
	}
	for j := 0; j < 12; j++ { // one partition, one peer group
		add("c", sqltypes.NewInt(7))
	}
	if err := tbl.Insert(rows); err != nil {
		t.Fatal(err)
	}
	return MapResolver{Tables: map[string]*storage.Table{"w": tbl}}
}

// TestWindowAggregatesMatchReference runs every windowed aggregate over
// every frame shape through the incremental fold and through the retained
// frame-by-frame reference, and requires bit-identical results (or the same
// error) at DOP 1, 2 and 8.
func TestWindowAggregatesMatchReference(t *testing.T) {
	parallelTestSetup(t)
	res := windowRefResolver(t)
	aggs := []string{
		"COUNT(*)", "COUNT(x)", "COUNT_BIG(n)",
		"SUM(x)", "SUM(n)", "AVG(x)", "AVG(n)", "MIN(x)", "MAX(x)", "MIN(s)", "MAX(n)",
		"STDEV(x)", "STDEVP(x)", "VAR(x)", "VARP(n)",
		// Int and Float values mixed under one static type.
		"SUM(CASE WHEN id % 2 = 0 THEN n ELSE x END)",
		// Arguments that fail: in evaluation, and in the fold.
		"SUM(100 / (n - 3))", "SUM(s)", "AVG(CASE WHEN id < 70 THEN x ELSE 1 / (id - id) END)",
	}
	overs := []string{
		"ORDER BY k", "ORDER BY k DESC", "ORDER BY k, k2 DESC", "ORDER BY x",
		"PARTITION BY p ORDER BY k", "PARTITION BY p ORDER BY k DESC, k2",
		"PARTITION BY p", "",
	}
	failed := map[string]bool{}
	for _, agg := range aggs {
		for _, over := range overs {
			sql := fmt.Sprintf("SELECT id, %s OVER (%s) AS v FROM w ORDER BY id", agg, over)
			q, err := sqlparser.Parse(sql)
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			ref, err := Compile(q, res)
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			if n := withReferenceWindows(ref.Root); n != 1 {
				t.Fatalf("%s: swapped %d window operators, want 1", sql, n)
			}
			want, wantErr := ref.Execute(&ExecContext{DOP: 1})
			if wantErr != nil {
				failed[agg] = true
			}
			for _, dop := range []int{1, 2, 8} {
				p, err := Compile(q, res)
				if err != nil {
					t.Fatal(err)
				}
				got, gotErr := p.Execute(&ExecContext{DOP: dop})
				if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
					t.Fatalf("%s (dop %d): err = %v, reference err = %v", sql, dop, gotErr, wantErr)
				}
				if gotErr == nil && renderBits(got) != renderBits(want) {
					t.Fatalf("%s (dop %d): differs from the frame-by-frame reference\ngot:\n%s\nwant:\n%s",
						sql, dop, renderBits(got), renderBits(want))
				}
			}
		}
	}
	if len(failed) != 3 {
		t.Fatalf("erroring arguments exercised: %v, want the last three", failed)
	}
}

// TestRunningFrameEvaluatesArgumentOncePerRow pins the cost: a running
// aggregate over an n-row partition calls its argument n times (rebuilding
// the frame per row called it ≈ n²/2 times).
func TestRunningFrameEvaluatesArgumentOncePerRow(t *testing.T) {
	const n = 300
	in := &relation{cols: []ColMeta{{Name: "k", Type: sqltypes.Int}, {Name: "x", Type: sqltypes.Float}}}
	idxs := make([]int, n)
	for i := range idxs {
		idxs[i] = i
		in.rows = append(in.rows, storage.Row{sqltypes.NewInt(int64(i / 3)), sqltypes.NewFloat(float64(i))})
	}
	for _, name := range []string{"COUNT", "SUM", "AVG", "MIN", "MAX", "STDEV", "VARP"} {
		calls := 0
		arg := func(_ *ExecContext, ev *Env) (sqltypes.Value, error) {
			calls++
			return ev.row[1], nil
		}
		w := &windowProjectNode{orderKeys: []sortKey{{idx: 0}}}
		call := windowCall{name: name, argFn: arg, outType: aggOutType(name, sqltypes.Float)}
		peers, err := w.peerKeys(&ExecContext{}, nil, in)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.computeCall(&ExecContext{}, nil, in, peers, idxs, call); err != nil {
			t.Fatal(err)
		}
		if calls != n {
			t.Errorf("%s: argument evaluated %d times over a %d-row partition, want %d", name, calls, n, n)
		}
	}
}

// TestWindowedDistinctRejected: DISTINCT inside a windowed aggregate used to
// be dropped silently (SUM(DISTINCT x) OVER … summed the duplicates too);
// like SQL Server, the engine now refuses it at compile time.
func TestWindowedDistinctRejected(t *testing.T) {
	tbl := storage.NewTable("d", storage.Schema{
		{Name: "k", Type: sqltypes.Int}, {Name: "x", Type: sqltypes.Float},
	})
	rows := []storage.Row{}
	for i, x := range []sqltypes.Value{
		sqltypes.NewFloat(1.5), sqltypes.TypedNull(sqltypes.Float),
		sqltypes.NewFloat(2.5), sqltypes.NewFloat(2.5), sqltypes.NewFloat(1.5),
	} {
		rows = append(rows, storage.Row{sqltypes.NewInt(int64(i)), x})
	}
	if err := tbl.Insert(rows); err != nil {
		t.Fatal(err)
	}
	res := MapResolver{Tables: map[string]*storage.Table{"d": tbl}}
	for _, sql := range []string{
		"SELECT SUM(DISTINCT x) OVER (ORDER BY k) FROM d",
		"SELECT COUNT(DISTINCT x) OVER (PARTITION BY k) FROM d",
	} {
		_, err := Query(sql, res, nil)
		if err == nil || !strings.Contains(err.Error(), "DISTINCT is not allowed with the OVER clause") {
			t.Errorf("%s: err = %v, want the DISTINCT-with-OVER compile error", sql, err)
		}
	}
	// The grouped form is unaffected.
	r, err := Query("SELECT SUM(DISTINCT x) FROM d", res, nil)
	if err != nil || len(r.Rows) != 1 || r.Rows[0][0].Float() != 4 {
		t.Fatalf("SUM(DISTINCT x) = %v, %v; want 4", r, err)
	}
}
