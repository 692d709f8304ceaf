package engine

import (
	"fmt"
	"sync/atomic"
	"testing"

	"sqlshare/internal/sqlparser"
	"sqlshare/internal/sqltypes"
	"sqlshare/internal/storage"
)

// The row builders of the joins before they emitted index pairs, kept for
// the reference operators of keys_ref_test.go, which build every joined row.

func relWidth(r *relation) int { return len(r.cols) }

// rowsBytes is what a walk over rows sums of Value.SizeBytes: the measure
// relation.measure reproduces from the segments.
func rowsBytes(rows []storage.Row) int64 {
	var total int64
	for _, r := range rows {
		for _, v := range r {
			total += int64(v.SizeBytes())
		}
	}
	return total
}

func joinRows(l, r storage.Row) storage.Row {
	out := make(storage.Row, 0, len(l)+len(r))
	out = append(out, l...)
	return append(out, r...)
}

func nullRow(w int) storage.Row {
	r := make(storage.Row, w)
	for i := range r {
		r[i] = sqltypes.NullValue()
	}
	return r
}

// eagerNode runs its operator and materializes the output before the parent
// reads it — the plan as it ran when every operator built its rows — and
// sums what a walk over those rows measures.
type eagerNode struct {
	Node
	execs, walked atomic.Int64
}

func (e *eagerNode) exec(ctx *ExecContext, env *Env) (*relation, error) {
	e.execs.Add(1)
	rel, err := e.Node.exec(ctx, env)
	if err != nil {
		return nil, err
	}
	materialize(rel)
	e.walked.Add(rowsBytes(rel.rows))
	return rel, nil
}

// withEagerOps wraps every operator of p in an eagerNode, but for a scan a
// scalar aggregate folds in place (it never produces a relation).
func withEagerOps(p *Plan) {
	var wrap func(n Node) Node
	wrap = func(n Node) Node {
		ch := n.Children()
		for i, c := range ch {
			if a, ok := n.(*streamAggregateNode); ok && i == 0 && fusedAggScan(a) != nil {
				continue
			}
			ch[i] = wrap(c)
		}
		return &eagerNode{Node: n}
	}
	p.Root = wrap(p.Root)
}

// walkedBytes lists, in flattenTrace's order, what each eagerNode of the
// tree under n measured (-1 where n is not wrapped, or where the wrapper
// never ran: a subquery's root is executed through its expression, not its
// slot). Operators with an empty PhysicalOp are skipped, as flattenTrace
// skips them.
func walkedBytes(n Node, out []int64) []int64 {
	switch e, ok := n.(*eagerNode); {
	case n.Props().PhysicalOp == "":
	case ok && e.execs.Load() > 0:
		out = append(out, e.walked.Load())
	default:
		out = append(out, -1)
	}
	for _, c := range n.Children() {
		out = walkedBytes(c, out)
	}
	return out
}

// opTrace is one operator of an execution as the tests read it: the
// compiled operator's props beside what the run measured there
// (ExecContext.Actual), at its depth in the exported plan tree.
type opTrace struct {
	*Props
	Actual
	depth int
}

// flattenTrace lists p's operators with their actuals under ctx in
// pre-order, leaving out those with an empty PhysicalOp: the operators of
// the exported plan tree (internal/plan), which splices those out, in its
// order.
func flattenTrace(p *Plan, ctx *ExecContext) []opTrace {
	var out []opTrace
	var walk func(n Node, depth int)
	walk = func(n Node, depth int) {
		if n.Props().PhysicalOp != "" {
			out = append(out, opTrace{n.Props(), ctx.Actual(n), depth})
			depth++
		}
		for _, c := range n.Children() {
			walk(c, depth)
		}
	}
	walk(p.Root, 0)
	return out
}

// lazyResolver is parallelResolver plus fcat: fact's rows clustered on cat
// (duplicates and NULLs in the leading column), which a join with dim on cat
// runs as a Merge Join.
func lazyResolver(t *testing.T) MapResolver {
	res := parallelResolver(t, 300)
	fact := res.Tables["fact"]
	fcat := storage.NewTable("fcat", storage.Schema{
		{Name: "cat", Type: sqltypes.Int},
		{Name: "id", Type: sqltypes.Int},
		{Name: "grp", Type: sqltypes.String},
		{Name: "val", Type: sqltypes.Float},
	})
	var rows []storage.Row
	for _, r := range fact.Scan() {
		rows = append(rows, storage.Row{r[2], r[0], r[1], r[3]})
	}
	if err := fcat.Insert(rows); err != nil {
		t.Fatal(err)
	}
	res.Tables["fcat"] = fcat
	return res
}

// TestLazyProducersMatchMaterialized runs every join flavour — inner, left,
// right and full outer, with and without a residual, as Hash Match, Merge
// Join and Nested Loops — under each consumer of a lazy relation, at DOP 1,
// 2 and 8 with vectorized execution on and off. Each result must be
// bit-identical to the same plan with every operator's output materialized
// before its parent reads it, and each operator's traced bytes and rows must
// equal what a walk over its materialized output measures.
func TestLazyProducersMatchMaterialized(t *testing.T) {
	parallelTestSetup(t)
	defer SetVectorizedEnabled(VectorizedEnabled())
	res := lazyResolver(t)
	joins := []struct{ from, op string }{
		{"fact f JOIN dim d ON f.cat = d.cat", "Hash Match"},
		{"fact f LEFT JOIN dim d ON f.cat = d.cat", "Hash Match"},
		{"fact f RIGHT JOIN dim d ON f.cat = d.cat", "Hash Match"},
		{"fact f FULL OUTER JOIN dim d ON f.cat = d.cat", "Hash Match"},
		{"fact f JOIN dim d ON f.cat = d.cat AND f.val < d.cat * 10", "Hash Match"},
		{"fact f LEFT JOIN dim d ON f.cat = d.cat AND f.val < d.cat * 10", "Hash Match"},
		{"fact f RIGHT JOIN dim d ON f.cat = d.cat AND f.val < d.cat * 10", "Hash Match"},
		{"fact f FULL OUTER JOIN dim d ON f.cat = d.cat AND f.val < d.cat * 10", "Hash Match"},
		{"fcat f JOIN dim d ON f.cat = d.cat", "Merge Join"},
		{"fact f CROSS JOIN dim d", "Nested Loops"},
		{"fact f JOIN dim d ON f.cat < d.cat", "Nested Loops"},
		{"fact f LEFT JOIN dim d ON f.cat < d.cat - 8", "Nested Loops"},
		{"fact f RIGHT JOIN dim d ON f.cat > d.cat + 6", "Nested Loops"},
		{"fact f FULL OUTER JOIN dim d ON f.cat > d.cat + 6 AND f.val > 20", "Nested Loops"},
		// A join of a join: the outer one composes the inner's index vectors.
		{"fact f LEFT JOIN dim d ON f.cat = d.cat FULL OUTER JOIN dim e ON d.cat = e.cat - 2", "Hash Match"},
	}
	consumers := []string{
		"SELECT * FROM %[1]s",
		"SELECT f.id, d.label FROM %[1]s WHERE f.val > d.cat * 5 OR d.cat IS NULL",
		"SELECT TOP 17 f.id, d.label, f.val FROM %[1]s ORDER BY f.val DESC, f.id, d.cat",
		"SELECT f.id, d.label FROM %[1]s ORDER BY f.val, d.cat, f.id",
		"SELECT DISTINCT f.grp, d.label FROM %[1]s",
		"SELECT d.label, COUNT(*) AS n, SUM(f.val) AS s, MIN(f.id) AS lo FROM %[1]s GROUP BY d.label ORDER BY d.label",
		"SELECT COUNT(*) AS n, COUNT(d.cat) AS c, SUM(f.val) AS s, AVG(f.val) AS a FROM %[1]s",
		"SELECT f.id, d.label, ROW_NUMBER() OVER (PARTITION BY d.label ORDER BY f.val DESC, f.id) AS rn, SUM(f.val) OVER (PARTITION BY d.label) AS gs FROM %[1]s",
		"SELECT f.id, d.label FROM %[1]s WHERE f.id < 60 UNION SELECT f.id, d.label FROM %[1]s WHERE f.id >= 240",
		"SELECT f.id + d.cat AS k, UPPER(d.label) AS u FROM %[1]s",
		"SELECT f.id FROM fact f WHERE f.cat IN (SELECT d.cat FROM %[1]s WHERE f.val > 40)",
	}
	for _, j := range joins {
		for _, c := range consumers {
			sql := fmt.Sprintf(c, j.from)
			q, err := sqlparser.Parse(sql)
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			for _, vec := range []bool{true, false} {
				SetVectorizedEnabled(vec)
				for _, dop := range []int{1, 2, 8} {
					lazy, err := Compile(q, res)
					if err != nil {
						t.Fatalf("%s: %v", sql, err)
					}
					if !planHasOp(lazy.Root, j.op) {
						t.Fatalf("%s: no %s in the plan", sql, j.op)
					}
					eager, err := Compile(q, res)
					if err != nil {
						t.Fatal(err)
					}
					withEagerOps(eager)
					lctx, ectx := &ExecContext{DOP: dop}, &ExecContext{DOP: dop}
					got, gotErr := lazy.Execute(lctx)
					want, wantErr := eager.Execute(ectx)
					where := fmt.Sprintf("%s (dop %d, vectorized %v)", sql, dop, vec)
					if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
						t.Fatalf("%s: err = %v, materialized plan err = %v", where, gotErr, wantErr)
					}
					if gotErr != nil {
						continue
					}
					if renderBits(got) != renderBits(want) {
						t.Fatalf("%s: differs from the materialized plan\ngot:\n%s\nwant:\n%s", where, renderBits(got), renderBits(want))
					}
					traced := flattenTrace(lazy, lctx)
					walked := walkedBytes(eager.Root, nil)
					eagerTrace := flattenTrace(eager, ectx)
					for i, tn := range traced {
						if walked[i] < 0 {
							continue
						}
						if tn.Bytes != walked[i] {
							t.Fatalf("%s: %s traced %d bytes, a walk over its rows measures %d", where, tn.PhysicalOp, tn.Bytes, walked[i])
						}
						if tn.Rows != eagerTrace[i].Rows {
							t.Fatalf("%s: %s traced %d rows, materialized %d", where, tn.PhysicalOp, tn.Rows, eagerTrace[i].Rows)
						}
					}
				}
			}
		}
	}
}

func planHasOp(n Node, op string) bool {
	if n.Props().PhysicalOp == op {
		return true
	}
	for _, c := range n.Children() {
		if planHasOp(c, op) {
			return true
		}
	}
	return false
}

// TestMaterializeAliasesSources: materializing a relation whose rows a
// computed source holds whole — the rows themselves, a filter's survivors, a
// trimmed sort — builds no row; only a relation that maps columns across or
// within sources copies cells, and so does one over a table, whose segments
// are the only copy of its rows.
func TestMaterializeAliasesSources(t *testing.T) {
	src := []storage.Row{
		{sqltypes.NewInt(1), sqltypes.NewString("a"), sqltypes.NewFloat(1.5)},
		{sqltypes.NewInt(2), sqltypes.NewString("b"), sqltypes.NewFloat(2.5)},
		{sqltypes.NewInt(3), sqltypes.NewString("c"), sqltypes.NewFloat(3.5)},
	}
	cols := []ColMeta{{Name: "i"}, {Name: "s"}, {Name: "f"}}
	table := &relation{cols: cols, rows: src}
	same := func(a, b storage.Row) bool { return &a[0] == &b[0] }
	for _, c := range []struct {
		name    string
		rel     *relation
		want    []int // source row of each output row
		width   int
		aliased bool
	}{
		{"identity", table.project(cols, []int{0, 1, 2}), []int{0, 1, 2}, 3, true},
		{"picked", table.pick([]int32{2, 0}), []int{2, 0}, 3, true},
		{"trimmed", table.pick([]int32{1, 2}).trim(2), []int{1, 2}, 2, true},
		{"mapped", table.project(cols[1:], []int{2, 1}).pick([]int32{1}), []int{1}, 2, false},
	} {
		materialize(c.rel)
		if c.rel.srcs != nil || len(c.rel.rows) != len(c.want) {
			t.Fatalf("%s: not materialized: %+v", c.name, c.rel)
		}
		for i, r := range c.rel.rows {
			if len(r) != c.width || same(r, src[c.want[i]]) != c.aliased {
				t.Fatalf("%s: row %d = %v (aliased %v), want width %d, aliased %v", c.name, i, r, same(r, src[c.want[i]]), c.width, c.aliased)
			}
		}
	}
	// SELECT * FROM t builds the table's rows from its segments.
	res := MapResolver{Tables: map[string]*storage.Table{"t": storage.NewTable("t", storage.Schema{{Name: "i", Type: sqltypes.Int}})}}
	if err := res.Tables["t"].Insert([]storage.Row{{sqltypes.NewInt(1)}, {sqltypes.NewInt(2)}}); err != nil {
		t.Fatal(err)
	}
	r, err := Query("SELECT * FROM t", res, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 || r.Rows[0][0] != sqltypes.NewInt(1) || r.Rows[1][0] != sqltypes.NewInt(2) {
		t.Fatalf("SELECT * FROM t = %v", r.Rows)
	}
}
