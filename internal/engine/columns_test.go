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

// columnShapesSegRows is the segment size of the column-shape tables: more
// rows than a dictionary holds, so a column of distinct strings overflows to
// plain string encoding in every full segment and stays a dictionary in the
// short last one.
const columnShapesSegRows = 300

// columnShapesTable builds a table over every segment encoding: a leading id
// with NULLs, an Int with NULLs, a Float with NaN, both zeros and infinity, a
// low-cardinality string (dictionary), a string of distinct tags (dictionary
// overflow), two DATETIMEs (one beyond the nanosecond range in one row), a
// BIT, a column mixing Int and Float (EncValues), a VARCHAR of small
// integers (numeric strings), an all-NULL column, an Int NULL-free in every
// segment but the fourth, and an Int that holds a FLOAT in one row of the
// second segment (EncValues there, EncInt elsewhere). Build it under
// storage.SetSegmentRows(columnShapesSegRows).
func columnShapesTable(t testing.TB, name string, n int, seed int64) *storage.Table {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	null := func(typ sqltypes.Type, v sqltypes.Value) sqltypes.Value {
		if rng.Intn(8) == 0 {
			return sqltypes.TypedNull(typ)
		}
		return v
	}
	floats := []float64{math.NaN(), 0, math.Copysign(0, -1), 1.5, -3.25, 1e-7, math.Inf(1), 42}
	day := time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC)
	tbl := storage.NewTable(name, storage.Schema{
		{Name: "id", Type: sqltypes.Int},
		{Name: "i", Type: sqltypes.Int},
		{Name: "f", Type: sqltypes.Float},
		{Name: "s", Type: sqltypes.String},
		{Name: "u", Type: sqltypes.String},
		{Name: "d", Type: sqltypes.DateTime},
		{Name: "e", Type: sqltypes.DateTime},
		{Name: "b", Type: sqltypes.Bool},
		{Name: "m", Type: sqltypes.Float},
		{Name: "w", Type: sqltypes.String},
		{Name: "z", Type: sqltypes.Int},
		{Name: "n", Type: sqltypes.Int},
		{Name: "v", Type: sqltypes.Int},
	})
	rows := make([]storage.Row, n)
	for r := range rows {
		id := sqltypes.NewInt(int64(r))
		if r%97 == 3 {
			id = sqltypes.TypedNull(sqltypes.Int)
		}
		m := sqltypes.NewInt(int64(rng.Intn(5)))
		if rng.Intn(2) == 0 {
			m = sqltypes.NewFloat(float64(rng.Intn(10)) / 4)
		}
		e := day.Add(time.Duration(rng.Intn(1000)) * time.Second)
		if r == n/2 {
			e = time.Date(1, 1, 1, 0, 0, 0, 0, time.UTC)
		}
		nn := sqltypes.NewInt(int64(r * 3))
		if r >= 3*columnShapesSegRows+10 && r < 4*columnShapesSegRows-20 && r%5 == 0 && r%97 != 3 {
			// Inside the fourth segment once the NULL ids sort first.
			nn = sqltypes.TypedNull(sqltypes.Int)
		}
		v := sqltypes.NewInt(int64(r % 11))
		if r == columnShapesSegRows+17 {
			v = sqltypes.NewFloat(2.5)
		}
		rows[r] = storage.Row{
			id,
			null(sqltypes.Int, sqltypes.NewInt(int64(rng.Intn(9)))),
			null(sqltypes.Float, sqltypes.NewFloat(floats[rng.Intn(len(floats))])),
			null(sqltypes.String, sqltypes.NewString(fmt.Sprintf("g%d", rng.Intn(5)))),
			null(sqltypes.String, sqltypes.NewString(fmt.Sprintf("tag-%s-%d", strings.Repeat("x", rng.Intn(6)), rng.Intn(1_000_000)))),
			null(sqltypes.DateTime, sqltypes.NewDateTime(day.Add(time.Duration(rng.Intn(50))*time.Hour))),
			sqltypes.NewDateTime(e),
			null(sqltypes.Bool, sqltypes.NewBool(rng.Intn(2) == 0)),
			null(sqltypes.Float, m),
			null(sqltypes.String, sqltypes.NewString(fmt.Sprint(rng.Intn(30)))),
			sqltypes.TypedNull(sqltypes.Int),
			nn,
			v,
		}
	}
	if err := tbl.Insert(rows); err != nil {
		t.Fatal(err)
	}
	return tbl
}

// appendedShapesTable is columnShapesTable merge-inserted into mid-table and
// appended to, so that its segments from the insertion point on were encoded
// again from rows decoded out of the earlier ones.
func appendedShapesTable(t testing.TB, n int) *storage.Table {
	t.Helper()
	tbl := columnShapesTable(t, "a", n, 11)
	more := columnShapesTable(t, "more", 60, 12).Scan()
	var batch []storage.Row
	for r, row := range more {
		row = row.Clone()
		row[0] = sqltypes.NewInt(int64(n/2 + r)) // lands mid-table
		if r >= 40 {
			row[0] = sqltypes.NewInt(int64(n + r)) // and past the end
		}
		batch = append(batch, row)
	}
	if err := tbl.Insert(batch); err != nil {
		t.Fatal(err)
	}
	return tbl
}

func shapesCols(tbl *storage.Table) []ColMeta {
	var cols []ColMeta
	for _, c := range tbl.Schema() {
		cols = append(cols, ColMeta{Binding: tbl.Name(), Name: c.Name, Type: c.Type})
	}
	return cols
}

// shapesScan and shapesSeek are a scan's and a seek's output relations.
func shapesScan(tbl *storage.Table) *relation {
	return &relation{cols: shapesCols(tbl), srcs: []source{{seg: spanRef(tbl.All())}}}
}

func shapesSeek(tbl *storage.Table, lo, hi int64) *relation {
	sp := tbl.SeekRange(sqltypes.NewInt(lo), sqltypes.NewInt(hi), true, false)
	return &relation{cols: shapesCols(tbl), srcs: []source{{seg: spanRef(sp)}}}
}

// shapesRelations is every form a relation over the column-shape tables
// takes: scans and seeks (starting and ending mid-segment, or inside one),
// filtered (to nothing, too) and permuted index vectors, a prefix, a non-prefix column map
// with a repeated column, an outer join's NULL rows on both sides, computed
// rows, and a seek over a table merge-inserted into.
func shapesRelations(t testing.TB, clean, appended *storage.Table) []struct {
	name string
	rel  *relation
} {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	scan := shapesScan(clean)
	seek := shapesSeek(clean, 137, 1203)
	inside := shapesSeek(clean, 310, 390)
	every3 := func(r *relation) []int32 {
		var sel []int32
		for i := 0; i < r.len(); i += 3 {
			sel = append(sel, int32(i))
		}
		return sel
	}
	perm := func(r *relation) []int32 {
		sel := make([]int32, r.len())
		for i, p := range rng.Perm(r.len()) {
			sel[i] = int32(p)
		}
		return sel
	}
	mapCols := []int{6, 2, 2, 10, 4, 0, 7}
	mcols := make([]ColMeta, len(mapCols))
	for j, c := range mapCols {
		mcols[j] = scan.cols[c]
	}
	mapped := scan.project(mcols, mapCols)
	// An outer join: every left row once, some matched to a right row, some
	// padded; then right rows padded on the left.
	left, right := seek.pick(every3(seek)), mapped.pick(perm(mapped))
	var lidx, ridx []int32
	for i := 0; i < left.len(); i++ {
		lidx = append(lidx, int32(i))
		if k := rng.Intn(right.len() + right.len()/3); k < right.len() {
			ridx = append(ridx, int32(k))
		} else {
			ridx = append(ridx, -1)
		}
	}
	for k := 0; k < 40; k++ {
		lidx, ridx = append(lidx, -1), append(ridx, int32(rng.Intn(right.len())))
	}
	joined := joinRel(append(append([]ColMeta{}, left.cols...), right.cols...), left, right, lidx, ridx)
	isel := every3(inside)
	computed := &relation{cols: scan.cols, rows: materialized(scan)}
	return []struct {
		name string
		rel  *relation
	}{
		{"scan", scan},
		{"seek mid-segment", seek},
		{"seek inside a segment", inside},
		{"filtered seek", seek.pick(every3(seek))},
		{"seek filtered to nothing", seek.pick(nil)},
		{"permuted scan", scan.pick(perm(scan))},
		{"prefix of a permutation", scan.pick(perm(scan)).prefix(100)},
		{"mapped view", mapped},
		{"filtered mapped view", mapped.pick(every3(mapped))},
		{"outer join", joined},
		{"join of a join", joinRel(append(append([]ColMeta{}, joined.cols...), inside.cols...), joined, inside, perm(joined)[:len(isel)], isel)},
		{"computed", computed},
		{"appended seek", shapesSeek(appended, 200, 1300)},
		{"appended scan", &relation{cols: shapesCols(appended), rows: appended.Scan()}},
	}
}

// materialized is a built copy of r, r itself untouched.
func materialized(r *relation) []storage.Row {
	c := *r
	materialize(&c)
	return c.rows
}

// TestRelationBytesMatchCellWalk: the size relation.measure reads from the
// segments behind a relation's sources — whole, per row, and over a row
// range, the last also through the join's sizer — equals what a walk over
// the relation's built rows sums, for every encoding and every relation
// form.
func TestRelationBytesMatchCellWalk(t *testing.T) {
	defer storage.SetSegmentRows(storage.SetSegmentRows(columnShapesSegRows))
	clean := columnShapesTable(t, "c", 1450, 10)
	appended := appendedShapesTable(t, 1450)
	for _, c := range shapesRelations(t, clean, appended) {
		rows := materialized(c.rel)
		n := c.rel.len()
		if len(rows) != n {
			t.Fatalf("%s: %d rows built, len %d", c.name, len(rows), n)
		}
		if got, want := c.rel.measure(nil), rowsBytes(rows); got != want {
			t.Fatalf("%s: measured %d bytes, a walk over its rows %d", c.name, got, want)
		}
		per := make([]int64, n)
		for i, row := range rows {
			per[i] = c.rel.measure([]int32{int32(i)})
			if want := rowsBytes([]storage.Row{row}); per[i] != want {
				t.Fatalf("%s: row %d measured %d bytes, walked %d", c.name, i, per[i], want)
			}
		}
		lo, hi := n/3, n-n/5
		var sum int64
		var sel []int32
		for i := lo; i < hi; i++ {
			sum += per[i]
			sel = append(sel, int32(i))
		}
		if got := c.rel.measure(sel); got != sum {
			t.Fatalf("%s: rows %d..%d measured %d bytes, their rows %d", c.name, lo, hi, got, sum)
		}
		if got := c.rel.sizer().measure(sel); got != sum {
			t.Fatalf("%s: rows %d..%d sized %d bytes, their rows %d", c.name, lo, hi, got, sum)
		}
	}
	// Traced through queries, over a view whose select list maps the
	// table's columns out of order: every operator's bytes are a walk's.
	res := MapResolver{
		Tables: map[string]*storage.Table{"c": clean, "a": appended},
		Views:  map[string]sqlparser.QueryExpr{"cv": sqlparser.MustParse("SELECT e, f, s, id, u, b FROM c WHERE i > 1")},
	}
	for _, sql := range []string{
		"SELECT * FROM cv WHERE s <> 'g3'",
		"SELECT u, id, f FROM cv WHERE id >= 100 AND id < 1000 ORDER BY f, id",
		"SELECT c.id, c.u, x.s, x.d FROM c LEFT JOIN a x ON c.i = x.id WHERE c.id < 500",
		"SELECT c.u, x.w FROM c FULL OUTER JOIN a x ON c.w = x.w AND c.id < x.id - 1400",
		"SELECT * FROM a WHERE id >= 300 AND id < 1200",
		"SELECT TOP 50 u, m, z FROM a ORDER BY u DESC",
	} {
		lazy := compileLive(t, res, sql)
		eager := compileLive(t, res, sql)
		withEagerOps(eager)
		lctx, ectx := &ExecContext{}, &ExecContext{}
		if _, err := lazy.Execute(lctx); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if _, err := eager.Execute(ectx); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		walked := walkedBytes(eager.Root, nil)
		for i, tn := range flattenTrace(lazy, lctx) {
			if walked[i] >= 0 && tn.Bytes != walked[i] {
				t.Fatalf("%s: %s traced %d bytes, a walk over its rows measures %d", sql, tn.PhysicalOp, tn.Bytes, walked[i])
			}
		}
	}
}

// TestTypedKeysMatchEvaluated: with vectorized execution on, a bare-column
// key gathered from the segments behind its source — or read from its cell
// where none holds the row — is the key column evaluating its closure
// builds, field for field (kind, ordered flag, NULL mask, arrays, and the
// Values of a mixed column), alone and beside a computed key, over every
// relation form, at DOP 1, 2 and 8.
func TestTypedKeysMatchEvaluated(t *testing.T) {
	parallelTestSetup(t)
	defer storage.SetSegmentRows(storage.SetSegmentRows(columnShapesSegRows))
	defer SetVectorizedEnabled(SetVectorizedEnabled(true))
	clean := columnShapesTable(t, "c", 1450, 10)
	appended := appendedShapesTable(t, 1450)
	computed := func(_ *ExecContext, ev *Env) (sqltypes.Value, error) {
		return sqltypes.NewInt(int64(len(ev.row))), nil
	}
	for _, c := range shapesRelations(t, clean, appended) {
		for j := range c.rel.cols {
			for _, withComputed := range []bool{false, true} {
				fns, cols := []exprFn{colFn(j)}, []int{j}
				if withComputed {
					fns, cols = append(fns, computed), append(cols, -1)
				}
				for _, dop := range []int{1, 2, 8} {
					ctx := &ExecContext{DOP: dop, tracer: newTracer()}
					typed, err := buildKeys(ctx, &constantScanNode{}, c.rel, nil, fns, cols)
					if err != nil {
						t.Fatal(err)
					}
					evaluated, err := buildKeys(ctx, &constantScanNode{}, c.rel, nil, fns, nil)
					if err != nil {
						t.Fatal(err)
					}
					for k := range fns {
						if diff := keyColDiff(&typed.cols[k], &evaluated.cols[k]); diff != "" {
							t.Fatalf("%s, column %s (key %d of %d, dop %d): gathered and evaluated keys differ: %s",
								c.name, c.rel.cols[j].Name, k, len(fns), dop, diff)
						}
					}
				}
			}
		}
	}
}

// keyColDiff describes the first field in which a and b differ, "" if none.
// A dictionary-coded column a and a strs column b are compared value for
// value through a's code space: the decoded strings, the NULL mask and the
// ordered flag.
func keyColDiff(a, b *keyCol) string {
	if a.kind == keyDict && b.kind == keyString {
		if a.ordered != b.ordered {
			return fmt.Sprintf("ordered %v vs %v", a.ordered, b.ordered)
		}
		for i, c := range a.codes {
			switch {
			case (c == nullCode) != b.isNull(i):
				return fmt.Sprintf("NULL at row %d: %v vs %v", i, c == nullCode, b.isNull(i))
			case c != nullCode && a.dict[c-1] != b.strs[i]:
				return fmt.Sprintf("row %d: %q vs %q", i, a.dict[c-1], b.strs[i])
			}
		}
		return ""
	}
	switch {
	case a.kind != b.kind:
		return fmt.Sprintf("kind %d vs %d", a.kind, b.kind)
	case a.ordered != b.ordered:
		return fmt.Sprintf("ordered %v vs %v", a.ordered, b.ordered)
	case (a.null == nil) != (b.null == nil) || len(a.null) != len(b.null):
		return "NULL mask presence"
	case (a.codes == nil) != (b.codes == nil) || (a.floats == nil) != (b.floats == nil) ||
		(a.strs == nil) != (b.strs == nil) || (a.vals == nil) != (b.vals == nil):
		return "arrays allocated"
	}
	for i := range a.null {
		if a.null[i] != b.null[i] {
			return fmt.Sprintf("NULL at row %d: %v vs %v", i, a.null[i], b.null[i])
		}
	}
	for i := range a.codes {
		if a.codes[i] != b.codes[i] {
			return fmt.Sprintf("codes[%d] %d vs %d", i, a.codes[i], b.codes[i])
		}
	}
	for i := range a.floats {
		if math.Float64bits(a.floats[i]) != math.Float64bits(b.floats[i]) {
			return fmt.Sprintf("floats[%d] %v vs %v", i, a.floats[i], b.floats[i])
		}
	}
	for i := range a.strs {
		if a.strs[i] != b.strs[i] {
			return fmt.Sprintf("strs[%d] %q vs %q", i, a.strs[i], b.strs[i])
		}
	}
	for i := range a.vals {
		x, y := a.vals[i], b.vals[i]
		if x.Type() != y.Type() || x.IsNull() != y.IsNull() || x.Key() != y.Key() || x.String() != y.String() {
			return fmt.Sprintf("vals[%d] %v vs %v", i, x, y)
		}
	}
	return ""
}
