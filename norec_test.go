package sqlshare

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"sqlshare/internal/engine"
	"sqlshare/internal/sqlparser"
	"sqlshare/internal/sqltypes"
	"sqlshare/internal/storage"
	"sqlshare/internal/synth"
)

// TestNoREC is the non-optimizing reference engine relation (Rigger & Su,
// ESEC/FSE 2020), an oracle that needs no second implementation: for every
// predicate p,
//
//	SELECT COUNT(*) FROM t WHERE p
//
// — which the rewrite pushes into the scan, as a clustered-index seek, a
// zone-map-pruned vectorized scan or a filtered row scan — counts what
//
//	SELECT SUM(CASE WHEN p THEN 1 ELSE 0 END) FROM t
//
// counts, which evaluates p on every row of an unfiltered scan. The
// predicates are the synth query generator's filters and a seeded generator
// of comparisons, ranges and NULL tests on the leading clustered column,
// over tables of 16-row segments whose leading column holds NULLs, NaN,
// out-of-range DATETIMEs, BITs compared with strings and mixed types (an
// EncValues vector). Every pair
// runs at DOP 1 and 8, vectorized on and off. (It found that a seek
// binary-searched a FLOAT column holding NaN, which ties every number:
// such a table, and one whose leading column mixes types, is not
// storage.Table.Ordered, and its comparisons run as scan predicates.)
func TestNoREC(t *testing.T) {
	defer storage.SetSegmentRows(storage.SetSegmentRows(16))
	tables, infos := norecTables(t)
	res := engine.MapResolver{Tables: tables}
	rng := rand.New(rand.NewSource(1))
	gen := synth.NewQueryGen(rng, synth.TemplateMix{Filter: 1}, 1, 0.5)

	var skipped int64 // segments the runs' zone maps pruned
	defer engine.SetVectorizedEnabled(engine.SetVectorizedEnabled(true))

	checked, seeks, failed := 0, 0, 0
	for _, info := range infos {
		var preds []string
		for k := 0; k < 40; k++ {
			sql, _ := gen.Build("u", info, nil)
			q, err := sqlparser.Parse(sql)
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			if sel, ok := q.(*sqlparser.Select); ok && sel.Where != nil {
				preds = append(preds, sel.Where.SQL())
			}
		}
		for k := 0; k < 60; k++ {
			preds = append(preds, norecPredicate(rng, info))
		}
		if info.Name == "tb" {
			// A BIT leading column seeks a numeric string as it seeks the number.
			preds = append(preds, "k = '1'")
			if !seekIn(t, res, "SELECT COUNT(*) FROM tb WHERE k = '1'") {
				t.Fatal("k = '1' on the BIT leading column of tb plans no seek")
			}
		}
		for _, p := range preds {
			pushed := fmt.Sprintf("SELECT COUNT(*) FROM %s WHERE %s", info.Name, p)
			scanned := fmt.Sprintf("SELECT SUM(CASE WHEN %s THEN 1 ELSE 0 END) FROM %s", p, info.Name)
			want, sk, err := norecRun(res, scanned, 1, false)
			skipped += sk
			if err != nil {
				failed++ // an error is not a count; the relation holds only between answers
				continue
			}
			if seekIn(t, res, pushed) {
				seeks++
			}
			for _, dop := range []int{1, 8} {
				for _, vec := range []bool{false, true} {
					for _, q := range []string{pushed, scanned} {
						got, sk, err := norecRun(res, q, dop, vec)
						if err != nil {
							t.Fatalf("%s (dop %d, vectorized %v): %v; the unpushed form answered %d", q, dop, vec, err, want)
						}
						skipped += sk
						if got != want {
							t.Fatalf("%s (dop %d, vectorized %v) = %d, want %d as\n%s", q, dop, vec, got, want, scanned)
						}
					}
				}
			}
			checked++
		}
	}
	t.Logf("%d predicates checked (%d pushed into a seek), %d errored, %d segments pruned", checked, seeks, failed, skipped)
	if checked < 400 || seeks < 50 || skipped == 0 || failed > checked/10 {
		t.Fatalf("the corpus exercised too little: %d checked, %d seeks, %d errored, %d segments pruned", checked, seeks, failed, skipped)
	}
}

// FuzzNoREC checks TestNoREC's relation, at the same DOPs and toggle
// settings, for norecPredicate's predicates drawn from a fuzzed seed over a
// fuzzed table of norecTables. Its seek bounds fall mid-segment, so a seek
// reads clipped first and last segments.
func FuzzNoREC(f *testing.F) {
	defer storage.SetSegmentRows(storage.SetSegmentRows(16))
	defer engine.SetVectorizedEnabled(engine.VectorizedEnabled())
	tables, infos := norecTables(f)
	res := engine.MapResolver{Tables: tables}
	for i := range infos {
		f.Add(int64(i), uint8(i))
	}
	f.Fuzz(func(t *testing.T, seed int64, table uint8) {
		info := infos[int(table)%len(infos)]
		p := norecPredicate(rand.New(rand.NewSource(seed)), info)
		pushed := fmt.Sprintf("SELECT COUNT(*) FROM %s WHERE %s", info.Name, p)
		scanned := fmt.Sprintf("SELECT SUM(CASE WHEN %s THEN 1 ELSE 0 END) FROM %s", p, info.Name)
		want, _, err := norecRun(res, scanned, 1, false)
		if err != nil {
			return // an error is not a count; the relation holds only between answers
		}
		for _, dop := range []int{1, 8} {
			for _, vec := range []bool{false, true} {
				for _, q := range []string{pushed, scanned} {
					got, _, err := norecRun(res, q, dop, vec)
					if err != nil {
						t.Fatalf("%s (dop %d, vectorized %v): %v; the unpushed form answered %d", q, dop, vec, err, want)
					}
					if got != want {
						t.Fatalf("%s (dop %d, vectorized %v) = %d, want %d as\n%s", q, dop, vec, got, want, scanned)
					}
				}
			}
		}
	})
}

// norecRun runs a one-cell count query (a NULL count, no row summed, is 0)
// and reports the segments its zone maps pruned.
func norecRun(res engine.Resolver, sql string, dop int, vectorized bool) (n, skipped int64, err error) {
	defer engine.SetVectorizedEnabled(engine.SetVectorizedEnabled(vectorized))
	ctx := &engine.ExecContext{DOP: dop}
	r, err := engine.Query(sql, res, ctx)
	_, skipped = ctx.Segments()
	if err != nil {
		return 0, skipped, err
	}
	if len(r.Rows) != 1 || len(r.Rows[0]) != 1 {
		return 0, skipped, fmt.Errorf("%d rows, want one count", len(r.Rows))
	}
	return r.Rows[0][0].Int(), skipped, nil
}

// seekIn reports whether sql's plan reads its table through a seek.
func seekIn(t *testing.T, res engine.Resolver, sql string) bool {
	t.Helper()
	q, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	p, err := engine.Compile(q, res)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	var seek func(n engine.Node) bool
	seek = func(n engine.Node) bool {
		if n.Props().PhysicalOp == "Clustered Index Seek" {
			return true
		}
		for _, c := range n.Children() {
			if seek(c) {
				return true
			}
		}
		return false
	}
	return seek(p.Root)
}

// norecTables builds six 200-row tables whose leading columns are an INT,
// a FLOAT, a DATETIME, a VARCHAR, a mix of every type and a BIT, each with
// NULLs, and each beside the same INT, FLOAT (NaN), VARCHAR and BIT columns.
func norecTables(t testing.TB) (map[string]*storage.Table, []*synth.TableInfo) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	day := time.Date(2012, 1, 1, 0, 0, 0, 0, time.UTC)
	leads := map[string]struct {
		typ  sqltypes.Type
		cell func(i int) sqltypes.Value
	}{
		"ti": {sqltypes.Int, func(i int) sqltypes.Value { return sqltypes.NewInt(int64(rng.Intn(60) - 5)) }},
		"tf": {sqltypes.Float, func(i int) sqltypes.Value {
			return sqltypes.NewFloat([]float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), float64(rng.Intn(100)) / 4}[min(rng.Intn(12), 5)])
		}},
		"td": {sqltypes.DateTime, func(i int) sqltypes.Value {
			if rng.Intn(40) == 0 {
				return sqltypes.NewDateTime(time.Date(2400, 1, 1, 0, 0, 0, 0, time.UTC))
			}
			return sqltypes.NewDateTime(day.AddDate(0, 0, rng.Intn(1500)))
		}},
		"ts": {sqltypes.String, func(i int) sqltypes.Value {
			if rng.Intn(3) == 0 {
				return sqltypes.NewString(fmt.Sprint(rng.Intn(50)))
			}
			return sqltypes.NewString(fmt.Sprintf("%c%d", 'a'+rng.Intn(26), rng.Intn(9)))
		}},
		"tm": {sqltypes.Float, func(i int) sqltypes.Value { return norecMixed(rng, day) }},
		"tb": {sqltypes.Bool, func(i int) sqltypes.Value { return sqltypes.NewBool(rng.Intn(2) == 0) }},
	}
	tables := map[string]*storage.Table{}
	var infos []*synth.TableInfo
	for _, name := range []string{"ti", "tf", "td", "ts", "tm", "tb"} {
		lead := leads[name]
		schema := storage.Schema{
			{Name: "k", Type: lead.typ},
			{Name: "n", Type: sqltypes.Int},
			{Name: "x", Type: sqltypes.Float},
			{Name: "s", Type: sqltypes.String},
			{Name: "b", Type: sqltypes.Bool},
		}
		rows := make([]storage.Row, 200)
		for i := range rows {
			k := lead.cell(i)
			if rng.Intn(10) == 0 {
				k = sqltypes.TypedNull(lead.typ)
			}
			x := sqltypes.NewFloat(float64(rng.Intn(80)) / 2)
			if rng.Intn(15) == 0 {
				x = sqltypes.NewFloat(math.NaN())
			}
			rows[i] = storage.Row{
				k,
				sqltypes.NewInt(int64(rng.Intn(50))),
				x,
				sqltypes.NewString(fmt.Sprintf("%c%02d", 'a'+rng.Intn(26), rng.Intn(40))),
				sqltypes.NewBool(rng.Intn(2) == 0),
			}
			if rng.Intn(12) == 0 {
				rows[i][1+rng.Intn(4)] = sqltypes.TypedNull(schema[1+rng.Intn(4)].Type)
			}
		}
		tbl := storage.NewTable(name, schema)
		if err := tbl.Insert(rows); err != nil {
			t.Fatal(err)
		}
		tables[name] = tbl
		info := &synth.TableInfo{Owner: "u", Name: name}
		for _, c := range schema {
			info.Cols = append(info.Cols, synth.ColumnInfo{Name: c.Name, Type: c.Type})
		}
		infos = append(infos, info)
	}
	return tables, infos
}

func norecMixed(rng *rand.Rand, day time.Time) sqltypes.Value {
	switch rng.Intn(6) {
	case 0:
		return sqltypes.NewInt(int64(rng.Intn(40)))
	case 1:
		return sqltypes.NewFloat(float64(rng.Intn(80)) / 2)
	case 2:
		return sqltypes.NewString(fmt.Sprint(rng.Intn(40)))
	case 3:
		return sqltypes.NewString(fmt.Sprintf("w%d", rng.Intn(9)))
	case 4:
		return sqltypes.NewDateTime(day.AddDate(0, 0, rng.Intn(900)))
	default:
		return sqltypes.NewBool(rng.Intn(2) == 0)
	}
}

// norecLiteral draws a literal of any type the leading columns hold.
func norecLiteral(rng *rand.Rand) string {
	switch rng.Intn(9) {
	case 0:
		return fmt.Sprint(rng.Intn(60) - 5)
	case 1:
		return fmt.Sprintf("%.2f", float64(rng.Intn(200))/4-1)
	case 2:
		return "'" + fmt.Sprint(rng.Intn(50)) + "'"
	case 3:
		return fmt.Sprintf("'%c%d'", 'a'+rng.Intn(26), rng.Intn(9))
	case 4:
		return fmt.Sprintf("'%d-%02d-%02d'", 2011+rng.Intn(6), 1+rng.Intn(12), 1+rng.Intn(28))
	case 5:
		return "-0.0"
	case 6:
		return "NULL"
	default:
		return fmt.Sprint(rng.Intn(40))
	}
}

// norecBoolLiteral draws a literal for a BIT leading column: numbers, and
// strings a BIT compares with as numbers or not at all.
func norecBoolLiteral(rng *rand.Rand) string {
	lits := []string{"0", "1", "'1'", "'0'", "' 1 '", "'true'", "1.5", "-0.0", "2", "'NaN'", "'x'", "NULL"}
	return lits[rng.Intn(len(lits))]
}

// norecPredicate draws a predicate on the leading column k — a comparison, a
// range of two, a BETWEEN or a NULL test — sometimes with a conjunct, a
// disjunct or a negation over another column.
func norecPredicate(rng *rand.Rand, info *synth.TableInfo) string {
	ops := []string{"=", "<>", "<", "<=", ">", ">="}
	lit := norecLiteral
	if info.Cols[0].Type == sqltypes.Bool {
		lit = norecBoolLiteral
	}
	var p string
	switch rng.Intn(6) {
	case 0, 1:
		p = fmt.Sprintf("k %s %s", ops[rng.Intn(len(ops))], lit(rng))
	case 2:
		p = fmt.Sprintf("k %s %s AND k %s %s", []string{">", ">="}[rng.Intn(2)], lit(rng),
			[]string{"<", "<="}[rng.Intn(2)], lit(rng))
	case 3:
		p = fmt.Sprintf("k BETWEEN %s AND %s", lit(rng), lit(rng))
	case 4:
		p = "k IS " + []string{"NULL", "NOT NULL"}[rng.Intn(2)]
	default:
		p = fmt.Sprintf("%s %s k", lit(rng), ops[rng.Intn(len(ops))])
	}
	other := info.Cols[1+rng.Intn(len(info.Cols)-1)].Name
	switch rng.Intn(5) {
	case 0:
		p += fmt.Sprintf(" AND %s %s %s", other, ops[rng.Intn(len(ops))], norecLiteral(rng))
	case 1:
		p = fmt.Sprintf("(%s) OR %s IS NULL", p, other)
	case 2:
		p = fmt.Sprintf("NOT (%s)", p)
	}
	return strings.TrimSpace(p)
}
