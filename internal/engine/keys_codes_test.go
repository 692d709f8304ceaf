package engine

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"sqlshare/internal/sqltypes"
	"sqlshare/internal/storage"
)

// segFuzzSchema is the table FuzzKeyOrderSegments stores its rows in: a
// clustered id, then a VARCHAR, an INT, a FLOAT and a column mixing strings
// and numbers.
var segFuzzSchema = storage.Schema{
	{Name: "id", Type: sqltypes.Int},
	{Name: "s", Type: sqltypes.String},
	{Name: "i", Type: sqltypes.Int},
	{Name: "f", Type: sqltypes.Float},
	{Name: "m", Type: sqltypes.String},
}

// segFuzzRow decodes one row from a tag and two payload bytes: a string of
// up to two fuzzed bytes or NULL; a small INT, NULL, or — rarely — the INT
// whose code would be NULL's; a FLOAT among NULL, ±0, ±Inf, NaN and
// quarters; and a string, an INT, a FLOAT or NULL in m.
func segFuzzRow(tag, p0, p1 byte) storage.Row {
	s := sqltypes.NewString(string([]byte{p0, p1}[:tag%3]))
	if tag&7 == 0 {
		s = sqltypes.TypedNull(sqltypes.String)
	}
	i := sqltypes.NewInt(int64(int8(p1)))
	switch (tag >> 3) & 7 {
	case 0:
		i = sqltypes.TypedNull(sqltypes.Int)
	case 1:
		if p1 == 0 {
			i = sqltypes.NewInt(math.MinInt64 + int64(p0&1))
		}
	}
	var f sqltypes.Value
	switch tag >> 5 {
	case 0:
		f = sqltypes.TypedNull(sqltypes.Float)
	case 1:
		f = sqltypes.NewFloat(math.Copysign(0, -1))
		if p1 == 1 {
			f = sqltypes.NewFloat(math.NaN())
		}
	case 2:
		f = sqltypes.NewFloat(0)
	case 3:
		f = sqltypes.NewFloat(math.Inf(1))
	case 4:
		f = sqltypes.NewFloat(math.Inf(-1))
	default:
		f = sqltypes.NewFloat(float64(int8(p0)) / 4)
	}
	m := []sqltypes.Value{
		sqltypes.TypedNull(sqltypes.String), sqltypes.NewInt(int64(p0 % 4)),
		sqltypes.NewFloat(float64(p0%4) / 2), sqltypes.NewString(fmt.Sprint(p0 % 4)),
	}[p1&3]
	return storage.Row{sqltypes.NullValue(), s, i, f, m}
}

// FuzzKeyOrderSegments pins the keys buildKeys gathers from segments to the
// keys it evaluates from cells. The fuzzed rows are stored in a table of two
// or three segments, each with a dictionary of its own rows' strings; with
// overflow set, the last segment holds more distinct strings than a
// dictionary takes and is stored EncString, and the relation under test
// reads the fuzzed rows and a spread of that segment's. Over the table's row
// order and a permutation of it, at DOP 1 and 2, the gathered key set of
// every column orders, equates and hashes every row pair, groups the rows,
// sorts them and answers every probe exactly as the evaluated one does.
func FuzzKeyOrderSegments(f *testing.F) {
	f.Add([]byte("\x01ab\x09ba\x02cd\x11ab\x00zz\x29\x00\x05\x41xy\x61\x80\x7f\x03aa\x22ab"), uint8(0), false)
	f.Add([]byte("\x01ab\x09ba\x02cd\x11ab\x00zz\x29\x00\x05\x41xy\x61\x80\x7f\x03aa\x22ab"), uint8(1), true)
	f.Add([]byte("\x0a\x01\x00\x32\x01\x01\x0b\x02\x00\x0c\x03\x01\x0d\x04\x00\x0e\x05\x02"), uint8(1), false)
	f.Add([]byte("\x02\x00a\x02a\x00\x02aa\x02a\x01\x02\x01a\x01\x00\x00"), uint8(0), true)
	// Two segments whose dictionaries ([a b c], [a b d]) share and differ,
	// over ±0.
	f.Add([]byte("\x22a0\x52c1\x22b2\x52b3\x22d4\x52a5"), uint8(0), false)
	defer SetParallelTuning(SetParallelTuning(4, 8))
	defer SetVectorizedEnabled(SetVectorizedEnabled(true))
	f.Fuzz(func(t *testing.T, data []byte, segs uint8, overflow bool) {
		n := min(len(data)/3, 60)
		if n < 2 {
			return
		}
		fuzzed := make([]storage.Row, n)
		for r := range fuzzed {
			fuzzed[r] = segFuzzRow(data[3*r], data[3*r+1], data[3*r+2])
		}
		var rows []storage.Row
		var sel []int32 // the rows under test, in table order
		segRows := (n + 1 + int(segs%2)) / (2 + int(segs%2))
		if !overflow {
			rows = fuzzed
			for r := range rows {
				sel = append(sel, int32(r))
			}
		} else {
			// Two dictionary segments, each cycling half the fuzzed rows,
			// then one of distinct strings.
			const ovRows = 257
			segRows = ovRows
			for k, part := range [][]storage.Row{fuzzed[:n/2], fuzzed[n/2:]} {
				for r := 0; r < ovRows; r++ {
					if r < len(part) {
						sel = append(sel, int32(k*ovRows+r))
					}
					rows = append(rows, part[r%len(part)].Clone())
				}
			}
			prefix := fuzzed[0][1].String()
			for r := 0; r < ovRows; r++ {
				row := fuzzed[r%n].Clone()
				row[1] = sqltypes.NewString(fmt.Sprintf("%s~%03d", prefix, r))
				if r%16 == 0 {
					sel = append(sel, int32(len(rows)))
				}
				rows = append(rows, row)
			}
		}
		for r := range rows {
			rows[r][0] = sqltypes.NewInt(int64(r))
		}
		prev := storage.SetSegmentRows(segRows)
		tbl := storage.NewTable("t", segFuzzSchema)
		err := tbl.Insert(rows)
		storage.SetSegmentRows(prev)
		if err != nil {
			t.Fatal(err)
		}
		scan := shapesScan(tbl)
		perm := make([]int32, len(sel))
		for i, p := range rand.New(rand.NewSource(int64(len(data)))).Perm(len(sel)) {
			perm[i] = sel[p]
		}
		for _, rel := range []*relation{scan.pick(sel), scan.pick(perm)} {
			for j := 1; j < len(segFuzzSchema); j++ {
				src := rel.column(j)
				vals := make([]sqltypes.Value, rel.len())
				for i := range vals {
					vals[i] = src.value(i)
				}
				for _, dop := range []int{1, 2} {
					ctx := &ExecContext{DOP: dop, tracer: newTracer()}
					fns := []exprFn{colFn(j)}
					gathered, err := buildKeys(ctx, &constantScanNode{}, rel, nil, fns, []int{j})
					if err != nil {
						t.Fatal(err)
					}
					evaluated, err := buildKeys(ctx, &constantScanNode{}, rel, nil, fns, nil)
					if err != nil {
						t.Fatal(err)
					}
					what := fmt.Sprintf("column %s (dop %d, kind %d vs %d)", segFuzzSchema[j].Name, dop, gathered.cols[0].kind, evaluated.cols[0].kind)
					keySetsAgree(t, what, gathered, evaluated, vals)
				}
			}
		}
	})
}

// keySetsAgree fails t unless got decides every relation of keys.go over the
// rows of vals as want does.
func keySetsAgree(t *testing.T, what string, got, want *keySet, vals []sqltypes.Value) {
	t.Helper()
	n := len(vals)
	if got.ordered() != want.ordered() {
		t.Fatalf("%s: ordered %v vs %v", what, got.ordered(), want.ordered())
	}
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if x, y := got.cmp(a, b), want.cmp(a, b); (x < 0) != (y < 0) || (x > 0) != (y > 0) {
				t.Fatalf("%s: cmp(%v, %v) = %d, evaluated %d", what, vals[a], vals[b], x, y)
			}
			eq := got.equal(a, b)
			if eq != want.equal(a, b) {
				t.Fatalf("%s: equal(%v, %v) = %v, evaluated %v", what, vals[a], vals[b], eq, !eq)
			}
			if eq && got.hash(a) != got.hash(b) {
				t.Fatalf("%s: equal keys %v, %v hash apart", what, vals[a], vals[b])
			}
		}
	}
	for _, sorted := range []bool{false, true} {
		if x, y := got.group(n, nil, sorted), want.group(n, nil, sorted); !slices.Equal(x.ids, y.ids) {
			t.Fatalf("%s: groups (sorted %v) %v, evaluated %v", what, sorted, x.ids, y.ids)
		}
	}
	ctx := &ExecContext{tracer: newTracer()}
	for _, k := range []int{n, 1} {
		x, err := got.sortRows(ctx, &constantScanNode{}, n, k)
		if err != nil {
			t.Fatal(err)
		}
		y, err := want.sortRows(ctx, &constantScanNode{}, n, k)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(x, y) {
			t.Fatalf("%s: first %d sorted %v, evaluated %v", what, k, x, y)
		}
	}
	gt, wt := newRowTable(got, n), newRowTable(want, n)
	scratch := make([]probeKey, 1)
	probe := func(v sqltypes.Value) {
		x, xok := gt.probe([]sqltypes.Value{v}, scratch)
		y, yok := wt.probe([]sqltypes.Value{v}, scratch)
		if x != y || xok != yok {
			t.Fatalf("%s: probe with %v = %d, %v; evaluated %d, %v", what, v, x, xok, y, yok)
		}
	}
	for _, v := range vals {
		if v.IsNull() {
			continue
		}
		probe(v)
		if v.Type() == sqltypes.String {
			probe(sqltypes.NewString(v.Str() + "\x00")) // absent from the code space
		}
	}
	probe(sqltypes.NewInt(0))
	probe(sqltypes.NewFloat(-0.25))
	probe(sqltypes.NewString(""))
}

// TestDictGroupKeysAreCodes: the key column a GROUP BY on a
// dictionary-encoded VARCHAR builds is codes in one code space merged from
// the dictionaries of the segments it read — 8 bytes a row and the space,
// no []string key array — and the query groups as the strings do.
func TestDictGroupKeysAreCodes(t *testing.T) {
	const rows, groups = 6000, 20
	defer storage.SetSegmentRows(storage.SetSegmentRows(500))
	tbl := storage.NewTable("t", storage.Schema{{Name: "id", Type: sqltypes.Int}, {Name: "g", Type: sqltypes.String}})
	data := make([]storage.Row, rows)
	for i := range data {
		// Each segment of 500 rows holds 10 of the 20 strings.
		g := (i/500 + i%10) % groups
		data[i] = storage.Row{sqltypes.NewInt(int64(i)), sqltypes.NewString(fmt.Sprintf("g%02d", g))}
	}
	if err := tbl.Insert(data); err != nil {
		t.Fatal(err)
	}
	res := MapResolver{Tables: map[string]*storage.Table{"t": tbl}}
	p := compileLive(t, res, "SELECT g, COUNT(*) AS n FROM t WHERE id >= 100 GROUP BY g ORDER BY g")
	var agg *streamAggregateNode
	var find func(n Node)
	find = func(n Node) {
		if a, ok := n.(*streamAggregateNode); ok {
			agg = a
		}
		for _, c := range n.Children() {
			find(c)
		}
	}
	find(p.Root)
	if agg == nil || agg.groupCol < 0 {
		t.Fatal("no grouped aggregate on a bare column")
	}
	ctx := &ExecContext{DOP: 2, Progress: &Progress{}, tracer: newTracer()}
	in, err := execOp(ctx, agg.children[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	keys, err := buildKeys(ctx, agg, in, nil, agg.groupFns, []int{agg.groupCol})
	if err != nil {
		t.Fatal(err)
	}
	c := &keys.cols[0]
	if c.kind != keyDict || c.strs != nil || c.vals != nil || c.null != nil || len(c.dict) != groups {
		t.Fatalf("GROUP BY g built kind %d, %d strings, %d values, a code space of %d; want codes over %d strings",
			c.kind, len(c.strs), len(c.vals), len(c.dict), groups)
	}
	if got, want := keys.bytes(), int64(8*in.len()+16*groups); got != want {
		t.Fatalf("key set holds %d B, want %d", got, want)
	}
	got, err := p.Execute(&ExecContext{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != groups || got.Rows[0][0].Str() != "g00" || got.Rows[groups-1][0].Str() != "g19" {
		t.Fatalf("%d groups, first %v, last %v", len(got.Rows), got.Rows[0], got.Rows[len(got.Rows)-1])
	}
}
