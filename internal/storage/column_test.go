package storage

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"sqlshare/internal/sqltypes"
)

// randNull is a NULL of a random form: the zero Value, an untyped NULL or a
// NULL that remembers a column type.
func randNull(rng *rand.Rand) sqltypes.Value {
	switch k := rng.Intn(8); k {
	case 0:
		return sqltypes.Value{}
	case 1:
		return sqltypes.NullValue()
	default:
		return sqltypes.TypedNull(sqltypes.Type(k - 2))
	}
}

// columnKinds generate the cells of one test column, row i of n.
var columnKinds = map[string]func(rng *rand.Rand, i int) sqltypes.Value{
	"int ties": func(rng *rand.Rand, i int) sqltypes.Value { return sqltypes.NewInt(int64(rng.Intn(4))) },
	"int seq":  func(rng *rand.Rand, i int) sqltypes.Value { return sqltypes.NewInt(int64(i)) },
	"int wide": func(rng *rand.Rand, i int) sqltypes.Value {
		return sqltypes.NewInt(rng.Int63() - rng.Int63())
	},
	"float edges": func(rng *rand.Rand, i int) sqltypes.Value {
		edges := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 1.5, -2.25}
		if rng.Intn(3) == 0 {
			return sqltypes.NewFloat(edges[rng.Intn(len(edges))])
		}
		return sqltypes.NewFloat(float64(rng.Intn(200)) / 8)
	},
	"float no nan": func(rng *rand.Rand, i int) sqltypes.Value {
		return sqltypes.NewFloat(float64(rng.Intn(50)) / 4)
	},
	"bool": func(rng *rand.Rand, i int) sqltypes.Value { return sqltypes.NewBool(rng.Intn(2) == 0) },
	"time": func(rng *rand.Rand, i int) sqltypes.Value {
		return sqltypes.NewDateTime(time.Date(2014, 1, 1, 0, rng.Intn(90), 0, rng.Intn(3), time.UTC))
	},
	"time far": func(rng *rand.Rand, i int) sqltypes.Value {
		year := []int{1600, 2014, 2014, 2014, 2400}[rng.Intn(5)]
		return sqltypes.NewDateTime(time.Date(year, 5, 2, rng.Intn(24), 0, 0, 0, time.UTC))
	},
	"string few": func(rng *rand.Rand, i int) sqltypes.Value {
		return sqltypes.NewString([]string{"north", "south", "", "east"}[rng.Intn(4)])
	},
	"string 256": func(rng *rand.Rand, i int) sqltypes.Value { return sqltypes.NewString(fmt.Sprintf("v%03d", i%256)) },
	"string 257": func(rng *rand.Rand, i int) sqltypes.Value { return sqltypes.NewString(fmt.Sprintf("v%03d", i%257)) },
	"mixed":      func(rng *rand.Rand, i int) sqltypes.Value { return randValue(rng) },
}

// appendTo adds v to b by the typed append that matches v's type, or by
// Append, at random.
func appendTo(rng *rand.Rand, b *ColumnBuilder, v sqltypes.Value) {
	if v.IsNull() || rng.Intn(2) == 0 {
		b.Append(v)
		return
	}
	switch v.Type() {
	case sqltypes.Int:
		b.AppendInt(v.Int())
	case sqltypes.Float:
		b.AppendFloat(v.Float())
	case sqltypes.DateTime:
		b.AppendDateTime(v.Time())
	case sqltypes.String:
		b.AppendString(v.Str())
	default:
		b.Append(v)
	}
}

// TestColumnsEncodeAsInsert: a table built by NewTableFromColumns holds the
// segments NewTable and Insert of the same rows hold, vector for vector —
// every encoded field, and every cell read back bit for bit — over random
// columns of every kind, NULLs of every form, sorted, unsorted and tied
// keys and several segment sizes.
func TestColumnsEncodeAsInsert(t *testing.T) {
	kinds := make([]string, 0, len(columnKinds))
	for k := range columnKinds {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		segRows := []int{1, 3, 16, 64, 300}[trial%5]
		prev := SetSegmentRows(segRows)
		n := rng.Intn(4 * segRows)
		if trial%7 == 0 {
			n = 700
		}
		width := 1 + rng.Intn(4)
		schema := make(Schema, width)
		gen := make([]func(*rand.Rand, int) sqltypes.Value, width)
		nullEvery := make([]int, width)
		names := ""
		for c := range schema {
			kind := kinds[rng.Intn(len(kinds))]
			if c == 0 && trial%3 == 0 {
				kind = "int seq"
			}
			gen[c] = columnKinds[kind]
			nullEvery[c] = []int{0, 2, 9, 1000}[rng.Intn(4)]
			schema[c] = Column{Name: fmt.Sprintf("c%d", c), Type: gen[c](rng, 0).Type()}
			names += kind + "/"
		}
		rows := make([]Row, n)
		cols := make([]*ColumnBuilder, width)
		for c := range cols {
			declared := schema[c].Type
			if rng.Intn(2) == 0 {
				declared = sqltypes.Null
			}
			cols[c] = NewColumnBuilder(declared, rng.Intn(n+1))
		}
		for i := range rows {
			rows[i] = make(Row, width)
			for c := range rows[i] {
				v := gen[c](rng, i)
				if nullEvery[c] > 0 && rng.Intn(nullEvery[c]) == 0 {
					v = randNull(rng)
				}
				rows[i][c] = v
				appendTo(rng, cols[c], v)
			}
		}
		want := NewTable("t", schema)
		if err := want.Insert(rows); err != nil {
			t.Fatal(err)
		}
		got, err := NewTableFromColumns("t", schema, cols)
		SetSegmentRows(prev)
		if err != nil {
			t.Fatal(err)
		}
		if d := diffTables(got, want); d != "" {
			t.Fatalf("trial %d (%d rows of %s, %d-row segments): %s", trial, n, names, segRows, d)
		}
	}
}

// diffTables names the first difference between the segments of two
// tables, or returns "".
func diffTables(got, want *Table) string {
	g, w := got.cur.Load(), want.cur.Load()
	switch {
	case len(g.segs) != len(w.segs):
		return fmt.Sprintf("%d segments, want %d", len(g.segs), len(w.segs))
	case g.n != w.n, g.rowSize != w.rowSize, g.ordered != w.ordered:
		return fmt.Sprintf("n/rowSize/ordered %d/%d/%v, want %d/%d/%v", g.n, g.rowSize, g.ordered, w.n, w.rowSize, w.ordered)
	}
	for s := range w.segs {
		gs, ws := g.segs[s], w.segs[s]
		if gs.n != ws.n {
			return fmt.Sprintf("segment %d: %d rows, want %d", s, gs.n, ws.n)
		}
		for c := range ws.cols {
			gv, wv := gs.Col(c), ws.Col(c)
			if d := diffVectors(*gv, *wv); d != "" {
				return fmt.Sprintf("segment %d column %d: %s", s, c, d)
			}
			for i := 0; i < ws.n; i++ {
				if gc, wc := gv.Value(i), wv.Value(i); gc != wc {
					return fmt.Sprintf("segment %d column %d row %d: %v (%s), want %v (%s)", s, c, i, gc, gc.Type(), wc, wc.Type())
				}
			}
		}
	}
	return ""
}

// TestColumnBuilderValues: a builder reads back every cell appended, bit
// for bit, before and after it falls back to keeping its cells.
func TestColumnBuilderValues(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		b := NewColumnBuilder(sqltypes.Type(rng.Intn(6)), rng.Intn(10))
		var cells []sqltypes.Value
		for i := 0; i < 80; i++ {
			var v sqltypes.Value
			switch rng.Intn(4) {
			case 0:
				v = randNull(rng)
			case 1:
				v = randValue(rng)
			default:
				v = cells0(cells, rng)
			}
			cells = append(cells, v)
			appendTo(rng, b, v)
			if b.Len() != len(cells) {
				t.Fatalf("trial %d: Len %d after %d cells", trial, b.Len(), len(cells))
			}
		}
		for i, want := range cells {
			if got := b.Value(i); got != want {
				t.Fatalf("trial %d cell %d: %v (%s), want %v (%s)", trial, i, got, got.Type(), want, want.Type())
			}
		}
	}
}

// cells0 repeats the type of the first non-NULL cell so far, so a builder
// stays typed for a while before a mix arrives.
func cells0(cells []sqltypes.Value, rng *rand.Rand) sqltypes.Value {
	for _, c := range cells {
		if !c.IsNull() {
			switch c.Type() {
			case sqltypes.Int:
				return sqltypes.NewInt(int64(rng.Intn(9)))
			case sqltypes.Float:
				return sqltypes.NewFloat(float64(rng.Intn(9)) / 2)
			case sqltypes.Bool:
				return sqltypes.NewBool(rng.Intn(2) == 0)
			case sqltypes.DateTime:
				return sqltypes.NewDateTimeNano(int64(rng.Intn(1e6)))
			default:
				return sqltypes.NewString(fmt.Sprint(rng.Intn(9)))
			}
		}
	}
	return sqltypes.NewInt(1)
}
