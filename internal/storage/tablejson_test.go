package storage

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"
	"time"

	"sqlshare/internal/sqltypes"
)

// checkTableJSON requires AppendJSON to append exactly json.Marshal(t.Data())
// and to leave what buf already held alone.
func checkTableJSON(t *testing.T, tbl *Table) {
	t.Helper()
	want, err := json.Marshal(tbl.Data())
	if err != nil {
		t.Fatal(err)
	}
	prefix := []byte("prefix:")
	got := tbl.AppendJSON(append([]byte(nil), prefix...))
	if !bytes.HasPrefix(got, prefix) {
		t.Fatalf("AppendJSON overwrote the buffer's prefix: %q", got)
	}
	if got = got[len(prefix):]; !bytes.Equal(got, want) {
		t.Fatalf("AppendJSON differs from json.Marshal(Data):\n got %s\nwant %s", got, want)
	}
}

// TestAppendJSONMatchesMarshal runs every codec edge value, NaN and ±Inf
// included, through both encoders, one single-column table per value, and
// tables with no rows and no columns.
func TestAppendJSONMatchesMarshal(t *testing.T) {
	for _, v := range codecValues() {
		tbl := NewTable("t", Schema{{Name: "v", Type: v.Type()}})
		if err := tbl.Insert([]Row{{v}}); err != nil {
			t.Fatal(err)
		}
		checkTableJSON(t, tbl)
	}
	checkTableJSON(t, NewTable("empty", Schema{{Name: "a", Type: sqltypes.Int}}))
	checkTableJSON(t, NewTable("", nil))
}

// FuzzTableJSON: random typed rows — NULLs of every type, cells whose type
// is not their column's, and the fuzzed string, float and DATETIME second
// (escapes, invalid UTF-8, exponent-range floats, dates before 1970 and
// beyond year 9999) in names and cells — encode by AppendJSON to exactly
// json.Marshal(t.Data()).
func FuzzTableJSON(f *testing.F) {
	f.Add(int64(1), "it's <&> \u2028\u2029 ok", math.NaN(), int64(-1))
	f.Add(int64(2), "bad\xff\xfeutf8", 1e-7, int64(-62135596800))
	f.Add(int64(3), "", 1e21, int64(0))
	f.Add(int64(4), "\x00\x1f\"\\\b\f\n\r\t", 5e-324, int64(253402300799))
	f.Add(int64(5), "日本語", math.Inf(-1), int64(1<<40))
	f.Fuzz(func(t *testing.T, seed int64, s string, x float64, sec int64) {
		rng := rand.New(rand.NewSource(seed))
		types := []sqltypes.Type{sqltypes.Null, sqltypes.Bool, sqltypes.Int, sqltypes.Float, sqltypes.DateTime, sqltypes.String}
		cell := func() sqltypes.Value {
			typ := types[rng.Intn(len(types))]
			if typ == sqltypes.Null || rng.Intn(6) == 0 {
				return sqltypes.TypedNull(typ)
			}
			switch typ {
			case sqltypes.Bool:
				return sqltypes.NewBool(rng.Intn(2) == 0)
			case sqltypes.Int:
				return sqltypes.NewInt(int64(rng.Uint64()) >> uint(rng.Intn(64)))
			case sqltypes.Float:
				if rng.Intn(2) == 0 {
					return sqltypes.NewFloat(x)
				}
				return sqltypes.NewFloat(math.Float64frombits(rng.Uint64()))
			case sqltypes.DateTime:
				return sqltypes.NewDateTime(time.Unix(sec+int64(rng.Intn(3))-1, int64(rng.Intn(1e9))))
			default:
				if rng.Intn(2) == 0 {
					return sqltypes.NewString(s)
				}
				return sqltypes.NewString(s[:rng.Intn(len(s)+1)])
			}
		}
		schema := make(Schema, 1+rng.Intn(5))
		for i := range schema {
			schema[i] = Column{Name: s[:rng.Intn(len(s)+1)], Type: types[rng.Intn(len(types))]}
		}
		tbl := NewTable(s, schema)
		rows := make([]Row, rng.Intn(12))
		for i := range rows {
			rows[i] = make(Row, len(schema))
			for j := range rows[i] {
				rows[i][j] = cell()
			}
		}
		if err := tbl.Insert(rows); err != nil {
			t.Fatal(err)
		}
		checkTableJSON(t, tbl)
	})
}

// BenchmarkTableJSON compares the encoder the log and snapshots use with
// the Data + json.Marshal path it replaced, on a 24,000-row table of every
// column type.
func BenchmarkTableJSON(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	tbl := NewTable("bench", Schema{
		{Name: "id", Type: sqltypes.Int},
		{Name: "site", Type: sqltypes.String},
		{Name: "val", Type: sqltypes.Float},
		{Name: "at", Type: sqltypes.DateTime},
		{Name: "ok", Type: sqltypes.Bool},
	})
	rows := make([]Row, 24_000)
	day := time.Date(2014, 3, 1, 0, 0, 0, 0, time.UTC)
	for i := range rows {
		rows[i] = Row{
			sqltypes.NewInt(int64(i)),
			sqltypes.NewString("site-" + string(rune('a'+rng.Intn(26)))),
			sqltypes.NewFloat(rng.Float64() * 100),
			sqltypes.NewDateTime(day.Add(time.Duration(rng.Intn(1e6)) * time.Second)),
			sqltypes.NewBool(rng.Intn(2) == 0),
		}
	}
	if err := tbl.Insert(rows); err != nil {
		b.Fatal(err)
	}
	b.Run("AppendJSON", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for i := 0; i < b.N; i++ {
			buf = tbl.AppendJSON(buf[:0])
		}
		b.SetBytes(int64(len(buf)))
	})
	b.Run("DataMarshal", func(b *testing.B) {
		b.ReportAllocs()
		var n int
		for i := 0; i < b.N; i++ {
			enc, err := json.Marshal(tbl.Data())
			if err != nil {
				b.Fatal(err)
			}
			n = len(enc)
		}
		b.SetBytes(int64(n))
	})
}
