package storage

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"testing"
	"time"

	"sqlshare/internal/sqltypes"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/codec.golden")

// codecValues covers every type and edge the value layout has to carry
// through the codec: typed NULLs, integer and float extremes, DATETIMEs
// with nanoseconds, before 1970 and outside the nanosecond range, and
// strings with quotes, NUL and UTF-8.
func codecValues() []sqltypes.Value {
	utc := func(y int, mo time.Month, d, h, mi, s, ns int) sqltypes.Value {
		return sqltypes.NewDateTime(time.Date(y, mo, d, h, mi, s, ns, time.UTC))
	}
	return []sqltypes.Value{
		{},
		sqltypes.NullValue(),
		sqltypes.TypedNull(sqltypes.Bool),
		sqltypes.TypedNull(sqltypes.Int),
		sqltypes.TypedNull(sqltypes.Float),
		sqltypes.TypedNull(sqltypes.DateTime),
		sqltypes.TypedNull(sqltypes.String),
		sqltypes.NewInt(0),
		sqltypes.NewInt(-1),
		sqltypes.NewInt(math.MinInt64),
		sqltypes.NewInt(math.MaxInt64),
		sqltypes.NewInt(1<<53 + 1),
		sqltypes.NewFloat(0),
		sqltypes.NewFloat(math.Copysign(0, -1)),
		sqltypes.NewFloat(-2.25),
		sqltypes.NewFloat(math.NaN()),
		sqltypes.NewFloat(math.Inf(1)),
		sqltypes.NewFloat(math.Inf(-1)),
		sqltypes.NewFloat(1<<53 + 2),
		sqltypes.NewFloat(5e-324),
		sqltypes.NewBool(false),
		sqltypes.NewBool(true),
		utc(2014, 3, 1, 1, 0, 0, 123456789),
		utc(1969, 12, 31, 23, 59, 59, 999999999),
		utc(1, 1, 1, 0, 0, 0, 0),
		utc(9999, 12, 31, 23, 59, 59, 999999999),
		utc(2262, 4, 11, 23, 47, 16, 854775807),
		sqltypes.NewString(""),
		sqltypes.NewString("it's"),
		sqltypes.NewString("nul\x00byte"),
		sqltypes.NewString("héllo 日本語"),
	}
}

// TestCodecGolden pins the durable form of values and tables: the bytes the
// WAL and snapshots write for each value, and for a table holding every
// finite one, must match those recorded before the value layout last
// changed, and decoding the recorded bytes must give back the values.
func TestCodecGolden(t *testing.T) {
	vals := codecValues()
	var b bytes.Buffer
	for i, v := range vals {
		enc, err := json.Marshal(EncodeValue(v))
		if err != nil {
			// NaN and ±Inf have no JSON form.
			fmt.Fprintf(&b, "v%02d error %v\n", i, err)
			continue
		}
		var d ValueData
		if err := json.Unmarshal(enc, &d); err != nil {
			t.Fatal(err)
		}
		back, err := d.Value()
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "v%02d %s -> %s %q key=%x\n", i, enc, back.Type(), back.String(), back.Key())
	}

	// One table per type, each row one finite value of it, and the bytes of
	// the whole table as Data encodes it.
	cols := Schema{{Name: "v", Type: sqltypes.String}}
	for _, typ := range []sqltypes.Type{sqltypes.Bool, sqltypes.Int, sqltypes.Float, sqltypes.DateTime, sqltypes.String} {
		cols[0].Type = typ
		tbl := NewTable("t_"+typ.String(), cols)
		var rows []Row
		for _, v := range vals {
			if v.Type() == typ && !(typ == sqltypes.Float && (math.IsNaN(v.Float()) || math.IsInf(v.Float(), 0))) {
				rows = append(rows, Row{v})
			}
		}
		if err := tbl.Insert(rows); err != nil {
			t.Fatal(err)
		}
		enc, err := json.Marshal(tbl.Data())
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s\n", enc)
		var d TableData
		if err := json.Unmarshal(enc, &d); err != nil {
			t.Fatal(err)
		}
		rt, err := d.Table()
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range rt.Scan() {
			if got, want := r[0].Key(), tbl.Scan()[i][0].Key(); got != want {
				t.Errorf("%s row %d: decoded key %x, want %x", typ, i, got, want)
			}
		}
	}

	const path = "testdata/codec.golden"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b.Bytes(), want) {
		t.Fatalf("codec bytes differ from %s:\n got:\n%s\nwant:\n%s", path, b.Bytes(), want)
	}
}
