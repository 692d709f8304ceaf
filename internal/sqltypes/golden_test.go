package sqltypes

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"testing"
	"time"
	"unsafe"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/value_semantics.golden")

// TestValueLayout pins the width of a cell: every table row, key column
// fallback, cached result and job result holds its values at this size.
func TestValueLayout(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 32 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want 32", got)
	}
}

// goldenValues is the corpus the semantics golden is recorded over: every
// type, the zero Value and typed NULLs, the float and integer edges, and
// DATETIMEs across and beyond the nanosecond range.
func goldenValues() []Value {
	utc := func(y int, mo time.Month, d, h, mi, s, ns int) Value {
		return NewDateTime(time.Date(y, mo, d, h, mi, s, ns, time.UTC))
	}
	return []Value{
		{},
		NullValue(),
		TypedNull(Null),
		TypedNull(Bool),
		TypedNull(Int),
		TypedNull(Float),
		TypedNull(DateTime),
		TypedNull(String),

		NewInt(0),
		NewInt(1),
		NewInt(-1),
		NewInt(42),
		NewInt(math.MinInt64),
		NewInt(math.MaxInt64),
		NewInt(1 << 53),
		NewInt(1<<53 + 1),
		NewInt(-(1<<53 + 1)),

		NewFloat(0),
		NewFloat(math.Copysign(0, -1)),
		NewFloat(1),
		NewFloat(1.5),
		NewFloat(-2.25),
		NewFloat(42),
		NewFloat(math.NaN()),
		NewFloat(math.Inf(1)),
		NewFloat(math.Inf(-1)),
		NewFloat(1 << 53),
		NewFloat(1<<53 + 2),
		NewFloat(1e300),
		NewFloat(5e-324),
		NewFloat(-9.223372036854775808e18),

		NewBool(false),
		NewBool(true),

		utc(2014, 3, 1, 0, 0, 0, 0),
		utc(2014, 3, 1, 1, 0, 0, 123456789),
		utc(1970, 1, 1, 0, 0, 0, 0),
		utc(1969, 12, 31, 23, 59, 59, 999999999),
		utc(1900, 1, 1, 0, 0, 0, 0),
		utc(1, 1, 1, 0, 0, 0, 0),
		utc(1, 1, 1, 0, 0, 0, 1),
		utc(9999, 12, 31, 23, 59, 59, 999999999),
		utc(1677, 9, 21, 0, 12, 44, 0),
		utc(2262, 4, 11, 23, 47, 16, 854775807),
		NewDateTime(time.Date(2014, 3, 1, 5, 30, 0, 500, time.FixedZone("X", 5*3600+1800))),
		NewDateTime(time.Time{}),

		NewString(""),
		NewString("a"),
		NewString("hello"),
		NewString("it's"),
		NewString("O''Brien"),
		NewString("nul\x00byte"),
		NewString("héllo"),
		NewString("日本語"),
		NewString("42"),
		NewString("  3.5 "),
		NewString("-0"),
		NewString("NaN"),
		NewString("Infinity"),
		NewString("2014-03-01"),
		NewString("2014-03-01 01:00:00"),
		NewString("NULL"),
		NewString("true"),
	}
}

// describe renders every accessor of v, so a layout change that moves any
// of them shows in the golden.
func describe(v Value) string {
	f := v.Float()
	tm := v.Time()
	return fmt.Sprintf("type=%s null=%t numeric=%t int=%d float=%s/%016x str=%q bool=%t time=%s/%s/zero=%t string=%q literal=%q size=%d key=%x",
		v.Type(), v.IsNull(), v.IsNumeric(), v.Int(),
		strconv.FormatFloat(f, 'g', -1, 64), math.Float64bits(f),
		v.Str(), v.Bool(), tm.Format(time.RFC3339Nano), tm.Location(), tm == time.Time{},
		v.String(), v.SQLLiteral(), v.SizeBytes(), v.Key())
}

// TestValueSemanticsGolden records every accessor, rendering, size, key and
// cast of each corpus value, and Compare, SortCompare and Equal of each
// pair, against a file recorded before the value layout last changed: the
// layout is free to move, the semantics are not.
func TestValueSemanticsGolden(t *testing.T) {
	vals := goldenValues()
	var b bytes.Buffer
	for i, v := range vals {
		fmt.Fprintf(&b, "v%02d %s\n", i, describe(v))
		for _, to := range []Type{Null, Bool, Int, Float, DateTime, String} {
			c, err := Cast(v, to)
			if err != nil {
				fmt.Fprintf(&b, "v%02d cast %s: error %v\n", i, to, err)
				continue
			}
			fmt.Fprintf(&b, "v%02d cast %s: %s\n", i, to, describe(c))
		}
	}
	for i, a := range vals {
		for j, c := range vals {
			cmp, ok := Compare(a, c)
			fmt.Fprintf(&b, "v%02d v%02d compare=%d,%t sort=%d equal=%d\n",
				i, j, cmp, ok, SortCompare(a, c), Equal(a, c))
		}
	}
	const path = "testdata/value_semantics.golden"
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
		got, wantLines := bytes.Split(b.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for k := 0; k < len(got) && k < len(wantLines); k++ {
			if !bytes.Equal(got[k], wantLines[k]) {
				t.Fatalf("line %d differs:\n got %s\nwant %s", k+1, got[k], wantLines[k])
			}
		}
		t.Fatalf("golden differs in length: got %d lines, want %d", len(got), len(wantLines))
	}
}
