package sqltypes

import (
	"testing"
	"testing/quick"
	"time"
)

func TestCastBasics(t *testing.T) {
	v, err := Cast(NewString("42"), Int)
	if err != nil || v.Int() != 42 {
		t.Fatalf("cast '42' to INT: %v %v", v, err)
	}
	v, err = Cast(NewFloat(3.9), Int)
	if err != nil || v.Int() != 3 {
		t.Fatalf("cast 3.9 to INT should truncate: %v %v", v, err)
	}
	v, err = Cast(NewFloat(-3.9), Int)
	if err != nil || v.Int() != -3 {
		t.Fatalf("cast -3.9 to INT should truncate toward zero: %v %v", v, err)
	}
	v, err = Cast(NewInt(7), Float)
	if err != nil || v.Float() != 7.0 {
		t.Fatalf("cast 7 to FLOAT: %v %v", v, err)
	}
	v, err = Cast(NewInt(0), Bool)
	if err != nil || v.Bool() {
		t.Fatalf("cast 0 to BIT: %v %v", v, err)
	}
	v, err = Cast(NewString("2015-06-01"), DateTime)
	if err != nil || v.Time().Year() != 2015 {
		t.Fatalf("cast date string: %v %v", v, err)
	}
	v, err = Cast(NewFloat(1.5), String)
	if err != nil || v.Str() != "1.5" {
		t.Fatalf("cast to VARCHAR: %v %v", v, err)
	}
}

func TestCastNullPropagates(t *testing.T) {
	v, err := Cast(NullValue(), Int)
	if err != nil || !v.IsNull() || v.Type() != Int {
		t.Fatalf("CAST(NULL AS INT) = %v, %v", v, err)
	}
}

func TestCastFailures(t *testing.T) {
	if _, err := Cast(NewString("abc"), Int); err == nil {
		t.Error("cast 'abc' to INT should fail")
	}
	if _, err := Cast(NewString("3.7"), Int); err == nil {
		t.Error("cast '3.7' to INT should fail (non-integral)")
	}
	if _, err := Cast(NewString("not a date"), DateTime); err == nil {
		t.Error("cast 'not a date' to DATETIME should fail")
	}
	if _, err := Cast(NewString("maybe"), Bool); err == nil {
		t.Error("cast 'maybe' to BIT should fail")
	}
}

func TestParseTypeName(t *testing.T) {
	cases := map[string]Type{
		"int": Int, "INTEGER": Int, "bigint": Int,
		"float": Float, "DECIMAL(10,2)": Float, "real": Float,
		"varchar(100)": String, "NVARCHAR(MAX)": String, "text": String,
		"datetime": DateTime, "DATE": DateTime,
		"bit": Bool,
	}
	for name, want := range cases {
		got, err := ParseTypeName(name)
		if err != nil || got != want {
			t.Errorf("ParseTypeName(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseTypeName("blob"); err == nil {
		t.Error("unknown type should error")
	}
}

func TestInferValueType(t *testing.T) {
	cases := map[string]Type{
		"42":                  Int,
		"-17":                 Int,
		"3.14":                Float,
		"1e5":                 Float,
		"2014-05-02":          DateTime,
		"2014-05-02 10:00:00": DateTime,
		"true":                Bool,
		"FALSE":               Bool,
		"hello":               String,
		"":                    Null,
		"  ":                  Null,
		"NaN-ish text":        String,
	}
	for raw, want := range cases {
		if got := InferValueType(raw); got != want {
			t.Errorf("InferValueType(%q) = %v, want %v", raw, got, want)
		}
	}
}

func TestWidenLattice(t *testing.T) {
	cases := []struct{ a, b, want Type }{
		{Int, Int, Int},
		{Int, Float, Float},
		{Float, Int, Float},
		{Int, Bool, Int},
		{Null, Int, Int},
		{DateTime, Null, DateTime},
		{Int, String, String},
		{DateTime, Float, String},
		{Bool, DateTime, String},
	}
	for _, c := range cases {
		if got := Widen(c.a, c.b); got != c.want {
			t.Errorf("Widen(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestWidenCommutative(t *testing.T) {
	all := []Type{Null, Bool, Int, Float, DateTime, String}
	for _, a := range all {
		for _, b := range all {
			if Widen(a, b) != Widen(b, a) {
				t.Errorf("Widen not commutative for %v,%v", a, b)
			}
		}
	}
}

func TestParseAs(t *testing.T) {
	v, ok := ParseAs("12", Int)
	if !ok || v.Int() != 12 {
		t.Fatalf("ParseAs int: %v %v", v, ok)
	}
	v, ok = ParseAs("", Float)
	if !ok || !v.IsNull() || v.Type() != Float {
		t.Fatalf("ParseAs empty should be typed NULL: %v %v", v, ok)
	}
	if _, ok = ParseAs("xyz", Int); ok {
		t.Fatal("ParseAs should report failure for non-int text")
	}
	v, ok = ParseAs("  spacey  ", String)
	if !ok || v.Str() != "  spacey  " {
		t.Fatalf("ParseAs string should preserve raw text: %q", v.Str())
	}
}

func TestQuickInferThenParseRoundTrips(t *testing.T) {
	// Property: whatever type we infer for a non-empty string, parsing the
	// string as that type must succeed.
	f := func(raw string) bool {
		typ := InferValueType(raw)
		if typ == Null {
			return true
		}
		_, ok := ParseAs(raw, typ)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestQuickCastIntFloatRoundTrip(t *testing.T) {
	f := func(i int32) bool {
		v, err := Cast(NewInt(int64(i)), Float)
		if err != nil {
			return false
		}
		back, err := Cast(v, Int)
		return err == nil && back.Int() == int64(i)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDateTimeLayouts(t *testing.T) {
	for _, s := range []string{
		"2014-05-02T10:00:00Z", "2014-05-02 10:00:00", "2014-05-02",
		"05/02/2014", "2014/05/02", "05/02/2014 10:00:00",
	} {
		got, ok := ParseDateTime(s)
		if !ok {
			t.Errorf("ParseDateTime(%q) failed", s)
			continue
		}
		if got.Year() != 2014 || got.Month() != time.May || got.Day() != 2 {
			t.Errorf("ParseDateTime(%q) = %v", s, got)
		}
	}
}
