package sqltypes

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestZeroValueIsNull(t *testing.T) {
	var v Value
	if !v.IsNull() {
		t.Fatal("zero Value should be NULL")
	}
	if v.Type() != Null {
		t.Fatalf("zero Value type = %v, want Null", v.Type())
	}
	if v.String() != "NULL" {
		t.Fatalf("zero Value String = %q", v.String())
	}
}

func TestConstructorsAndAccessors(t *testing.T) {
	if got := NewInt(42); got.Int() != 42 || got.Type() != Int || got.IsNull() {
		t.Errorf("NewInt: %+v", got)
	}
	if got := NewFloat(2.5); got.Float() != 2.5 || got.Type() != Float {
		t.Errorf("NewFloat: %+v", got)
	}
	if got := NewString("hi"); got.Str() != "hi" || got.Type() != String {
		t.Errorf("NewString: %+v", got)
	}
	if got := NewBool(true); !got.Bool() || got.Type() != Bool {
		t.Errorf("NewBool: %+v", got)
	}
	ts := time.Date(2014, 7, 1, 10, 30, 0, 0, time.UTC)
	if got := NewDateTime(ts); !got.Time().Equal(ts) || got.Type() != DateTime {
		t.Errorf("NewDateTime: %+v", got)
	}
	if got := TypedNull(Float); !got.IsNull() || got.Type() != Float {
		t.Errorf("TypedNull: %+v", got)
	}
}

func TestIntFloatConversion(t *testing.T) {
	if got := NewInt(7).Float(); got != 7.0 {
		t.Errorf("Int.Float() = %v", got)
	}
	if got := NewBool(true).Float(); got != 1.0 {
		t.Errorf("Bool.Float() = %v", got)
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{NewInt(-3), "-3"},
		{NewFloat(1.5), "1.5"},
		{NewFloat(2), "2"},
		{NewBool(false), "0"},
		{NewBool(true), "1"},
		{NewString("abc"), "abc"},
		{NullValue(), "NULL"},
		{NewDateTime(time.Date(2013, 2, 3, 4, 5, 6, 0, time.UTC)), "2013-02-03 04:05:06"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String(%v) = %q, want %q", c.v.Type(), got, c.want)
		}
	}
}

func TestSQLLiteral(t *testing.T) {
	if got := NewString("o'brien").SQLLiteral(); got != "'o''brien'" {
		t.Errorf("SQLLiteral string = %q", got)
	}
	if got := NewInt(5).SQLLiteral(); got != "5" {
		t.Errorf("SQLLiteral int = %q", got)
	}
	if got := NullValue().SQLLiteral(); got != "NULL" {
		t.Errorf("SQLLiteral null = %q", got)
	}
}

func TestTristateLogic(t *testing.T) {
	if True.And(Unknown) != Unknown {
		t.Error("TRUE AND UNKNOWN should be UNKNOWN")
	}
	if False.And(Unknown) != False {
		t.Error("FALSE AND UNKNOWN should be FALSE")
	}
	if True.Or(Unknown) != True {
		t.Error("TRUE OR UNKNOWN should be TRUE")
	}
	if False.Or(Unknown) != Unknown {
		t.Error("FALSE OR UNKNOWN should be UNKNOWN")
	}
	if Unknown.Not() != Unknown {
		t.Error("NOT UNKNOWN should be UNKNOWN")
	}
	if True.Not() != False || False.Not() != True {
		t.Error("NOT truth table broken")
	}
}

func TestCompareNumeric(t *testing.T) {
	c, ok := Compare(NewInt(3), NewFloat(3.0))
	if !ok || c != 0 {
		t.Errorf("3 vs 3.0: c=%d ok=%v", c, ok)
	}
	c, ok = Compare(NewInt(2), NewInt(5))
	if !ok || c >= 0 {
		t.Errorf("2 vs 5: c=%d ok=%v", c, ok)
	}
	c, ok = Compare(NewString("10"), NewInt(9))
	if !ok || c <= 0 {
		t.Errorf("'10' vs 9 should coerce numerically: c=%d ok=%v", c, ok)
	}
}

func TestCompareNullIsUnknown(t *testing.T) {
	if _, ok := Compare(NullValue(), NewInt(1)); ok {
		t.Error("NULL comparison should not be ok")
	}
	if Equal(NullValue(), NullValue()) != Unknown {
		t.Error("NULL = NULL should be UNKNOWN")
	}
}

func TestSortCompareNullsFirst(t *testing.T) {
	if SortCompare(NullValue(), NewInt(-1000)) != -1 {
		t.Error("NULL should sort before any value")
	}
	if SortCompare(NewInt(1), NullValue()) != 1 {
		t.Error("value should sort after NULL")
	}
	if SortCompare(NullValue(), NullValue()) != 0 {
		t.Error("NULL should sort equal to NULL")
	}
}

func TestSortCompareIsTotalOrder(t *testing.T) {
	// Antisymmetry and reflexivity over a mixed set of values.
	vals := []Value{
		NullValue(), NewInt(1), NewInt(-5), NewFloat(2.5), NewBool(true),
		NewString("a"), NewString("b"), NewDateTime(time.Unix(0, 0)),
	}
	for _, a := range vals {
		for _, b := range vals {
			ab, ba := SortCompare(a, b), SortCompare(b, a)
			if ab != -ba {
				t.Errorf("SortCompare(%v,%v)=%d but reverse=%d", a, b, ab, ba)
			}
		}
	}
}

func TestKeyConsistentWithEquality(t *testing.T) {
	if NewInt(3).Key() != NewFloat(3).Key() {
		t.Error("3 and 3.0 should share a key")
	}
	if NewInt(3).Key() == NewString("3").Key() {
		t.Error("int 3 and string '3' should not share a key (GROUP BY is typed)")
	}
	if NullValue().Key() != TypedNull(Int).Key() {
		t.Error("all NULLs share a grouping key")
	}
}

// TestKeyIsExact pins the grouping key's contract (see AppendKey): the
// %024.6f rendering it replaces merged every pair below.
func TestKeyIsExact(t *testing.T) {
	at := time.Date(2015, 6, 1, 12, 0, 0, 0, time.UTC)
	distinct := [][2]Value{
		{NewFloat(1e-7), NewFloat(2e-7)},
		{NewInt(9007199254740992), NewInt(9007199254740993)},
		{NewInt(math.MaxInt64), NewInt(math.MaxInt64 - 1)},
		{NewInt(math.MaxInt64), NewFloat(math.MaxInt64)}, // float64 rounds it to 2^63
		{NewDateTime(at), NewDateTime(at.Add(time.Nanosecond))},
		{NewFloat(math.NaN()), NewFloat(0)},
		{NewFloat(math.NaN()), NewFloat(math.Inf(1))},
		{NewString("1"), NewInt(1)},
	}
	for _, p := range distinct {
		if p[0].Key() == p[1].Key() {
			t.Errorf("%v and %v share a key", p[0], p[1])
		}
	}
	equal := [][2]Value{
		{NewInt(1 << 53), NewFloat(1 << 53)},
		{NewInt(-(1 << 53)), NewFloat(-(1 << 53))},
		{NewInt(math.MinInt64), NewFloat(math.MinInt64)},
		{NewFloat(0), NewFloat(math.Copysign(0, -1))},
		{NewInt(0), NewFloat(math.Copysign(0, -1))},
		{NewFloat(math.NaN()), NewFloat(-math.NaN())},
		{NewBool(true), NewInt(1)},
		{NewDateTime(at), NewDateTime(at.In(time.FixedZone("x", 3600)))},
	}
	for _, p := range equal {
		if p[0].Key() != p[1].Key() {
			t.Errorf("%v and %v have different keys", p[0], p[1])
		}
	}
	// Keys are self-delimiting: a two-column key cannot be forged by moving
	// bytes — a separator included — across the column boundary.
	two := func(a, b string) string { return string(NewString(b).AppendKey(NewString(a).AppendKey(nil))) }
	for _, p := range [][4]string{{"a\x1f", "b", "a", "\x1fb"}, {"ab", "", "a", "b"}, {"", "\x04\x01a", "\x04", "a"}} {
		if two(p[0], p[1]) == two(p[2], p[3]) {
			t.Errorf("(%q, %q) and (%q, %q) share a key", p[0], p[1], p[2], p[3])
		}
	}
}

func TestQuickSortCompareAntisymmetric(t *testing.T) {
	f := func(a, b int64) bool {
		va, vb := NewInt(a), NewInt(b)
		return SortCompare(va, vb) == -SortCompare(vb, va)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickCompareMatchesGo(t *testing.T) {
	f := func(a, b float64) bool {
		c, ok := Compare(NewFloat(a), NewFloat(b))
		if !ok {
			return false
		}
		switch {
		case a < b:
			return c == -1
		case a > b:
			return c == 1
		default:
			return c == 0
		}
	}
	cfg := &quick.Config{MaxCount: 500}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
