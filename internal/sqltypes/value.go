// Package sqltypes implements the SQL value system used throughout the
// SQLShare reproduction: typed values, three-valued-logic comparison,
// casting, and the most-specific-type inference that powers relaxed-schema
// ingest (paper §3.1).
package sqltypes

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Type identifies the SQL type of a Value or a column.
type Type uint8

// The supported SQL types, ordered from most to least specific for the
// purposes of ingest type inference: an INTEGER column can be widened to
// FLOAT, and anything can be widened to STRING.
const (
	Null Type = iota // the type of an untyped NULL
	Bool
	Int
	Float
	DateTime
	String
)

// String returns the SQL spelling of the type.
func (t Type) String() string {
	switch t {
	case Null:
		return "NULL"
	case Bool:
		return "BIT"
	case Int:
		return "INT"
	case Float:
		return "FLOAT"
	case DateTime:
		return "DATETIME"
	case String:
		return "VARCHAR"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// Value is a single SQL value. The zero Value is SQL NULL.
//
// A Value is 32 bytes, the width of every table cell, key, cached result
// and job result cell: one numeric word n holds an INT's or BIT's int64
// bits, a FLOAT's float64 bits, or a DATETIME's Unix seconds (with its
// nanoseconds in ns), and s holds a VARCHAR. Because a FLOAT is held by its
// bits, == on Values compares floats bitwise (-0.0 differs from +0.0 and NaN
// equals NaN); SQL equality is Compare's, and grouping equality Key's.
type Value struct {
	s   string
	n   uint64
	ns  int32
	typ Type
	st  uint8
}

// The states of a Value: the zero Value is stUnset, which reads as an
// untyped NULL.
const (
	stUnset uint8 = iota
	stSet
	stNull
)

// MaxNanoSec bounds the Unix seconds of a DATETIME whose nanoseconds since
// the epoch fit an int64 (years 1685–2255). Typed DATETIME vectors and key
// columns hold Unix nanoseconds; a value beyond this bound keeps its Value.
const MaxNanoSec = 9e9

// NullValue returns SQL NULL.
func NullValue() Value { return Value{typ: Null, st: stNull} }

// NewInt returns an INT value.
func NewInt(v int64) Value { return Value{typ: Int, n: uint64(v), st: stSet} }

// NewFloat returns a FLOAT value.
func NewFloat(v float64) Value { return Value{typ: Float, n: math.Float64bits(v), st: stSet} }

// NewString returns a VARCHAR value.
func NewString(v string) Value { return Value{typ: String, s: v, st: stSet} }

// NewBool returns a BIT value.
func NewBool(v bool) Value {
	var n uint64
	if v {
		n = 1
	}
	return Value{typ: Bool, n: n, st: stSet}
}

// NewDateTime returns a DATETIME value.
func NewDateTime(v time.Time) Value {
	return Value{typ: DateTime, n: uint64(v.Unix()), ns: int32(v.Nanosecond()), st: stSet}
}

// NewDateTimeNano returns the DATETIME ns nanoseconds after the Unix epoch:
// the inverse of UnixNano.
func NewDateTimeNano(ns int64) Value {
	sec, nsec := ns/1e9, ns%1e9
	if nsec < 0 {
		sec, nsec = sec-1, nsec+1e9
	}
	return Value{typ: DateTime, n: uint64(sec), ns: int32(nsec), st: stSet}
}

// TypedNull returns a NULL that remembers the column type it belongs to.
// Comparisons and arithmetic treat it identically to NullValue.
func TypedNull(t Type) Value { return Value{typ: t, st: stNull} }

// Type returns the type of the value. NULLs report the type they were
// created with (Null for an untyped NULL).
func (v Value) Type() Type {
	if v.st == stUnset {
		return Null
	}
	return v.typ
}

// IsNull reports whether the value is SQL NULL.
func (v Value) IsNull() bool { return v.st != stSet }

// SizeBytes estimates the in-memory width of the value in bytes — the
// per-value analogue of SHOWPLAN's AvgRowSize, used by execution tracing
// to report actual operator output width. The widths are logical (8 for a
// number, 16 for a timestamp, 16 plus the bytes of a string), not the
// Value's own layout, so traces and plan costs do not move with it.
func (v Value) SizeBytes() int {
	if v.IsNull() {
		return 1
	}
	switch v.typ {
	case String:
		return 16 + len(v.s)
	case DateTime:
		return 16
	default:
		return 8
	}
}

// Int returns the int64 payload. Valid only when Type() == Int or Bool;
// 0 otherwise.
func (v Value) Int() int64 {
	if v.typ == Int || v.typ == Bool {
		return int64(v.n)
	}
	return 0
}

// Float returns the float64 payload when Type() == Float; for Int and Bool
// it converts, so numeric code can call Float unconditionally.
func (v Value) Float() float64 {
	switch v.typ {
	case Float:
		return math.Float64frombits(v.n)
	case Int, Bool:
		return float64(int64(v.n))
	default:
		return 0
	}
}

// Str returns the string payload. Valid only when Type() == String.
func (v Value) Str() string { return v.s }

// Bool reports the boolean payload. Valid only when Type() == Bool.
func (v Value) Bool() bool { return (v.typ == Int || v.typ == Bool) && v.n != 0 }

// Time returns the time payload, in UTC. Valid only when Type() ==
// DateTime; the zero time otherwise.
func (v Value) Time() time.Time {
	if v.typ != DateTime || v.st != stSet {
		return time.Time{}
	}
	return time.Unix(int64(v.n), int64(v.ns)).UTC()
}

// UnixNano returns a DATETIME's nanoseconds since the Unix epoch; ok is
// false for any other value and for a DATETIME beyond MaxNanoSec seconds.
func (v Value) UnixNano() (ns int64, ok bool) {
	sec := int64(v.n)
	if v.typ != DateTime || v.st != stSet || sec < -MaxNanoSec || sec > MaxNanoSec {
		return 0, false
	}
	return sec*1e9 + int64(v.ns), true
}

// IsNumeric reports whether the value carries a numeric payload.
func (v Value) IsNumeric() bool {
	return !v.IsNull() && (v.typ == Int || v.typ == Float || v.typ == Bool)
}

// DateTimeLayouts lists the timestamp layouts recognized by inference and
// casting, in the order they are tried.
var DateTimeLayouts = []string{
	"2006-01-02T15:04:05Z07:00",
	"2006-01-02 15:04:05",
	"2006-01-02T15:04:05",
	"2006-01-02",
	"01/02/2006 15:04:05",
	"01/02/2006",
	"2006/01/02",
}

// layoutGuards holds, for each entry of DateTimeLayouts, a condition every
// string time.Parse accepts under that layout meets, so ParseDateTime calls
// time.Parse only where it can succeed (a failed parse allocates its
// error). Every layout opens with a fixed-width date — four-digit years,
// two-digit months and days — so its separators sit at fixed offsets; after
// the date the hour may have one digit, a zone may be "Z", and seconds may
// carry any fraction, so only the date-only layouts bound the length above.
var layoutGuards = [...]struct {
	min, max       int  // length bounds; max 0 is unbounded
	at2, at4, at10 byte // the byte required at that offset; 0 is any
}{
	{min: 19, at4: '-', at10: 'T'}, // 2006-01-02T1:04:05Z
	{min: 18, at4: '-', at10: ' '}, // 2006-01-02 1:04:05
	{min: 18, at4: '-', at10: 'T'}, // 2006-01-02T1:04:05
	{min: 10, max: 10, at4: '-'},   // 2006-01-02
	{min: 18, at2: '/', at10: ' '}, // 01/02/2006 1:04:05
	{min: 10, max: 10, at2: '/'},   // 01/02/2006
	{min: 10, max: 10, at4: '/'},   // 2006/01/02
}

// mayParse reports whether s meets layout i's guard.
func mayParse(i int, s string) bool {
	g := &layoutGuards[i]
	switch {
	case len(s) < g.min, g.max > 0 && len(s) > g.max:
		return false
	case g.at2 != 0 && s[2] != g.at2, g.at4 != 0 && s[4] != g.at4, g.at10 != 0 && s[10] != g.at10:
		return false
	}
	return true
}

// String renders the value the way SQLShare renders result cells: NULL for
// nulls, minimal digits for numbers, RFC3339-like timestamps.
func (v Value) String() string {
	if v.IsNull() {
		return "NULL"
	}
	switch v.typ {
	case Int:
		return strconv.FormatInt(int64(v.n), 10)
	case Float:
		f := math.Float64frombits(v.n)
		if math.IsInf(f, 1) {
			return "Infinity"
		}
		if math.IsInf(f, -1) {
			return "-Infinity"
		}
		if f == 0 {
			return "0" // render negative zero without its sign
		}
		return strconv.FormatFloat(f, 'g', -1, 64)
	case Bool:
		if v.n != 0 {
			return "1"
		}
		return "0"
	case DateTime:
		return v.Time().Format("2006-01-02 15:04:05")
	case String:
		return v.s
	default:
		return "NULL"
	}
}

// SQLLiteral renders the value as a SQL literal suitable for inclusion in
// generated query text.
func (v Value) SQLLiteral() string {
	if v.IsNull() {
		return "NULL"
	}
	switch v.typ {
	case String:
		return "'" + strings.ReplaceAll(v.s, "'", "''") + "'"
	case DateTime:
		return "'" + v.Time().Format("2006-01-02 15:04:05") + "'"
	default:
		return v.String()
	}
}
