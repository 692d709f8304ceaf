package sqltypes

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// ParseNumeric interprets a string as a number the way ingest and CAST do.
func ParseNumeric(s string) (float64, bool) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, false
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, false
	}
	return f, true
}

// ParseInt interprets a string as an INT the way ingest and CAST do.
func ParseInt(s string) (int64, bool) {
	s = strings.TrimSpace(s)
	if i, err := strconv.ParseInt(s, 10, 64); err == nil {
		return i, true
	}
	// CAST('3.0' AS INT) succeeds only for integral floats in our dialect;
	// mirror a conversion error otherwise.
	if f, ok := ParseNumeric(s); ok && f == math.Trunc(f) {
		return int64(f), true
	}
	return 0, false
}

// ParseDateTime interprets a string as a DATETIME the way ingest and CAST
// do, under the first of DateTimeLayouts that takes it, in UTC. The
// fixed-width spellings are decoded directly; the rest go to time.Parse.
func ParseDateTime(s string) (time.Time, bool) {
	s = strings.TrimSpace(s)
	if s == "" {
		return time.Time{}, false
	}
	if t, ok, decided := parseFixedDateTime(s); decided {
		return t, ok
	}
	for i, layout := range DateTimeLayouts {
		if !mayParse(i, s) {
			continue
		}
		if t, err := time.Parse(layout, s); err == nil {
			return t.UTC(), true
		}
	}
	return time.Time{}, false
}

// fixedShapes are the all-digit, fixed-width spellings of the layouts of
// DateTimeLayouts: Y, M, D, h, m and s mark the digits of the year, month,
// day, hour, minute and second, and any other byte is a separator that must
// match. A string of one of these shapes meets no other layout's guard, so
// its verdict is the verdict of the one layout that spells it.
var fixedShapes = func() (shapes [7]struct {
	text  string
	field [20]int8 // the field a byte's digit belongs to; -1 for a separator
}) {
	for i, text := range []string{
		"YYYY-MM-DD hh:mm:ss",
		"YYYY-MM-DDThh:mm:ss",
		"YYYY-MM-DDThh:mm:ssZ",
		"YYYY-MM-DD",
		"MM/DD/YYYY hh:mm:ss",
		"MM/DD/YYYY",
		"YYYY/MM/DD",
	} {
		shapes[i].text = text
		for j := range text {
			shapes[i].field[j] = int8(strings.IndexByte("YMDhms", text[j]))
		}
	}
	return shapes
}()

// parseFixedDateTime decodes s when it has one of the fixedShapes, as
// time.Parse would under that shape's layout: every field is in range and
// the day exists in its month, or s does not parse. decided is false when s
// has none of the shapes, and the layouts must be tried.
func parseFixedDateTime(s string) (t time.Time, ok, decided bool) {
	for k := range fixedShapes {
		shape := &fixedShapes[k]
		if len(s) != len(shape.text) {
			continue
		}
		var f [6]int // year, month, day, hour, minute, second
		i := 0
		for ; i < len(s); i++ {
			c := s[i]
			if k := shape.field[i]; k >= 0 && c >= '0' && c <= '9' {
				f[k] = f[k]*10 + int(c-'0')
			} else if k >= 0 || c != shape.text[i] {
				break
			}
		}
		if i < len(s) {
			continue
		}
		year, month, day := f[0], f[1], f[2]
		if month < 1 || month > 12 || day < 1 || day > daysIn(month, year) ||
			f[3] > 23 || f[4] > 59 || f[5] > 59 {
			return time.Time{}, false, true
		}
		return time.Date(year, time.Month(month), day, f[3], f[4], f[5], 0, time.UTC), true, true
	}
	return time.Time{}, false, false
}

// daysIn is the number of days in the month of the year, as the
// proleptic Gregorian calendar time.Parse validates a day against counts
// them.
func daysIn(month, year int) int {
	switch month {
	case 2:
		if year%4 == 0 && (year%100 != 0 || year%400 == 0) {
			return 29
		}
		return 28
	case 4, 6, 9, 11:
		return 30
	}
	return 31
}

// Cast converts a value to the target type with T-SQL CAST semantics.
// Casting NULL yields a typed NULL. A failed cast returns an error, exactly
// as the backing database raised an exception during ingest (§3.1).
func Cast(v Value, to Type) (Value, error) {
	if v.IsNull() {
		return TypedNull(to), nil
	}
	if v.typ == to {
		return v, nil
	}
	switch to {
	case Int:
		switch v.typ {
		case Float:
			// T-SQL truncates toward zero.
			return NewInt(int64(math.Trunc(v.Float()))), nil
		case Bool:
			return NewInt(v.Int()), nil
		case String:
			if i, ok := ParseInt(v.s); ok {
				return NewInt(i), nil
			}
			return Value{}, fmt.Errorf("sqltypes: cannot convert %q to INT", v.s)
		}
	case Float:
		switch v.typ {
		case Int, Bool:
			return NewFloat(v.Float()), nil
		case String:
			if f, ok := ParseNumeric(v.s); ok {
				return NewFloat(f), nil
			}
			return Value{}, fmt.Errorf("sqltypes: cannot convert %q to FLOAT", v.s)
		}
	case Bool:
		switch v.typ {
		case Int:
			return NewBool(v.Bool()), nil
		case Float:
			return NewBool(v.Float() != 0), nil
		case String:
			switch strings.ToLower(strings.TrimSpace(v.s)) {
			case "true", "1":
				return NewBool(true), nil
			case "false", "0":
				return NewBool(false), nil
			}
			return Value{}, fmt.Errorf("sqltypes: cannot convert %q to BIT", v.s)
		}
	case DateTime:
		if v.typ == String {
			if t, ok := ParseDateTime(v.s); ok {
				return NewDateTime(t), nil
			}
			return Value{}, fmt.Errorf("sqltypes: cannot convert %q to DATETIME", v.s)
		}
	case String:
		return NewString(v.String()), nil
	case Null:
		return NullValue(), nil
	}
	return Value{}, fmt.Errorf("sqltypes: unsupported cast from %s to %s", v.typ, to)
}

// ParseTypeName maps a SQL type name (as written in CAST expressions) to a
// Type. It accepts the common T-SQL spellings with optional length/precision
// suffixes, e.g. VARCHAR(100) or DECIMAL(10,2).
func ParseTypeName(name string) (Type, error) {
	base := strings.ToUpper(strings.TrimSpace(name))
	if i := strings.IndexByte(base, '('); i >= 0 {
		base = strings.TrimSpace(base[:i])
	}
	switch base {
	case "INT", "INTEGER", "BIGINT", "SMALLINT", "TINYINT":
		return Int, nil
	case "FLOAT", "REAL", "DOUBLE", "DECIMAL", "NUMERIC", "MONEY":
		return Float, nil
	case "BIT", "BOOLEAN", "BOOL":
		return Bool, nil
	case "DATETIME", "DATE", "DATETIME2", "SMALLDATETIME", "TIMESTAMP":
		return DateTime, nil
	case "VARCHAR", "NVARCHAR", "CHAR", "NCHAR", "TEXT", "NTEXT", "STRING":
		return String, nil
	}
	return Null, fmt.Errorf("sqltypes: unknown type name %q", name)
}
