package sqltypes

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"
)

// TrimSpace is strings.TrimSpace, which it calls only when s begins or ends
// with ASCII white space or a non-ASCII byte (strings.TrimSpace also trims
// U+0085 and U+00A0): most cells cost two byte tests.
func TrimSpace(s string) string {
	if s == "" || !mayTrim(s[0]) && !mayTrim(s[len(s)-1]) {
		return s
	}
	return strings.TrimSpace(s)
}

// mayTrim reports whether c is ASCII white space or part of a non-ASCII
// character.
func mayTrim(c byte) bool {
	return c >= utf8.RuneSelf || c == ' ' || c-'\t' <= '\r'-'\t'
}

// ParseNumeric interprets a string as a number the way ingest and CAST do:
// as strconv.ParseFloat does, a short decimal without it.
func ParseNumeric(s string) (float64, bool) {
	s = TrimSpace(s)
	if f, ok := parseShortDecimal(s); ok {
		return f, true
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, false
	}
	return f, true
}

// pow10 holds the powers of ten a float64 represents exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// parseShortDecimal converts [+-]digits[.digits], with at least one digit,
// at most 15 significant digits and at most 22 after the point. The digits
// are an integer m and the point a power of ten 10^k, both exact float64s,
// so m/10^k is the correctly rounded value strconv.ParseFloat returns: the
// exact case strconv takes itself before its general algorithm. The sign is
// applied last, so "-0" is −0. ok is false for any other string.
func parseShortDecimal(s string) (_ float64, ok bool) {
	neg, s := cutSign(s)
	var m uint64
	digits, sig, frac := 0, 0, -1 // frac counts the digits after the point, if any
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == '.' && frac < 0 {
			frac = 0
			continue
		}
		if c-'0' > 9 {
			return 0, false
		}
		m = m*10 + uint64(c-'0')
		digits++
		if m > 0 {
			if sig++; sig > 15 {
				return 0, false
			}
		}
		if frac >= 0 {
			frac++
		}
	}
	if digits == 0 || frac >= len(pow10) {
		return 0, false
	}
	f := float64(m) / pow10[max(frac, 0)]
	if neg {
		f = -f
	}
	return f, true
}

// ParseInt interprets a string as an INT the way ingest and CAST do: as
// strconv.ParseInt(s, 10, 64) does, or as an integral float.
func ParseInt(s string) (int64, bool) {
	s = TrimSpace(s)
	if i, ok := parseInt64(s); ok {
		return i, true
	}
	// CAST('3.0' AS INT) succeeds only for integral floats in our dialect;
	// mirror a conversion error otherwise.
	if f, ok := ParseNumeric(s); ok && f == math.Trunc(f) {
		return int64(f), true
	}
	return 0, false
}

// parseInt64 is strconv.ParseInt(s, 10, 64) without its error: a sign or
// none, then at least one digit, within the range of an int64.
func parseInt64(s string) (int64, bool) {
	neg, s := cutSign(s)
	if s == "" {
		return 0, false
	}
	limit := uint64(math.MaxInt64)
	if neg {
		limit++
	}
	var u uint64
	for i := 0; i < len(s); i++ {
		d := uint64(s[i] - '0')
		if d > 9 || u > (limit-d)/10 {
			return 0, false
		}
		u = u*10 + d
	}
	if neg {
		return -int64(u), true
	}
	return int64(u), true
}

// cutSign cuts a leading '+' or '-' off s and reports whether it was '-'.
func cutSign(s string) (neg bool, rest string) {
	if s != "" && (s[0] == '-' || s[0] == '+') {
		return s[0] == '-', s[1:]
	}
	return false, s
}

// ParseDateTime interprets a string as a DATETIME the way ingest and CAST
// do, under the first of DateTimeLayouts that takes it, in UTC. The
// fixed-width spellings are decoded directly; the rest go to time.Parse.
func ParseDateTime(s string) (time.Time, bool) {
	s = TrimSpace(s)
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
