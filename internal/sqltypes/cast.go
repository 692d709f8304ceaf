package sqltypes

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// parseNumeric interprets a string as a number the way ingest and CAST do.
func parseNumeric(s string) (float64, bool) {
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

// parseInt interprets a string as an INT the way ingest and CAST do.
func parseInt(s string) (int64, bool) {
	s = strings.TrimSpace(s)
	if i, err := strconv.ParseInt(s, 10, 64); err == nil {
		return i, true
	}
	// CAST('3.0' AS INT) succeeds only for integral floats in our dialect;
	// mirror a conversion error otherwise.
	if f, ok := parseNumeric(s); ok && f == math.Trunc(f) {
		return int64(f), true
	}
	return 0, false
}

func parseDateTime(s string) (time.Time, bool) {
	s = strings.TrimSpace(s)
	if s == "" {
		return time.Time{}, false
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
			if i, ok := parseInt(v.s); ok {
				return NewInt(i), nil
			}
			return Value{}, fmt.Errorf("sqltypes: cannot convert %q to INT", v.s)
		}
	case Float:
		switch v.typ {
		case Int, Bool:
			return NewFloat(v.Float()), nil
		case String:
			if f, ok := parseNumeric(v.s); ok {
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
			if t, ok := parseDateTime(v.s); ok {
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
