package sqltypes

import "strings"

// InferValueType returns the most specific type that can represent the raw
// field text, per the ingest heuristic of §3.1: INT, then FLOAT, then
// DATETIME, then BIT, falling back to VARCHAR. Empty fields are NULL and
// impose no constraint.
func InferValueType(raw string) Type {
	s := TrimSpace(raw)
	if s == "" {
		return Null
	}
	if _, ok := ParseInt(s); ok {
		// Disambiguate: "3.7" float-parses and truncation-casts are rejected
		// above, so only truly integral strings land here.
		if !strings.ContainsAny(s, ".eE") {
			return Int
		}
	}
	if _, ok := ParseNumeric(s); ok {
		return Float
	}
	if _, ok := ParseDateTime(s); ok {
		return DateTime
	}
	switch strings.ToLower(s) {
	case "true", "false":
		return Bool
	}
	return String
}

// Widen returns the most specific type that can represent both operands.
// This is the lattice walked by prefix type inference: a column starts as
// the type of its first non-empty value and widens as conflicts appear;
// widening to String is the "revert the type via ALTER TABLE" step of §3.1.
func Widen(a, b Type) Type {
	if a == b {
		return a
	}
	if a == Null {
		return b
	}
	if b == Null {
		return a
	}
	if (a == Int && b == Float) || (a == Float && b == Int) {
		return Float
	}
	if (a == Int && b == Bool) || (a == Bool && b == Int) {
		return Int
	}
	return String
}

// ParseAs converts raw field text into a value of the given column type.
// Empty text becomes a typed NULL. A conversion failure reports false so
// ingest can widen the column and retry (the exception path of §3.1).
func ParseAs(raw string, t Type) (Value, bool) {
	s := TrimSpace(raw)
	if s == "" {
		return TypedNull(t), true
	}
	if t == String {
		// Preserve the raw text, not the trimmed form: relaxed schemas keep
		// data as-is and let users clean it with SQL.
		return NewString(raw), true
	}
	// The types ingest infers parse directly, as Cast parses them.
	switch t {
	case Int:
		if i, ok := ParseInt(s); ok {
			return NewInt(i), true
		}
		return Value{}, false
	case Float:
		if f, ok := ParseNumeric(s); ok {
			return NewFloat(f), true
		}
		return Value{}, false
	case DateTime:
		if tm, ok := ParseDateTime(s); ok {
			return NewDateTime(tm), true
		}
		return Value{}, false
	}
	v, err := Cast(NewString(s), t)
	if err != nil {
		return Value{}, false
	}
	return v, true
}
