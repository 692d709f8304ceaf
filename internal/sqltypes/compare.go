package sqltypes

import (
	"encoding/binary"
	"math"
	"strings"
)

// Tristate is the result of a SQL predicate under three-valued logic.
type Tristate uint8

// The three truth values of SQL predicates.
const (
	Unknown Tristate = iota
	False
	True
)

// Not negates a tristate; NOT UNKNOWN is UNKNOWN.
func (t Tristate) Not() Tristate {
	switch t {
	case True:
		return False
	case False:
		return True
	default:
		return Unknown
	}
}

// And combines two tristates with SQL AND semantics.
func (t Tristate) And(o Tristate) Tristate {
	if t == False || o == False {
		return False
	}
	if t == True && o == True {
		return True
	}
	return Unknown
}

// Or combines two tristates with SQL OR semantics.
func (t Tristate) Or(o Tristate) Tristate {
	if t == True || o == True {
		return True
	}
	if t == False && o == False {
		return False
	}
	return Unknown
}

// TristateOf converts a Go bool to a Tristate.
func TristateOf(b bool) Tristate {
	if b {
		return True
	}
	return False
}

// Compare orders two values. It returns (cmp, ok): ok is false when either
// side is NULL (SQL comparison yields UNKNOWN) or the values are not
// comparable. Numeric types compare numerically across Int/Float/Bool;
// strings compare case-sensitively; datetimes chronologically. Mixed
// string/number comparisons attempt a numeric interpretation of the string,
// mirroring the permissive coercions the relaxed-schema workloads rely on.
func Compare(a, b Value) (int, bool) {
	if a.IsNull() || b.IsNull() {
		return 0, false
	}
	if a.IsNumeric() && b.IsNumeric() {
		if a.typ == Int && b.typ == Int {
			switch {
			case a.i < b.i:
				return -1, true
			case a.i > b.i:
				return 1, true
			}
			return 0, true
		}
		return cmpFloat(a.Float(), b.Float()), true
	}
	switch {
	case a.typ == String && b.typ == String:
		return strings.Compare(a.s, b.s), true
	case a.typ == DateTime && b.typ == DateTime:
		switch {
		case a.t.Before(b.t):
			return -1, true
		case a.t.After(b.t):
			return 1, true
		}
		return 0, true
	case a.typ == String && b.IsNumeric():
		if f, ok := parseNumeric(a.s); ok {
			return cmpFloat(f, b.Float()), true
		}
		return 0, false
	case a.IsNumeric() && b.typ == String:
		if f, ok := parseNumeric(b.s); ok {
			return cmpFloat(a.Float(), f), true
		}
		return 0, false
	case a.typ == String && b.typ == DateTime:
		if t, ok := parseDateTime(a.s); ok {
			return Compare(NewDateTime(t), b)
		}
		return 0, false
	case a.typ == DateTime && b.typ == String:
		if t, ok := parseDateTime(b.s); ok {
			return Compare(a, NewDateTime(t))
		}
		return 0, false
	}
	return 0, false
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// Equal is Compare specialized to equality under three-valued logic.
func Equal(a, b Value) Tristate {
	c, ok := Compare(a, b)
	if !ok {
		return Unknown
	}
	return TristateOf(c == 0)
}

// SortCompare is a total order for ORDER BY and index organization: NULLs
// sort first (SQL Server semantics), then values by Compare; incomparable
// cross-type values order by type id so sorting is always well defined.
func SortCompare(a, b Value) int {
	an, bn := a.IsNull(), b.IsNull()
	switch {
	case an && bn:
		return 0
	case an:
		return -1
	case bn:
		return 1
	}
	if c, ok := Compare(a, b); ok {
		return c
	}
	at, bt := a.typ, b.typ
	if at != bt {
		if at < bt {
			return -1
		}
		return 1
	}
	return strings.Compare(a.String(), b.String())
}

// Key returns v's grouping key: see AppendKey.
func (v Value) Key() string {
	var buf [24]byte
	return string(v.AppendKey(buf[:0]))
}

// Key tags. Every encoding is self-delimiting (fixed width, or a length
// prefix for strings), so the keys of several values can be appended to one
// buffer and no string payload can forge a column boundary.
const (
	keyNull   = 0x00
	keyNumber = 0x01 // float64 bits; Ints and Bools a float64 holds exactly
	keyBigInt = 0x02 // an Int float64 would round
	keyTime   = 0x03 // Unix seconds + nanoseconds
	keyString = 0x04 // uvarint length + bytes
)

// AppendKey appends the grouping key of v to dst. Its equality is the one
// every grouping in the engine decides by, and engine/keys.go is where the
// engine reads it (for key columns that mix types, and their probes); only
// the DISTINCT aggregates' sets of folded values read it elsewhere. It is
// exact: two values of one type share a key exactly when Compare calls them
// equal (every NULL shares one key; -0.0 and
// +0.0 share one; NaN, which Compare cannot tell from anything, shares a key
// only with NaN). An Int and a Float share a key when they are the same
// number, up to the point where float64 stops holding integers exactly:
// beyond 2^53 an Int float64 would round keeps its own exact key, so
// 9007199254740993 stays distinct from 9007199254740992 — at the price of
// not meeting the Float that Compare, rounding it, would call equal. Values
// of different type classes (a string and a number) never share a key.
func (v Value) AppendKey(dst []byte) []byte {
	if v.IsNull() {
		return append(dst, keyNull)
	}
	switch v.typ {
	case Int, Bool:
		f := float64(v.i)
		// int64(f) is only defined below 2^63.
		if f >= 1<<63 || int64(f) != v.i {
			return binary.BigEndian.AppendUint64(append(dst, keyBigInt), uint64(v.i))
		}
		return binary.BigEndian.AppendUint64(append(dst, keyNumber), FloatKeyBits(f))
	case Float:
		return binary.BigEndian.AppendUint64(append(dst, keyNumber), FloatKeyBits(v.f))
	case DateTime:
		dst = binary.BigEndian.AppendUint64(append(dst, keyTime), uint64(v.t.Unix()))
		return binary.BigEndian.AppendUint32(dst, uint32(v.t.Nanosecond()))
	default:
		dst = binary.AppendUvarint(append(dst, keyString), uint64(len(v.s)))
		return append(dst, v.s...)
	}
}

// FloatKeyBits is the bit pattern float keys are compared by: the two zeros
// collapse to +0 and every NaN to one pattern.
func FloatKeyBits(f float64) uint64 {
	switch {
	case f == 0:
		return 0
	case f != f:
		return 0x7ff8000000000001
	}
	return math.Float64bits(f)
}
