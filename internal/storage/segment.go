package storage

import (
	"cmp"
	"slices"
	"sort"
	"strings"

	"sqlshare/internal/sqltypes"
)

// segment.go implements the store's one form of a table: a sequence of
// fixed-size segments holding its clustered rows as typed column vectors. A
// segment is the engine's scan unit — it is sized to the morsel the parallel
// scheduler hands one worker, so "a morsel becomes a segment" — and each
// vector carries a null bitmap, a min/max zone map, and (for low-cardinality
// string columns) a sorted per-segment dictionary. Every cell reads back
// from its vector bit for bit (Vector.Value): a row exists only where a
// reader builds one.

// defaultSegmentRows is the production segment size: it matches the
// engine's morsel granule (2048 rows) so segment-at-a-time scans and
// morsel-at-a-time parallelism share one unit.
const defaultSegmentRows = 2048

// segmentRowsGlobal is read by NewTable; tests shrink it (SetSegmentRows)
// so tiny synthetic tables still span many segments. Each table pins the
// value it was created with, keeping its segment geometry self-consistent.
var segmentRowsGlobal = defaultSegmentRows

// SetSegmentRows overrides the segment size used by tables created from
// now on, returning the previous value. Intended for tests; call only
// while no table is being built.
func SetSegmentRows(n int) (prev int) {
	prev = segmentRowsGlobal
	if n > 0 {
		segmentRowsGlobal = n
	}
	return prev
}

// dictMaxCard is the per-segment distinct-string ceiling for dictionary
// encoding; a column with more distinct values in one segment overflows to
// plain string encoding.
const dictMaxCard = 256

// Encoding identifies the physical layout of one column vector.
type Encoding uint8

// The vector encodings. EncValues keeps the cells themselves, in Vals: it
// is the encoding of columns whose non-null values are not all of one type
// (materialized query outputs can hold anything), and of DATETIMEs beyond
// sqltypes.MaxNanoSec. An all-NULL vector is EncValues with no Vals.
const (
	EncValues Encoding = iota
	EncInt
	EncFloat
	EncBool
	EncTime
	EncString
	EncDict
)

// Vector is one column of one segment. Exactly one typed array is
// populated, selected by Enc; null positions hold the array's zero value
// and are marked in the null bitmap. All fields are read-only once built.
type Vector struct {
	Enc    Encoding
	Ints   []int64
	Floats []float64
	Bools  []bool
	Times  []int64 // EncTime: Unix nanoseconds
	Strs   []string
	Codes  []uint16         // EncDict: per-row index into Dict
	Dict   []string         // EncDict: sorted distinct values
	Vals   []sqltypes.Value // EncValues: every cell, NULLs included

	nulls []uint64 // bitmap, bit i set ⇒ row i is NULL; nil when no NULLs
	// A NULL row of a typed vector reads back as the NULL it was written
	// as: nullForm when every NULL of the vector has one form, otherwise
	// its own entry of nullForms (see nullCode).
	nullForm  uint8
	nullForms []uint8

	// Zone map over the non-null values, under SortCompare order. Unset
	// when AllNull. Pruning is only sound when a predicate literal's
	// comparison semantics agree with the vector's storage order, which
	// the engine decides from Enc.
	Min, Max sqltypes.Value
	HasNulls bool
	AllNull  bool
	// NoPrune disables zone-map pruning for this vector: NaN compares
	// equal to everything under the engine's float ordering, so a segment
	// containing NaN has no usable Min/Max bound.
	NoPrune bool
	// Bytes is the measured in-memory width of the column's values in
	// this segment (sum of SizeBytes), feeding the cost model's real
	// per-column stats.
	Bytes int64
}

// IsNull reports whether row i of the vector is NULL.
func (v *Vector) IsNull(i int) bool {
	return v.nulls != nil && v.nulls[i>>6]&(1<<uint(i&63)) != 0
}

// Value is the cell at row i, bit for bit the Value that was inserted.
func (v *Vector) Value(i int) (x sqltypes.Value) {
	v.Load(i, &x)
	return x
}

// Load stores the cell at row i in *dst: Value without the copy of a
// returned Value, for the loops that decode a cell per row.
func (v *Vector) Load(i int, dst *sqltypes.Value) {
	switch {
	case v.Vals != nil:
		*dst = v.Vals[i]
		return
	case v.IsNull(i):
		if v.nullForms != nil {
			*dst = nullOf(v.nullForms[i])
		} else {
			*dst = nullOf(v.nullForm)
		}
		return
	}
	switch v.Enc {
	case EncInt:
		*dst = sqltypes.NewInt(v.Ints[i])
	case EncFloat:
		*dst = sqltypes.NewFloat(v.Floats[i])
	case EncBool:
		*dst = sqltypes.NewBool(v.Bools[i])
	case EncTime:
		*dst = sqltypes.NewDateTimeNano(v.Times[i])
	case EncString:
		*dst = sqltypes.NewString(v.Strs[i])
	default:
		*dst = sqltypes.NewString(v.Dict[v.Codes[i]])
	}
}

// encType is the type of the values each typed encoding holds.
var encType = [...]sqltypes.Type{
	EncInt:    sqltypes.Int,
	EncFloat:  sqltypes.Float,
	EncBool:   sqltypes.Bool,
	EncTime:   sqltypes.DateTime,
	EncString: sqltypes.String,
	EncDict:   sqltypes.String,
}

// CellType is the type of every non-NULL cell of a typed vector, and Null
// for EncValues, whose cells may be of any type.
func (v *Vector) CellType() sqltypes.Type { return encType[v.Enc] }

// holdsOnly reports whether every non-NULL value of the vector is of type
// typ and none is a NaN.
func (v *Vector) holdsOnly(typ sqltypes.Type) bool {
	switch {
	case v.AllNull:
		return true
	case v.NoPrune:
		return false
	case v.Vals != nil:
		for _, x := range v.Vals {
			if !x.IsNull() && (x.Type() != typ || x.Float() != x.Float()) {
				return false
			}
		}
		return true
	}
	return encType[v.Enc] == typ
}

// unsetNull is the nullCode of the zero Value.
const unsetNull = 0xff

// nullCode names the form of a NULL cell: the type a typed NULL remembers,
// or unsetNull for the zero Value, the only NULL that is neither.
func nullCode(v sqltypes.Value) uint8 {
	if v == (sqltypes.Value{}) {
		return unsetNull
	}
	return uint8(v.Type())
}

func nullOf(c uint8) sqltypes.Value {
	if c == unsetNull {
		return sqltypes.Value{}
	}
	return sqltypes.TypedNull(sqltypes.Type(c))
}

// Segment is a fixed-size run of a table's clustered order in columnar
// form. Segments are immutable once built: an insert into a table builds new
// segments from its insertion point on and shares the ones before it.
type Segment struct {
	n    int
	cols []Vector
}

// Len returns the segment's row count.
func (s *Segment) Len() int { return s.n }

// Col returns column c of the segment.
func (s *Segment) Col(c int) *Vector { return &s.cols[c] }

// buildSegment columnarizes rows (one segment's worth, already in
// clustered order) across width columns.
func buildSegment(rows []Row, width int) *Segment {
	seg := &Segment{n: len(rows), cols: make([]Vector, width)}
	for c := 0; c < width; c++ {
		seg.cols[c] = buildVector(rows, c)
	}
	return seg
}

// buildVector encodes column col of rows by gathering it into a
// ColumnBuilder: every vector is cut by ColumnBuilder.vector.
func buildVector(rows []Row, col int) Vector {
	b := NewColumnBuilder(sqltypes.Null, len(rows))
	b.gather(rows, col)
	return b.vector(0, len(rows))
}

// zoneRows returns the rows holding the first-seen least and greatest
// non-NULL values of xs.
func zoneRows[T cmp.Ordered](xs []T, v *Vector) (lo, hi int) {
	lo, hi = -1, -1
	for i, x := range xs {
		if v.IsNull(i) {
			continue
		}
		if lo < 0 || x < xs[lo] {
			lo = i
		}
		if hi < 0 || x > xs[hi] {
			hi = i
		}
	}
	return lo, hi
}

// encodeValues keeps vals, the cells of a vector that has no typed array —
// its non-NULL values mix types, or hold a DATETIME beyond the nanosecond
// range — and fills its zone map and width. Only SortCompare orders such a
// mix.
func encodeValues(vals []sqltypes.Value, v *Vector) {
	v.Enc = EncValues
	v.Vals = vals
	v.nullForms = nil
	seen := false
	for _, val := range vals {
		if val.IsNull() {
			continue
		}
		v.Bytes += int64(val.SizeBytes())
		if !seen {
			seen = true
			v.Min, v.Max = val, val
			continue
		}
		if sqltypes.SortCompare(val, v.Min) < 0 {
			v.Min = val
		}
		if sqltypes.SortCompare(val, v.Max) > 0 {
			v.Max = val
		}
	}
}

// encodeStrings picks dictionary or plain encoding for strs, an all-string
// vector's cells ("" at a NULL): a sorted per-segment dictionary when the
// distinct count stays within dictMaxCard, plain otherwise (dictionary
// overflow). When borrowed, the vector keeps copies of the strings, not
// strs's. It adds the strings' bytes to v.Bytes and returns the zone map's
// rows.
func encodeStrings(strs []string, borrowed bool, v *Vector) (lo, hi int) {
	// One pass codes each string by first appearance; the codes are then
	// renumbered in sorted order.
	distinct := make(map[string]uint16, 16)
	codes := make([]uint16, len(strs))
	var width int64
	for i, s := range strs {
		if v.IsNull(i) {
			continue
		}
		c, ok := distinct[s]
		if !ok {
			if len(distinct) == dictMaxCard {
				v.Enc, v.Strs, v.Dict = EncString, strs, nil
				if borrowed {
					v.Strs = copyStrings(strs)
				}
				for _, s := range strs {
					v.Bytes += int64(len(s))
				}
				return zoneRows(v.Strs, v)
			}
			c = uint16(len(distinct))
			distinct[s] = c
			v.Dict = append(v.Dict, s)
		}
		codes[i] = c
		width += int64(len(s))
	}
	v.Enc = EncDict
	v.Bytes += width
	byFirst := v.Dict
	v.Dict = slices.Clone(byFirst)
	sort.Strings(v.Dict)
	rank := make([]uint16, len(byFirst))
	for c, s := range byFirst {
		r, _ := slices.BinarySearch(v.Dict, s)
		rank[c] = uint16(r)
	}
	for i, c := range codes {
		if !v.IsNull(i) {
			codes[i] = rank[c]
		}
	}
	v.Codes = codes
	if borrowed {
		v.Dict = copyStrings(v.Dict)
	}
	// The dictionary is sorted, so code order is string order.
	return zoneRows(v.Codes, v)
}

// copyStrings copies xs into one block of memory.
func copyStrings(xs []string) []string {
	n := 0
	for _, x := range xs {
		n += len(x)
	}
	var b strings.Builder
	b.Grow(n)
	for _, x := range xs {
		b.WriteString(x)
	}
	block := b.String()
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i], block = block[:len(x)], block[len(x):]
	}
	return out
}
