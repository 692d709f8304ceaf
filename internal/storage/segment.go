package storage

import (
	"cmp"
	"math"
	"sort"

	"sqlshare/internal/sqltypes"
)

// segment.go implements the columnar half of the store: every table keeps,
// next to its clustered row view, a sequence of fixed-size segments holding
// the same rows as typed column vectors. A segment is the engine's scan
// unit — it is sized to the morsel the parallel scheduler hands one worker,
// so "a morsel becomes a segment" — and each vector carries a null bitmap,
// a min/max zone map, and (for low-cardinality string columns) a sorted
// per-segment dictionary. The row view stays canonical: vectors are a
// derived, copy-on-write acceleration structure, so the row-oriented
// Scan/Seek API, joins, sorts and the WAL codec are untouched by columnar
// execution and the engine can emit result rows by reference for
// bit-identical output.

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

// The vector encodings. EncValues is the fallback for columns whose
// non-null values are not all of one type (widened columns and
// materialized query outputs can hold anything), and for DATETIMEs beyond
// sqltypes.MaxNanoSec: such vectors store no typed array and readers go
// through the row view.
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
	Codes  []uint16 // EncDict: per-row index into Dict
	Dict   []string // EncDict: sorted distinct values

	nulls []uint64 // bitmap, bit i set ⇒ row i is NULL; nil when no NULLs

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

// Segment is a fixed-size run of a table's clustered order in columnar
// form. Segments are immutable once built; mutations rebuild affected
// segments copy-on-write.
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

// buildVector encodes column col of rows. One pass marks the NULLs and
// finds whether the other values share a type; a shared type is then
// copied into its typed array, and the zone map read off that array in the
// type's own order, which is SortCompare's on one type. The extremes kept
// are the first seen, as SortCompare's strict comparisons keep them.
func buildVector(rows []Row, col int) Vector {
	n := len(rows)
	var v Vector
	typ, nonNull, homogeneous := sqltypes.Null, 0, true
	for i := 0; i < n; i++ {
		val := rows[i][col]
		if val.IsNull() {
			if v.nulls == nil {
				v.nulls = make([]uint64, (n+63)/64)
			}
			v.nulls[i>>6] |= 1 << uint(i&63)
			continue
		}
		if t := val.Type(); nonNull == 0 {
			typ = t
		} else if t != typ {
			homogeneous = false
		}
		nonNull++
	}
	v.HasNulls = nonNull < n
	v.Bytes = int64(n - nonNull) // a NULL's SizeBytes is 1
	if nonNull == 0 {
		v.AllNull = true
		return v
	}
	if !homogeneous {
		encodeValues(rows, col, &v)
		return v
	}
	lo, hi := -1, -1
	switch typ {
	case sqltypes.Int:
		v.Enc = EncInt
		v.Ints = make([]int64, n)
		for i := 0; i < n; i++ {
			if !v.IsNull(i) {
				v.Ints[i] = rows[i][col].Int()
			}
		}
		lo, hi = zoneRows(v.Ints, &v)
		v.Bytes += 8 * int64(nonNull)
	case sqltypes.Float:
		v.Enc = EncFloat
		v.Floats = make([]float64, n)
		for i := 0; i < n; i++ {
			if !v.IsNull(i) {
				f := rows[i][col].Float()
				v.Floats[i] = f
				if math.IsNaN(f) {
					v.NoPrune = true
				}
			}
		}
		// Float < is cmpFloat's order: a NaN extreme stays, and no NaN
		// displaces one.
		lo, hi = zoneRows(v.Floats, &v)
		v.Bytes += 8 * int64(nonNull)
	case sqltypes.Bool:
		v.Enc = EncBool
		v.Bools = make([]bool, n)
		for i := 0; i < n; i++ {
			if !v.IsNull(i) {
				b := rows[i][col].Bool()
				v.Bools[i] = b
				if lo < 0 || !b && v.Bools[lo] {
					lo = i
				}
				if hi < 0 || b && !v.Bools[hi] {
					hi = i
				}
			}
		}
		v.Bytes += 8 * int64(nonNull)
	case sqltypes.DateTime:
		v.Enc = EncTime
		v.Times = make([]int64, n)
		for i := 0; i < n; i++ {
			if !v.IsNull(i) {
				ns, ok := rows[i][col].UnixNano()
				if !ok {
					// Beyond the nanosecond range: no typed array.
					v.Times = nil
					encodeValues(rows, col, &v)
					return v
				}
				v.Times[i] = ns
			}
		}
		// In range, Unix-nanosecond order is (seconds, nanoseconds) order.
		lo, hi = zoneRows(v.Times, &v)
		v.Bytes += 16 * int64(nonNull)
	case sqltypes.String:
		lo, hi = encodeStrings(rows, col, &v)
		v.Bytes += 16 * int64(nonNull)
	default:
		encodeValues(rows, col, &v)
		return v
	}
	v.Min, v.Max = rows[lo][col], rows[hi][col]
	return v
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

// encodeValues fills the zone map and width of a vector that keeps no
// typed array: its non-NULL values mix types, or hold a DATETIME beyond the
// nanosecond range. Only SortCompare orders such a mix.
func encodeValues(rows []Row, col int, v *Vector) {
	v.Enc = EncValues
	seen := false
	for i := range rows {
		val := rows[i][col]
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

// encodeStrings picks dictionary or plain encoding for an all-string
// vector: a sorted per-segment dictionary when the distinct count stays
// within dictMaxCard, plain otherwise (dictionary overflow). It adds the
// strings' bytes to v.Bytes and returns the zone map's rows.
func encodeStrings(rows []Row, col int, v *Vector) (lo, hi int) {
	n := len(rows)
	distinct := make(map[string]uint16, 16)
	for i := 0; i < n && len(distinct) <= dictMaxCard; i++ {
		if !v.IsNull(i) {
			distinct[rows[i][col].Str()] = 0
		}
	}
	if len(distinct) > dictMaxCard {
		v.Enc = EncString
		v.Strs = make([]string, n)
		for i := 0; i < n; i++ {
			if !v.IsNull(i) {
				v.Strs[i] = rows[i][col].Str()
				v.Bytes += int64(len(v.Strs[i]))
			}
		}
		return zoneRows(v.Strs, v)
	}
	v.Enc = EncDict
	v.Dict = make([]string, 0, len(distinct))
	for s := range distinct {
		v.Dict = append(v.Dict, s)
	}
	sort.Strings(v.Dict)
	for code, s := range v.Dict {
		distinct[s] = uint16(code)
	}
	v.Codes = make([]uint16, n)
	for i := 0; i < n; i++ {
		if !v.IsNull(i) {
			s := rows[i][col].Str()
			v.Codes[i] = distinct[s]
			v.Bytes += int64(len(s))
		}
	}
	// The dictionary is sorted, so code order is string order.
	return zoneRows(v.Codes, v)
}
