package storage

import (
	"math"
	"sort"
	"time"

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
// materialized query outputs can hold anything): such vectors store no
// typed array and readers go through the row view.
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
	Times  []time.Time
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

func buildVector(rows []Row, col int) Vector {
	n := len(rows)
	var v Vector
	homogeneous := true
	var typ sqltypes.Type
	seen := false
	for i := 0; i < n; i++ {
		val := rows[i][col]
		v.Bytes += int64(val.SizeBytes())
		if val.IsNull() {
			if v.nulls == nil {
				v.nulls = make([]uint64, (n+63)/64)
			}
			v.nulls[i>>6] |= 1 << uint(i&63)
			v.HasNulls = true
			continue
		}
		t := val.Type()
		if !seen {
			seen = true
			typ = t
			v.Min, v.Max = val, val
		} else {
			if t != typ {
				homogeneous = false
			}
			if sqltypes.SortCompare(val, v.Min) < 0 {
				v.Min = val
			}
			if sqltypes.SortCompare(val, v.Max) > 0 {
				v.Max = val
			}
		}
	}
	if !seen {
		v.AllNull = true
		v.Enc = EncValues
		return v
	}
	if !homogeneous {
		v.Enc = EncValues
		return v
	}
	switch typ {
	case sqltypes.Int:
		v.Enc = EncInt
		v.Ints = make([]int64, n)
		for i := 0; i < n; i++ {
			if !rows[i][col].IsNull() {
				v.Ints[i] = rows[i][col].Int()
			}
		}
	case sqltypes.Float:
		v.Enc = EncFloat
		v.Floats = make([]float64, n)
		for i := 0; i < n; i++ {
			if !rows[i][col].IsNull() {
				f := rows[i][col].Float()
				v.Floats[i] = f
				if math.IsNaN(f) {
					v.NoPrune = true
				}
			}
		}
	case sqltypes.Bool:
		v.Enc = EncBool
		v.Bools = make([]bool, n)
		for i := 0; i < n; i++ {
			if !rows[i][col].IsNull() {
				v.Bools[i] = rows[i][col].Bool()
			}
		}
	case sqltypes.DateTime:
		v.Enc = EncTime
		v.Times = make([]time.Time, n)
		for i := 0; i < n; i++ {
			if !rows[i][col].IsNull() {
				v.Times[i] = rows[i][col].Time()
			}
		}
	case sqltypes.String:
		encodeStrings(rows, col, &v)
	default:
		v.Enc = EncValues
	}
	return v
}

// encodeStrings picks dictionary or plain encoding for an all-string
// vector: a sorted per-segment dictionary when the distinct count stays
// within dictMaxCard, plain otherwise (dictionary overflow).
func encodeStrings(rows []Row, col int, v *Vector) {
	n := len(rows)
	distinct := make(map[string]uint16, 16)
	for i := 0; i < n && len(distinct) <= dictMaxCard; i++ {
		if !rows[i][col].IsNull() {
			distinct[rows[i][col].Str()] = 0
		}
	}
	if len(distinct) > dictMaxCard {
		v.Enc = EncString
		v.Strs = make([]string, n)
		for i := 0; i < n; i++ {
			if !rows[i][col].IsNull() {
				v.Strs[i] = rows[i][col].Str()
			}
		}
		return
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
		if !rows[i][col].IsNull() {
			v.Codes[i] = distinct[rows[i][col].Str()]
		}
	}
}
