package storage

import (
	"cmp"
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"time"

	"sqlshare/internal/sqltypes"
)

// column.go holds a column of a table being built as one typed array, and
// the one encoder that cuts a segment's Vector from it. Ingest appends
// parsed cells to a builder per column and NewTableFromColumns cuts the
// table's segments straight from the arrays; Insert gathers each column of
// a segment's rows into a builder (buildVector) and cuts the same Vector
// from it. Zone maps, the dictionary or plain choice, widths, null forms
// and the EncValues fallback are decided in vector alone.

// ColumnBuilder accumulates the cells of one column. While every non-NULL
// cell is of one type it keeps them in that type's array — INT in []int64,
// FLOAT in []float64, BIT in []bool, DATETIME in Unix nanoseconds, VARCHAR
// in []string — with the array's zero value at a NULL row, a NULL bitmap,
// and the form each NULL was appended as. Once the cells mix types, or a
// DATETIME lies beyond sqltypes.MaxNanoSec, it keeps the cells themselves.
type ColumnBuilder struct {
	typ    sqltypes.Type // of every non-NULL cell; the expected type before the first
	n      int
	ints   []int64
	floats []float64
	bools  []bool
	times  []int64 // Unix nanoseconds
	strs   []string
	// borrowed is set once strs may hold a string the vectors must copy.
	borrowed bool
	// vals holds every cell, NULLs included, once mixed is set; the typed
	// arrays are then nil.
	vals  []sqltypes.Value
	mixed bool

	nulls     []uint64 // bit i set ⇒ row i is NULL; no words past the last NULL
	nullCount int
	nullForm  uint8   // the nullCode of every NULL while nullForms is nil
	nullForms []uint8 // the nullCode of each NULL row, once the forms differ
	capHint   int
}

// NewColumnBuilder returns an empty builder for cells of type typ, with
// room for capacity rows. The first non-NULL cell appended sets the type
// when it is not typ (typ sqltypes.Null expects none in particular).
func NewColumnBuilder(typ sqltypes.Type, capacity int) *ColumnBuilder {
	b := &ColumnBuilder{capHint: capacity}
	b.setType(typ)
	return b
}

// setType makes typ the builder's type, with a zero array entry for each
// row already appended (all of them NULL).
func (b *ColumnBuilder) setType(typ sqltypes.Type) {
	b.typ = typ
	b.ints, b.floats, b.bools, b.times, b.strs = nil, nil, nil, nil, nil
	c := max(b.capHint, b.n)
	switch typ {
	case sqltypes.Int:
		b.ints = make([]int64, b.n, c)
	case sqltypes.Float:
		b.floats = make([]float64, b.n, c)
	case sqltypes.Bool:
		b.bools = make([]bool, b.n, c)
	case sqltypes.DateTime:
		b.times = make([]int64, b.n, c)
	case sqltypes.String:
		b.strs = make([]string, b.n, c)
	}
}

// Len returns the number of cells appended.
func (b *ColumnBuilder) Len() int { return b.n }

// Append adds v as the column's next cell.
func (b *ColumnBuilder) Append(v sqltypes.Value) {
	i := b.n
	switch {
	case b.mixed:
		b.vals = append(b.vals, v)
	case v.IsNull():
		switch b.typ {
		case sqltypes.Int:
			b.ints = append(b.ints, 0)
		case sqltypes.Float:
			b.floats = append(b.floats, 0)
		case sqltypes.Bool:
			b.bools = append(b.bools, false)
		case sqltypes.DateTime:
			b.times = append(b.times, 0)
		case sqltypes.String:
			b.strs = append(b.strs, "")
		}
	default:
		if b.nullCount == i && v.Type() != b.typ {
			// The first non-NULL cell sets the type.
			b.setType(v.Type())
		}
		b.appendCell(i, v)
	}
	if v.IsNull() {
		b.markNull(i, nullCode(v))
	}
	b.n++
}

// AppendInt adds the INT x: Append(sqltypes.NewInt(x)), without the Value
// where the builder holds INTs.
func (b *ColumnBuilder) AppendInt(x int64) {
	if b.typ != sqltypes.Int || b.mixed {
		b.Append(sqltypes.NewInt(x))
		return
	}
	b.ints = append(b.ints, x)
	b.n++
}

// AppendFloat adds the FLOAT x: Append(sqltypes.NewFloat(x)), without the
// Value where the builder holds FLOATs.
func (b *ColumnBuilder) AppendFloat(x float64) {
	if b.typ != sqltypes.Float || b.mixed {
		b.Append(sqltypes.NewFloat(x))
		return
	}
	b.floats = append(b.floats, x)
	b.n++
}

// AppendDateTime adds the DATETIME t: Append(sqltypes.NewDateTime(t)),
// without the Value where the builder holds DATETIMEs and t is within
// sqltypes.MaxNanoSec seconds of the epoch.
func (b *ColumnBuilder) AppendDateTime(t time.Time) {
	sec := t.Unix()
	if b.typ != sqltypes.DateTime || b.mixed || sec < -sqltypes.MaxNanoSec || sec > sqltypes.MaxNanoSec {
		b.Append(sqltypes.NewDateTime(t))
		return
	}
	b.times = append(b.times, sec*1e9+int64(t.Nanosecond()))
	b.n++
}

// AppendString adds the VARCHAR x: Append(sqltypes.NewString(x)), without
// the Value where the builder holds VARCHARs. x may be borrowed from a
// buffer the table must not keep (a CSV line): the vectors cut from the
// builder hold copies of its strings, one per distinct string of a
// dictionary segment and one block per plain one.
func (b *ColumnBuilder) AppendString(x string) {
	if b.typ != sqltypes.String || b.mixed {
		b.Append(sqltypes.NewString(strings.Clone(x)))
		return
	}
	b.strs = append(b.strs, x)
	b.borrowed = true
	b.n++
}

// gather appends column col of rows: Append of each cell, with a non-NULL
// cell of the builder's type added in the loop (a call per cell costs
// Insert a sixth of its time).
func (b *ColumnBuilder) gather(rows []Row, col int) {
	for _, r := range rows {
		v := &r[col]
		if b.mixed || v.IsNull() || v.Type() != b.typ {
			b.Append(*v)
			continue
		}
		switch b.typ {
		case sqltypes.Int:
			b.ints = append(b.ints, v.Int())
		case sqltypes.Float:
			b.floats = append(b.floats, v.Float())
		case sqltypes.Bool:
			b.bools = append(b.bools, v.Bool())
		case sqltypes.String:
			b.strs = append(b.strs, v.Str())
		default:
			ns, ok := v.UnixNano()
			if !ok {
				b.Append(*v)
				continue
			}
			b.times = append(b.times, ns)
		}
		b.n++
	}
}

// appendCell adds the non-NULL v as cell i of a builder that does not yet
// keep its cells, turning it into one that does when v is not of its type
// or not in its array's range.
func (b *ColumnBuilder) appendCell(i int, v sqltypes.Value) {
	if v.Type() != b.typ {
		b.mix(i, v)
		return
	}
	switch b.typ {
	case sqltypes.Int:
		b.ints = append(b.ints, v.Int())
	case sqltypes.Float:
		b.floats = append(b.floats, v.Float())
	case sqltypes.Bool:
		b.bools = append(b.bools, v.Bool())
	case sqltypes.DateTime:
		ns, ok := v.UnixNano()
		if !ok {
			b.mix(i, v)
			return
		}
		b.times = append(b.times, ns)
	case sqltypes.String:
		b.strs = append(b.strs, v.Str())
	default:
		b.mix(i, v)
	}
}

// mix turns the builder into one that keeps its cells, v the i-th.
func (b *ColumnBuilder) mix(i int, v sqltypes.Value) {
	vals := make([]sqltypes.Value, i, max(b.capHint, i+1))
	for j := range vals {
		vals[j] = b.Value(j)
		if b.borrowed && !vals[j].IsNull() {
			vals[j] = sqltypes.NewString(strings.Clone(vals[j].Str()))
		}
	}
	b.vals = append(vals, v)
	b.mixed = true
	b.ints, b.floats, b.bools, b.times, b.strs = nil, nil, nil, nil, nil
}

// markNull records row i as a NULL of form code.
func (b *ColumnBuilder) markNull(i int, code uint8) {
	for len(b.nulls) <= i>>6 {
		b.nulls = append(b.nulls, 0)
	}
	b.nulls[i>>6] |= 1 << uint(i&63)
	switch {
	case b.nullCount == 0:
		b.nullForm = code
	case b.nullForms == nil && code != b.nullForm:
		b.nullForms = make([]uint8, i, max(b.capHint, i+1))
		for j := range b.nullForms {
			b.nullForms[j] = b.nullForm
		}
	}
	if b.nullForms != nil {
		for len(b.nullForms) <= i {
			b.nullForms = append(b.nullForms, 0)
		}
		b.nullForms[i] = code
	}
	b.nullCount++
}

func (b *ColumnBuilder) isNull(i int) bool {
	return i>>6 < len(b.nulls) && b.nulls[i>>6]&(1<<uint(i&63)) != 0
}

func (b *ColumnBuilder) formAt(i int) uint8 {
	if b.nullForms != nil {
		return b.nullForms[i]
	}
	return b.nullForm
}

// Value returns cell i, bit for bit the Value appended.
func (b *ColumnBuilder) Value(i int) sqltypes.Value {
	switch {
	case b.mixed:
		return b.vals[i]
	case b.isNull(i):
		return nullOf(b.formAt(i))
	}
	switch b.typ {
	case sqltypes.Int:
		return sqltypes.NewInt(b.ints[i])
	case sqltypes.Float:
		return sqltypes.NewFloat(b.floats[i])
	case sqltypes.Bool:
		return sqltypes.NewBool(b.bools[i])
	case sqltypes.DateTime:
		return sqltypes.NewDateTimeNano(b.times[i])
	default:
		return sqltypes.NewString(b.strs[i])
	}
}

// compare orders cells i and j as SortCompare orders their Values.
func (b *ColumnBuilder) compare(i, j int) int {
	in, jn := b.isNull(i), b.isNull(j)
	switch {
	case in && jn:
		return 0
	case in:
		return -1
	case jn:
		return 1
	case b.mixed:
		return sqltypes.SortCompare(b.vals[i], b.vals[j])
	}
	switch b.typ {
	case sqltypes.Int:
		return cmp.Compare(b.ints[i], b.ints[j])
	case sqltypes.Float:
		// A NaN ties every number, as in Compare.
		switch x, y := b.floats[i], b.floats[j]; {
		case x < y:
			return -1
		case x > y:
			return 1
		}
		return 0
	case sqltypes.Bool:
		switch x, y := b.bools[i], b.bools[j]; {
		case x == y:
			return 0
		case y:
			return -1
		}
		return 1
	case sqltypes.DateTime:
		return cmp.Compare(b.times[i], b.times[j])
	default:
		return strings.Compare(b.strs[i], b.strs[j])
	}
}

// total reports whether SortCompare is a total order over the column's
// cells: they are of one type and none is a NaN. Only then does a run with
// no adjacent pair out of order stay as it is under a stable sort.
func (b *ColumnBuilder) total() bool {
	if b.mixed {
		return false
	}
	for _, f := range b.floats {
		if f != f {
			return false
		}
	}
	return true
}

// permute returns the column's cells in the order perm lists them.
func (b *ColumnBuilder) permute(perm []int) *ColumnBuilder {
	out := &ColumnBuilder{
		typ: b.typ, n: len(perm), mixed: b.mixed, borrowed: b.borrowed,
		ints: gather(b.ints, perm), floats: gather(b.floats, perm), bools: gather(b.bools, perm),
		times: gather(b.times, perm), strs: gather(b.strs, perm), vals: gather(b.vals, perm),
		nullCount: b.nullCount, nullForm: b.nullForm,
	}
	if b.nullCount > 0 {
		out.nulls = make([]uint64, (len(perm)+63)/64)
		if b.nullForms != nil {
			out.nullForms = make([]uint8, len(perm))
		}
		for k, p := range perm {
			if b.isNull(p) {
				out.nulls[k>>6] |= 1 << uint(k&63)
				if out.nullForms != nil {
					out.nullForms[k] = b.nullForms[p]
				}
			}
		}
	}
	return out
}

func gather[T any](xs []T, perm []int) []T {
	if xs == nil {
		return nil
	}
	out := make([]T, len(perm))
	for k, p := range perm {
		out[k] = xs[p]
	}
	return out
}

// clip gives back the spare capacity of the column's array when it is more
// than a sixteenth of its length: the table's vectors share the array.
func (b *ColumnBuilder) clip() {
	b.ints, b.floats, b.bools = clipped(b.ints), clipped(b.floats), clipped(b.bools)
	b.times, b.strs, b.vals = clipped(b.times), clipped(b.strs), clipped(b.vals)
}

func clipped[T any](xs []T) []T {
	if cap(xs)-len(xs) > len(xs)/16 {
		return append(make([]T, 0, len(xs)), xs...)
	}
	return xs
}

// NewTableFromColumns builds a table from its columns, one builder per
// schema column, all of one length: NewTable followed by an Insert of the
// same rows, without the rows. Columns already in clustered order are cut
// into segments as they are; otherwise a permutation is sorted in Insert's
// stable SortCompare row order and the columns gathered by it. Every
// segment's vectors are encoded from the builders' arrays, which the
// table's vectors go on to share: a builder is not appended to afterwards.
func NewTableFromColumns(name string, schema Schema, cols []*ColumnBuilder) (*Table, error) {
	if len(cols) != len(schema) {
		return nil, fmt.Errorf("storage: %d columns do not match schema arity %d of %s", len(cols), len(schema), name)
	}
	t := NewTable(name, schema)
	if len(cols) == 0 || cols[0].n == 0 {
		return t, nil
	}
	n := cols[0].n
	for _, c := range cols {
		if c.n != n {
			return nil, fmt.Errorf("storage: columns of %d and %d rows for %s", n, c.n, name)
		}
	}
	if inColumnOrder(cols, n) {
		for _, c := range cols {
			c.clip()
		}
	} else {
		perm := make([]int, n)
		for i := range perm {
			perm[i] = i
		}
		sort.SliceStable(perm, func(i, j int) bool { return compareAt(cols, perm[i], perm[j]) < 0 })
		sorted := make([]*ColumnBuilder, len(cols))
		for c := range cols {
			sorted[c] = cols[c].permute(perm)
		}
		cols = sorted
	}
	segs := make([]*Segment, 0, (n+t.segRows-1)/t.segRows)
	for lo := 0; lo < n; lo += t.segRows {
		hi := min(lo+t.segRows, n)
		seg := &Segment{n: hi - lo, cols: make([]Vector, len(cols))}
		for c, b := range cols {
			seg.cols[c] = b.vector(lo, hi)
		}
		segs = append(segs, seg)
	}
	t.cur.Store(newVersion(segs, t.schema))
	return t, nil
}

// compareAt orders rows i and j of cols as compareRows orders the rows.
func compareAt(cols []*ColumnBuilder, i, j int) int {
	for _, c := range cols {
		if d := c.compare(i, j); d != 0 {
			return d
		}
	}
	return 0
}

// inColumnOrder is inClusteredOrder over columns: a stable sort would
// leave their n rows as they are.
func inColumnOrder(cols []*ColumnBuilder, n int) bool {
	for _, c := range cols {
		if !c.total() {
			return false
		}
	}
	for i := 1; i < n; i++ {
		if compareAt(cols, i-1, i) > 0 {
			return false
		}
	}
	return true
}

// vector encodes rows lo … hi-1 of the column as one segment's Vector. The
// NULLs are marked first; a shared type is then sliced from its array, and
// the zone map read off it in the type's own order, which is SortCompare's
// on one type. The extremes kept are the first seen, as SortCompare's
// strict comparisons keep them.
func (b *ColumnBuilder) vector(lo, hi int) Vector {
	n := hi - lo
	if b.mixed && n < b.n {
		// The column mixes somewhere; this segment may not.
		seg := NewColumnBuilder(sqltypes.Null, n)
		for _, x := range b.vals[lo:hi] {
			seg.Append(x)
		}
		return seg.vector(0, n)
	}
	var v Vector
	nulls := b.segmentNulls(lo, hi, &v)
	nonNull := int64(n - nulls)
	v.HasNulls = nulls > 0
	v.Bytes = int64(nulls) // a NULL's SizeBytes is 1
	if nonNull == 0 {
		v.AllNull = true
		return v
	}
	if b.mixed {
		encodeValues(b.vals[lo:hi:hi], &v)
		return v
	}
	var zlo, zhi int
	switch b.typ {
	case sqltypes.Int:
		v.Enc = EncInt
		v.Ints = b.ints[lo:hi:hi]
		zlo, zhi = zoneRows(v.Ints, &v)
		v.Bytes += 8 * nonNull
	case sqltypes.Float:
		v.Enc = EncFloat
		v.Floats = b.floats[lo:hi:hi]
		for _, f := range v.Floats {
			if f != f {
				v.NoPrune = true
				break
			}
		}
		// Float < is cmpFloat's order: a NaN extreme stays, and no NaN
		// displaces one.
		zlo, zhi = zoneRows(v.Floats, &v)
		v.Bytes += 8 * nonNull
	case sqltypes.Bool:
		v.Enc = EncBool
		v.Bools = b.bools[lo:hi:hi]
		zlo, zhi = -1, -1
		for i, x := range v.Bools {
			if v.IsNull(i) {
				continue
			}
			if zlo < 0 || !x && v.Bools[zlo] {
				zlo = i
			}
			if zhi < 0 || x && !v.Bools[zhi] {
				zhi = i
			}
		}
		v.Bytes += 8 * nonNull
	case sqltypes.DateTime:
		v.Enc = EncTime
		v.Times = b.times[lo:hi:hi]
		// In range, Unix-nanosecond order is (seconds, nanoseconds) order.
		zlo, zhi = zoneRows(v.Times, &v)
		v.Bytes += 16 * nonNull
	default:
		zlo, zhi = encodeStrings(b.strs[lo:hi:hi], b.borrowed, &v)
		v.Bytes += 16 * nonNull
	}
	v.Min, v.Max = v.Value(zlo), v.Value(zhi)
	return v
}

// segmentNulls marks in v the NULLs among rows lo … hi-1 and their forms,
// and counts them.
func (b *ColumnBuilder) segmentNulls(lo, hi int, v *Vector) int {
	count := 0
	for w := lo >> 6; w < len(b.nulls) && w<<6 < hi; w++ {
		for word := b.nulls[w]; word != 0; word &= word - 1 {
			i := w<<6 + bits.TrailingZeros64(word)
			if i < lo {
				continue
			}
			if i >= hi {
				break
			}
			k, c := i-lo, b.formAt(i)
			if v.nulls == nil {
				v.nulls = make([]uint64, (hi-lo+63)/64)
				v.nullForm = c
			}
			v.nulls[k>>6] |= 1 << uint(k&63)
			if v.nullForms != nil {
				v.nullForms[k] = c
			} else if c != v.nullForm {
				v.nullForms = make([]uint8, hi-lo)
				for j := 0; j < k; j++ {
					v.nullForms[j] = v.nullForm
				}
				v.nullForms[k] = c
			}
			count++
		}
	}
	return count
}
