// Package storage implements the base-table store underneath the SQLShare
// catalog. It mirrors the properties of the paper's backend (Microsoft SQL
// Azure, §3.4) that the workload study depends on: every table carries a
// mandatory clustered index over all columns in column order, and tables
// are read-only once built (datasets are read-only; "updates" happen by
// view rewriting, §3.2). Ingest settles every column's type before it
// builds the table (§3.1), so no schema ever changes in place.
//
// A table is stored once, as fixed-size typed column segments in
// clustered-index order (see segment.go). The engine's scans, seeks and
// vectorized kernels read the vectors; a row is built only where a reader
// asks for one, from the cells the vectors hold bit for bit.
package storage

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"sqlshare/internal/sqltypes"
)

// Column describes one column of a table schema.
type Column struct {
	Name string
	Type sqltypes.Type
}

// Schema is an ordered list of columns.
type Schema []Column

// ColumnIndex returns the position of the named column, or -1.
func (s Schema) ColumnIndex(name string) int {
	for i, c := range s {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Names returns the column names in order.
func (s Schema) Names() []string {
	names := make([]string, len(s))
	for i, c := range s {
		names[i] = c.Name
	}
	return names
}

// Clone returns a deep copy of the schema.
func (s Schema) Clone() Schema {
	out := make(Schema, len(s))
	copy(out, s)
	return out
}

// Row is a single tuple. len(Row) always equals len(Schema).
type Row []sqltypes.Value

// Clone returns a copy of the row.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// Table is an in-memory base table with a clustered index over all columns
// in column order. Its rows are held in clustered-index order as columnar
// segments, so scans return sorted data and prefix predicates on the first
// column can be answered with a binary-search seek.
//
// A table is filled before it is shared: ingest builds it from its columns
// (NewTableFromColumns), a materialization or recovery calls Insert, and
// the catalog never calls Insert on a table it has installed. Each Insert publishes a new immutable version of
// the contents, which every reader loads without a lock, so an installed
// table's rows, row count and row width never change and a reference to it
// is a consistent snapshot.
type Table struct {
	name    string
	schema  Schema
	segRows int
	mu      sync.Mutex // serializes Insert
	cur     atomic.Pointer[version]
}

// version is a table's contents as one Insert left them.
type version struct {
	segs    []*Segment
	n       int
	rowSize int
	ordered bool
}

// NewTable creates an empty table with the given schema.
func NewTable(name string, schema Schema) *Table {
	t := &Table{name: name, schema: schema.Clone(), segRows: segmentRowsGlobal}
	t.cur.Store(&version{rowSize: schemaRowSize(schema), ordered: true})
	return t
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns a copy of the table schema.
func (t *Table) Schema() Schema { return t.schema.Clone() }

// NumRows returns the row count.
func (t *Table) NumRows() int { return t.cur.Load().n }

// RowSizeBytes reports the average stored row width in bytes, used by the
// cost model's I/O estimates and the storage quota. For non-empty tables it
// is measured from the segment column stats (real dictionary and string
// payload sizes) when the table is built; the schema heuristic remains only
// for empty tables, which have nothing to measure.
func (t *Table) RowSizeBytes() int { return t.cur.Load().rowSize }

// Ordered reports whether a seek may binary-search the table: every
// non-NULL value of its leading column is of the column's type and none is
// a NaN, so the clustered order is the order SQL comparisons put them in. A
// NaN ties every number, and a mix of types sorts by type where comparisons
// coerce, so over such a column only a scan answers a comparison.
func (t *Table) Ordered() bool { return t.cur.Load().ordered }

func newVersion(segs []*Segment, schema Schema) *version {
	v := &version{segs: segs, ordered: true}
	var total int64
	for _, seg := range segs {
		v.n += seg.n
		for c := range seg.cols {
			total += seg.cols[c].Bytes
		}
		if len(seg.cols) > 0 && !seg.cols[0].holdsOnly(schema[0].Type) {
			v.ordered = false
		}
	}
	if v.n == 0 {
		v.rowSize = schemaRowSize(schema)
	} else {
		v.rowSize = max(int(total/int64(v.n)), 1)
	}
	return v
}

func schemaRowSize(schema Schema) int {
	size := 0
	for _, c := range schema {
		switch c.Type {
		case sqltypes.Int, sqltypes.Float, sqltypes.DateTime:
			size += 8
		case sqltypes.Bool:
			size++
		default:
			size += 24 // average varchar payload estimate
		}
	}
	return max(size, 1)
}

// Insert adds rows in clustered-index order. Every row must match the
// schema arity; values are not re-validated against column types (ingest is
// responsible for parsing). Only the incoming batch is sorted — O(k log k),
// and not at all when it is already in order — and merged into the table at
// its insertion point: the segments before the one holding it are shared
// with the previous version, and the rest are decoded, merged and encoded
// again. The common bulk-load case (the batch sorts entirely after the
// existing rows) re-encodes only the trailing partial segment. The table
// keeps no reference to rows once Insert returns.
func (t *Table) Insert(rows []Row) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, r := range rows {
		if len(r) != len(t.schema) {
			return fmt.Errorf("storage: row arity %d does not match schema arity %d of %s",
				len(r), len(t.schema), t.name)
		}
	}
	if len(rows) == 0 {
		return nil
	}
	batch := rows
	if !inClusteredOrder(rows) {
		batch = make([]Row, len(rows))
		copy(batch, rows)
		sort.SliceStable(batch, func(i, j int) bool {
			return compareRows(batch[i], batch[j]) < 0
		})
	}
	old := t.cur.Load()
	keep := 0 // leading segments the new version shares
	if n := old.n; n > 0 {
		width := len(t.schema)
		if compareRows(batch[0], old.row(n-1, width)) >= 0 {
			keep = n / t.segRows
			batch = append(rowsOf(old.segs[keep:], width), batch...)
		} else {
			// Merge keeps existing rows first on ties, matching what a
			// stable sort of append(existing, batch...) would produce.
			pos := sort.Search(n, func(i int) bool {
				return compareRows(batch[0], old.row(i, width)) < 0
			})
			keep = pos / t.segRows
			tail := rowsOf(old.segs[keep:], width)
			at := pos - keep*t.segRows
			batch = mergeRows(tail[:at], tail[at:], batch)
		}
	}
	segs := make([]*Segment, keep, keep+(len(batch)+t.segRows-1)/t.segRows)
	copy(segs, old.segs[:keep])
	for lo := 0; lo < len(batch); lo += t.segRows {
		segs = append(segs, buildSegment(batch[lo:min(lo+t.segRows, len(batch))], len(t.schema)))
	}
	t.cur.Store(newVersion(segs, t.schema))
	return nil
}

// mergeRows appends to head the merge of two clustered runs, a's rows first
// on ties.
func mergeRows(head, a, b []Row) []Row {
	out := make([]Row, 0, len(head)+len(a)+len(b))
	out = append(out, head...)
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if compareRows(b[j], a[i]) < 0 {
			out = append(out, b[j])
			j++
		} else {
			out = append(out, a[i])
			i++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// row builds clustered row p of the version.
func (v *version) row(p, width int) Row {
	per := v.segs[0].n
	seg, o := v.segs[p/per], p%per
	r := make(Row, width)
	for c := range r {
		seg.cols[c].Load(o, &r[c])
	}
	return r
}

// rowsOf builds the rows of segs, in order, in one cell block.
func rowsOf(segs []*Segment, width int) []Row {
	n := 0
	for _, seg := range segs {
		n += seg.n
	}
	rows := make([]Row, n)
	cells := make([]sqltypes.Value, n*width)
	i := 0
	for _, seg := range segs {
		for o := 0; o < seg.n; o++ {
			r := cells[i*width : (i+1)*width : (i+1)*width]
			for c := range r {
				seg.cols[c].Load(o, &r[c])
			}
			rows[i] = r
			i++
		}
	}
	return rows
}

// inClusteredOrder reports whether a stable sort would leave rows as they
// are. That needs more than no row sorting before its predecessor:
// SortCompare is a total order only within one type without NaN (a NaN
// ties every number; a numeric string sorts among numbers but an
// unparsable one by type), so each column must also hold one type and no
// NaN, or no adjacent pair out of order might still hide a pair that is.
func inClusteredOrder(rows []Row) bool {
	types := make([]sqltypes.Type, len(rows[0]))
	for i, r := range rows {
		for c, v := range r {
			if v.IsNull() {
				continue
			}
			switch t := v.Type(); {
			case types[c] == sqltypes.Null:
				types[c] = t
			case t != types[c]:
				return false
			}
			if f := v.Float(); f != f {
				return false
			}
		}
		if i > 0 && compareRows(rows[i-1], r) > 0 {
			return false
		}
	}
	return true
}

func compareRows(a, b Row) int {
	for i := range a {
		if i >= len(b) {
			return 1
		}
		if c := sqltypes.SortCompare(a[i], b[i]); c != 0 {
			return c
		}
	}
	if len(a) < len(b) {
		return -1
	}
	return 0
}

// Scan builds a copy of all rows in clustered-index order. Only bench/ and
// tests call it (make lint-rows); the program reads a table through All and
// SeekRange.
func (t *Table) Scan() []Row { return rowsOf(t.cur.Load().segs, len(t.schema)) }

// ScanSegments returns no rows and the table's segments, in clustered order,
// shared and not to be mutated. Only bench/ and tests call it (make
// lint-rows).
func (t *Table) ScanSegments() ([]Row, []*Segment) { return nil, t.cur.Load().segs }

// Span is the clustered rows Off … Off+N-1 of a table, with the table's
// segments: segment k holds clustered rows k·n … k·n+Segs[k].Len()-1, where
// n is Segs[0].Len() (every segment but the table's last holds n rows). The
// segments are shared and must not be mutated.
type Span struct {
	Off, N int
	Segs   []*Segment
}

// Value is column col of the span's row i.
func (sp Span) Value(i, col int) sqltypes.Value {
	p := sp.Off + i
	per := sp.Segs[0].n
	return sp.Segs[p/per].cols[col].Value(p % per)
}

// All is the span of every row of the table.
func (t *Table) All() Span {
	v := t.cur.Load()
	return Span{N: v.n, Segs: v.segs}
}

// SeekEqual returns the rows whose first clustered-key column equals v,
// found by binary search — the storage operation behind the "Clustered
// Index Seek" physical operator.
func (t *Table) SeekEqual(v sqltypes.Value) Span {
	return t.SeekRange(v, v, true, true)
}

// SeekRange returns the rows whose first column lies in [lo, hi] under the
// clustered sort order, found by binary search over the first column's
// vectors. A nil bound (NULL value with inclusive=false ignored) is
// expressed by passing includeLo/includeHi and using the zero Value to mean
// unbounded.
func (t *Table) SeekRange(lo, hi sqltypes.Value, includeLo, includeHi bool) Span {
	all := t.All()
	n := all.N
	start := 0
	if !lo.IsNull() || lo.Type() != sqltypes.Null {
		start = sort.Search(n, func(i int) bool {
			c := sqltypes.SortCompare(all.Value(i, 0), lo)
			if includeLo {
				return c >= 0
			}
			return c > 0
		})
	}
	end := n
	if !hi.IsNull() || hi.Type() != sqltypes.Null {
		end = sort.Search(n, func(i int) bool {
			c := sqltypes.SortCompare(all.Value(i, 0), hi)
			if includeHi {
				return c > 0
			}
			return c >= 0
		})
	}
	if start > end {
		return Span{}
	}
	return Span{Off: start, N: end - start, Segs: all.Segs}
}
