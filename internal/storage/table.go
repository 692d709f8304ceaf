// Package storage implements the base-table store underneath the SQLShare
// catalog. It mirrors the properties of the paper's backend (Microsoft SQL
// Azure, §3.4) that the workload study depends on: every table carries a
// mandatory clustered index over all columns in column order, and tables
// are read-only once built (datasets are read-only; "updates" happen by
// view rewriting, §3.2). Ingest settles every column's type before it
// builds the table (§3.1), so no schema ever changes in place.
//
// Physically each table is stored twice: a row view in clustered-index
// order (the canonical copy, behind Scan/SeekEqual/SeekRange) and a derived
// columnar view of fixed-size typed segments (see segment.go) that the
// engine's vectorized scan/filter/project/aggregate path reads. Mutations
// invalidate only the segments they touch; the re-encode is deferred to the
// next columnar read and done copy-on-write, so readers holding either view
// stay consistent and a burst of small appends pays for one rebuild.
package storage

import (
	"fmt"
	"sort"
	"sync"

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
// in column order. Rows are kept in clustered-index order at all times, so
// scans return sorted data and prefix predicates on the first column can be
// answered with a binary-search seek. The same rows are mirrored into
// columnar segments for the vectorized execution path.
//
// Insert is how a table is filled: ingest, a materialization or recovery
// calls it before the table is shared, and the catalog never calls it on a
// table it has installed, so an installed table's rows and schema never
// change and a reference to it is a consistent snapshot.
type Table struct {
	mu     sync.RWMutex
	name   string
	schema Schema
	rows   []Row
	segs   []*Segment
	// segsDirtyFrom is the lowest row index whose segment no longer mirrors
	// rows, or -1 when the columnar view is current. Mutations only
	// invalidate; the rebuild happens lazily on the next columnar read, so a
	// burst of small appends pays for one re-encode instead of one per batch.
	segsDirtyFrom int
	segRows       int
}

// NewTable creates an empty table with the given schema.
func NewTable(name string, schema Schema) *Table {
	return &Table{name: name, schema: schema.Clone(), segRows: segmentRowsGlobal, segsDirtyFrom: -1}
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns a copy of the table schema.
func (t *Table) Schema() Schema {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.schema.Clone()
}

// NumRows returns the row count.
func (t *Table) NumRows() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.rows)
}

// RowSizeBytes reports the average stored row width in bytes, used by the
// cost model's I/O estimates. For non-empty tables it is measured from the
// segment column stats (real dictionary and string payload sizes) rather
// than guessed from the schema; the schema heuristic remains only for
// empty tables, which have nothing to measure.
func (t *Table) RowSizeBytes() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.rows) > 0 {
		t.rebuildSegmentsLocked()
		var total int64
		for _, seg := range t.segs {
			for c := range seg.cols {
				total += seg.cols[c].Bytes
			}
		}
		size := int(total / int64(len(t.rows)))
		if size < 1 {
			size = 1
		}
		return size
	}
	size := 0
	for _, c := range t.schema {
		switch c.Type {
		case sqltypes.Int, sqltypes.Float, sqltypes.DateTime:
			size += 8
		case sqltypes.Bool:
			size++
		default:
			size += 24 // average varchar payload estimate
		}
	}
	if size == 0 {
		size = 1
	}
	return size
}

// Insert adds rows in clustered-index order. Every row must match the
// schema arity; values are not re-validated against column types (ingest is
// responsible for parsing). Only the incoming batch is sorted — O(k log k),
// and not at all when it is already in order — and merged into the
// already-sorted table at its insertion point, so a small append no longer
// pays a full-table re-sort; the common bulk-load case (batch sorts
// entirely after the existing rows) is a plain append that rebuilds only
// the trailing partial segment. The table keeps its own copy of the row
// headers, never the caller's slice.
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
	n := len(t.rows)
	if n == 0 || compareRows(batch[0], t.rows[n-1]) >= 0 {
		from := n - n%t.segRows
		t.rows = append(t.rows, batch...)
		t.invalidateSegmentsLocked(from)
		return nil
	}
	// Merge keeps existing rows first on ties, matching what a stable sort
	// of append(existing, batch...) would produce.
	pos := sort.Search(n, func(i int) bool {
		return compareRows(batch[0], t.rows[i]) < 0
	})
	merged := make([]Row, 0, n+len(batch))
	merged = append(merged, t.rows[:pos]...)
	i, j := pos, 0
	for i < n && j < len(batch) {
		if compareRows(batch[j], t.rows[i]) < 0 {
			merged = append(merged, batch[j])
			j++
		} else {
			merged = append(merged, t.rows[i])
			i++
		}
	}
	merged = append(merged, t.rows[i:]...)
	merged = append(merged, batch[j:]...)
	t.rows = merged
	t.invalidateSegmentsLocked(pos)
	return nil
}

// invalidateSegmentsLocked records that segments covering fromRow onward are
// stale. The actual re-encode is deferred to the next columnar read.
func (t *Table) invalidateSegmentsLocked(fromRow int) {
	if fromRow < 0 {
		fromRow = 0
	}
	if t.segsDirtyFrom < 0 || fromRow < t.segsDirtyFrom {
		t.segsDirtyFrom = fromRow
	}
}

// rebuildSegmentsLocked re-columnarizes every segment from the one covering
// the first stale row onward, sharing the untouched prefix segments with the
// previous version (copy-on-write: readers that already fetched the old
// segment slice keep a consistent snapshot). No-op when the view is current.
func (t *Table) rebuildSegmentsLocked() {
	if t.segsDirtyFrom < 0 {
		return
	}
	fromRow := t.segsDirtyFrom
	t.segsDirtyFrom = -1
	fromRow -= fromRow % t.segRows
	firstSeg := fromRow / t.segRows
	n := len(t.rows)
	nSegs := (n + t.segRows - 1) / t.segRows
	segs := make([]*Segment, nSegs)
	if firstSeg > len(t.segs) {
		firstSeg = len(t.segs)
	}
	if firstSeg > nSegs {
		firstSeg = nSegs
	}
	copy(segs, t.segs[:firstSeg])
	width := len(t.schema)
	for i := firstSeg; i < nSegs; i++ {
		lo := i * t.segRows
		hi := lo + t.segRows
		if hi > n {
			hi = n
		}
		segs[i] = buildSegment(t.rows[lo:hi], width)
	}
	t.segs = segs
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

// Scan returns all rows in clustered-index order. The returned slice is
// shared; callers must not mutate rows.
func (t *Table) Scan() []Row {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.rows
}

// ScanSegments returns the row view and its columnar mirror as one
// consistent snapshot: segment i covers rows[i*segRows : i*segRows+Len()].
// Both are shared and must not be mutated. If mutations left the columnar
// view stale this is where the deferred re-encode happens, once, under the
// write lock.
func (t *Table) ScanSegments() ([]Row, []*Segment) {
	t.mu.RLock()
	if t.segsDirtyFrom < 0 {
		rows, segs := t.rows, t.segs
		t.mu.RUnlock()
		return rows, segs
	}
	t.mu.RUnlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rebuildSegmentsLocked()
	return t.rows, t.segs
}

// Span is a run of a table's clustered rows with the columnar segments that
// mirror them: Rows[i] is clustered row Off+i, and Segs are the table's
// segments that are current, in order — segment k holds clustered rows
// k·n … k·n+Segs[k].Len()-1, where n is Segs[0].Len() (every segment but the
// table's last holds n rows). Rows past the ones Segs hold were written after
// the last re-encode and are only in Rows. All of it is shared and must not
// be mutated.
type Span struct {
	Rows []Row
	Off  int
	Segs []*Segment
}

// cleanSegsLocked is the prefix of segs that still mirrors rows: the
// segments before the one holding the first stale row.
func (t *Table) cleanSegsLocked() []*Segment {
	if t.segsDirtyFrom < 0 {
		return t.segs
	}
	if k := t.segsDirtyFrom / t.segRows; k < len(t.segs) {
		return t.segs[:k]
	}
	return t.segs
}

// SeekEqual returns the rows whose first clustered-key column equals v,
// found by binary search — the storage operation behind the "Clustered
// Index Seek" physical operator.
func (t *Table) SeekEqual(v sqltypes.Value) Span {
	return t.SeekRange(v, v, true, true)
}

// SeekRange returns rows whose first column lies in [lo, hi] under the
// clustered sort order, with the segments that mirror them. A nil bound (NULL
// value with inclusive=false ignored) is expressed by passing
// includeLo/includeHi and using the zero Value to mean unbounded. A seek
// never re-encodes: segments a mutation left stale are not in the span.
func (t *Table) SeekRange(lo, hi sqltypes.Value, includeLo, includeHi bool) Span {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := len(t.rows)
	start := 0
	if !lo.IsNull() || lo.Type() != sqltypes.Null {
		start = sort.Search(n, func(i int) bool {
			c := sqltypes.SortCompare(t.rows[i][0], lo)
			if includeLo {
				return c >= 0
			}
			return c > 0
		})
	}
	end := n
	if !hi.IsNull() || hi.Type() != sqltypes.Null {
		end = sort.Search(n, func(i int) bool {
			c := sqltypes.SortCompare(t.rows[i][0], hi)
			if includeHi {
				return c > 0
			}
			return c >= 0
		})
	}
	if start > end {
		return Span{}
	}
	return Span{Rows: t.rows[start:end], Off: start, Segs: t.cleanSegsLocked()}
}
