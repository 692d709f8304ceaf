package engine

import (
	"time"

	"sqlshare/internal/sqltypes"
	"sqlshare/internal/storage"
)

// relation is an operator's output. Its rows need not be built: a relation
// draws them from sources — runs of tables' clustered rows, read from their
// segments, or the rows an operator computed — through one row-index vector
// per source and an output column map. Output row i takes from source s its
// row idx[s][i] (-1: the NULL row an outer join pads with), and output
// column j is column cmap[j].col of source cmap[j].src. A join emits index
// pairs; a filter, a sort or a top narrows or permutes the index vectors; a
// column projection composes the map; a UNION ALL of scans chains their
// runs. Rows are built by materialize, only at the plan's root and where an
// operator keeps storage.Rows (window output, the other set operations, and
// the uncorrelated subquery cache the semi-probe reads).
//
// A source a scan or a seek read is a table's segments (segRef) and has no
// rows: the consumers that only read columns — sizing (measure), bare-column
// keys (buildKeys) and aggregate arguments (the grouped fold) — read its
// typed vectors (colSrc), and a row reader builds the cells of a row from
// them through a segment cursor.
//
// A materialized relation is the identity case of that form: rows an
// operator computed, with srcs, idx and cmap nil — output row i is rows[i]
// itself. Relations are read-only downstream: no operator writes into a row
// it did not allocate (the no-mutation invariant), which is what lets a
// relation alias the sources of the relation below it.
type relation struct {
	cols []ColMeta
	rows []storage.Row
	// srcs is nil in the identity case. idx nil means a single source read
	// row for row; cmap nil means the single source's columns in order.
	srcs []source
	idx  [][]int32
	cmap []colRef
	// memBytes is this relation's charge against the execution's live
	// memory estimate (0 = not charged, or already released), maintained by
	// execOp/releaseRel.
	memBytes int64
	// bytes is the relation's logical size — the value widths of its rows,
	// summed through the indices — once sized is set: measured by execOp the
	// first time the relation passes through it, or filled in by an operator
	// that knows its output's size without walking it (setBytes).
	bytes int64
	sized bool
}

// source is one input a lazy relation draws from: the rows an operator
// computed, or (seg.spans non-nil) runs of tables' clustered rows.
type source struct {
	rows []storage.Row
	seg  segRef
}

func (s source) len() int {
	if s.seg.spans != nil {
		return s.seg.n
	}
	return len(s.rows)
}

// prefix is the source's first k rows.
func (s source) prefix(k int) source {
	if s.seg.spans == nil {
		s.rows = s.rows[:k]
		return s
	}
	spans, left := make([]storage.Span, 0, len(s.seg.spans)), k
	for _, sp := range s.seg.spans {
		if len(spans) > 0 && left == 0 {
			break
		}
		sp.N = min(sp.N, left)
		spans = append(spans, sp)
		left -= sp.N
	}
	s.seg = segRef{spans: spans, n: k}
	return s
}

// colRef is one output column of a lazy relation: a column of a source.
type colRef struct{ src, col int }

func (r *relation) setBytes(n int64) { r.bytes, r.sized = n, true }

// len is the relation's row count.
func (r *relation) len() int {
	switch {
	case r.idx != nil:
		return len(r.idx[0])
	case r.srcs != nil:
		return r.srcs[0].len()
	}
	return len(r.rows)
}

func (r *relation) sources() []source {
	if r.srcs != nil {
		return r.srcs
	}
	return []source{{rows: r.rows}}
}

func (r *relation) colMap() []colRef {
	if r.cmap != nil {
		return r.cmap
	}
	m := make([]colRef, len(r.cols))
	for j := range m {
		m[j].col = j
	}
	return m
}

// through is, per source of r, the index vector that reads r's rows sel[0],
// sel[1], …; a -1 in sel stays -1.
func (r *relation) through(sel []int32) [][]int32 {
	if r.idx == nil {
		return [][]int32{sel}
	}
	out := make([][]int32, len(r.idx))
	for s, v := range r.idx {
		w := make([]int32, len(sel))
		for i, k := range sel {
			if k < 0 {
				w[i] = -1
			} else {
				w[i] = v[k]
			}
		}
		out[s] = w
	}
	return out
}

// pick is the relation of r's rows sel[0], sel[1], …: a filter's survivors, a
// sort's order, a DISTINCT's first rows. Only index vectors are built.
func (r *relation) pick(sel []int32) *relation {
	return &relation{cols: r.cols, srcs: r.sources(), idx: r.through(sel), cmap: r.cmap}
}

// prefix is the relation of r's first k rows.
func (r *relation) prefix(k int) *relation {
	out := &relation{cols: r.cols, rows: r.rows, srcs: r.srcs, cmap: r.cmap}
	switch {
	case r.idx != nil:
		out.idx = make([][]int32, len(r.idx))
		for s, v := range r.idx {
			out.idx[s] = v[:k]
		}
	case r.srcs != nil:
		out.srcs = []source{r.srcs[0].prefix(k)}
	default:
		out.rows = r.rows[:k]
	}
	return out
}

// project is the relation whose column j is r's column srcCols[j], named by
// cols: only the column map is composed.
func (r *relation) project(cols []ColMeta, srcCols []int) *relation {
	out := &relation{cols: cols, rows: r.rows, srcs: r.srcs, idx: r.idx}
	if r.cmap == nil && len(srcCols) == len(r.cols) && isSeq(srcCols) {
		return out
	}
	if out.srcs == nil {
		out.rows, out.srcs = nil, r.sources()
	}
	out.cmap = make([]colRef, len(srcCols))
	for j, c := range srcCols {
		if r.cmap != nil {
			out.cmap[j] = r.cmap[c]
		} else {
			out.cmap[j].col = c
		}
	}
	return out
}

// trim is r without its columns from k on.
func (r *relation) trim(k int) *relation {
	cols := make([]int, k)
	for j := range cols {
		cols[j] = j
	}
	return r.project(r.cols[:k], cols)
}

func isSeq(cols []int) bool {
	for j, c := range cols {
		if c != j {
			return false
		}
	}
	return true
}

// joinRel is the relation of the row pairs (lidx[i], ridx[i]) of l and r,
// side by side under cols; -1 on either side is the NULL row of an outer
// join. No row is built: the output reads l's and r's sources.
func joinRel(cols []ColMeta, l, r *relation, lidx, ridx []int32) *relation {
	ls, rs := l.sources(), r.sources()
	out := &relation{cols: cols, srcs: append(append(make([]source, 0, len(ls)+len(rs)), ls...), rs...)}
	out.idx = append(l.through(lidx), r.through(ridx)...)
	out.cmap = append(make([]colRef, 0, len(cols)), l.colMap()...)
	for _, c := range r.colMap() {
		out.cmap = append(out.cmap, colRef{src: c.src + len(ls), col: c.col})
	}
	return out
}

// rowReader reads a relation's rows: the one accessor every operator that
// evaluates expressions over its input goes through. A row the sources hold
// whole — every row of a materialized relation, and of a single computed
// source whose map keeps a prefix of its columns — is returned as it is; any
// other is filled into the reader's scratch row, which the next call
// overwrites, its table cells read through a segment cursor per source. A
// reader belongs to one task.
type rowReader struct {
	rel    *relation
	direct bool
	buf    storage.Row
	curs   []segCursor
}

func (r *relation) reader() *rowReader {
	rd := &rowReader{rel: r, direct: r.srcs == nil || (len(r.srcs) == 1 && r.srcs[0].seg.spans == nil && isPrefixMap(r.cmap))}
	if !rd.direct {
		rd.buf = make(storage.Row, len(r.cols))
		rd.curs = make([]segCursor, len(r.srcs))
		for s, src := range r.srcs {
			rd.curs[s] = newSegCursor(src.seg)
		}
	}
	return rd
}

func isPrefixMap(m []colRef) bool {
	for j, c := range m {
		if c.src != 0 || c.col != j {
			return false
		}
	}
	return true
}

// row is row i of the relation, valid until the next call.
func (rd *rowReader) row(i int) storage.Row {
	r := rd.rel
	switch {
	case r.srcs == nil:
		return r.rows[i]
	case rd.direct:
		if r.idx != nil {
			i = int(r.idx[0][i])
		}
		row := r.srcs[0].rows[i]
		if w := len(r.cmap); r.cmap != nil {
			row = row[:w:w]
		}
		return row
	}
	rd.fillCols(i, rd.buf, nil)
	return rd.buf
}

// rowCols is row i of the relation with, when it is not held whole, only
// the cells of columns cols filled (cols nil: every cell); valid until the
// next call.
func (rd *rowReader) rowCols(i int, cols []int) storage.Row {
	if rd.direct || cols == nil {
		return rd.row(i)
	}
	rd.fillCols(i, rd.buf, cols)
	return rd.buf
}

// copyRow copies the cells of row i into dst.
func (rd *rowReader) copyRow(i int, dst storage.Row) {
	if rd.direct {
		copy(dst, rd.row(i))
	} else {
		rd.fillCols(i, dst, nil)
	}
}

// fillCols copies the cells of columns cols of row i of a mapped relation
// into dst (cols nil: every column).
func (rd *rowReader) fillCols(i int, dst storage.Row, cols []int) {
	r := rd.rel
	n := len(dst)
	if cols != nil {
		n = len(cols)
	}
	col := func(k int) int {
		if cols != nil {
			return cols[k]
		}
		return k
	}
	if len(r.srcs) == 1 {
		// One source (a scan, a mapped scan or projection): one index
		// lookup per row, and no NULL row, which only an outer join's
		// second source has.
		if r.idx != nil {
			i = int(r.idx[0][i])
		}
		if src := r.srcs[0]; src.seg.spans == nil {
			row := src.rows[i]
			for k := 0; k < n; k++ {
				j := col(k)
				dst[j] = row[r.cmap[j].col]
			}
			return
		}
		seg, o := rd.curs[0].find(i)
		for k := 0; k < n; k++ {
			j := col(k)
			_, c := r.ref(j)
			seg.Col(c).Load(o, &dst[j])
		}
		return
	}
	for k := 0; k < n; k++ {
		j := col(k)
		c := r.cmap[j]
		ri := i
		if r.idx != nil {
			ri = int(r.idx[c.src][i])
		}
		switch src := r.srcs[c.src]; {
		case ri < 0:
			dst[j] = sqltypes.NullValue()
		case src.seg.spans != nil:
			seg, o := rd.curs[c.src].find(ri)
			seg.Col(c.col).Load(o, &dst[j])
		default:
			dst[j] = src.rows[ri][c.col]
		}
	}
}

// materialize builds r's rows in place, turning it into the identity case:
// the one routine that builds a joined, gathered or table row. Rows a
// computed source holds whole are taken by reference (so a filtered or
// sorted relation of computed rows aliases them); the cells of any other row
// are copied into one block for the whole relation.
func materialize(r *relation) {
	if r.srcs == nil {
		return
	}
	n := r.len()
	var rows []storage.Row
	if n > 0 {
		rows = make([]storage.Row, n)
		rd := r.reader()
		if rd.direct {
			for i := range rows {
				rows[i] = rd.row(i)
			}
		} else {
			w := len(r.cols)
			cells := make([]sqltypes.Value, n*w)
			for i := range rows {
				rows[i] = cells[i*w : (i+1)*w : (i+1)*w]
				rd.fillCols(i, rows[i], nil)
			}
		}
	}
	r.rows, r.srcs, r.idx, r.cmap = rows, nil, nil, nil
}

// segRef is runs of tables' clustered rows read from their segments: the
// rows of each span in turn — one span for a scan or a seek, one per input
// for a UNION ALL of scans. Source row i is row i of their concatenation,
// and n is their count. The zero segRef is no table's: a computed source's
// rows are the only copy of their values.
type segRef struct {
	spans []storage.Span
	n     int
}

func spanRef(sp storage.Span) segRef { return segRef{spans: []storage.Span{sp}, n: sp.N} }

// segCursor finds the segment that holds a source row. It keeps the last one
// found, which the next row of a scan's order falls in.
type segCursor struct {
	segRef
	sp, s0, s1 int // the span of the last row found, and its source rows
	seg        *storage.Segment
	base       int // the source row of seg's first row
	lo, hi     int // the source rows seg holds in the span
}

func newSegCursor(s segRef) segCursor { return segCursor{segRef: s} }

// find returns the segment that holds source row ri and ri's offset in it.
func (c *segCursor) find(ri int) (*storage.Segment, int) {
	if ri < c.lo || ri >= c.hi {
		c.seek(ri)
	}
	return c.seg, ri - c.base
}

// seek moves the cursor to the segment that holds source row ri.
func (c *segCursor) seek(ri int) {
	if ri < c.s0 || ri >= c.s1 {
		c.sp, c.s0, c.s1 = 0, 0, c.spans[0].N
		for ri >= c.s1 {
			c.sp++
			c.s0, c.s1 = c.s1, c.s1+c.spans[c.sp].N
		}
	}
	sp := c.spans[c.sp]
	p := sp.Off + ri - c.s0 // the row's clustered position in its table
	per := sp.Segs[0].Len()
	k := p / per
	c.seg, c.base = sp.Segs[k], c.s0-sp.Off+k*per
	c.lo, c.hi = max(c.base, c.s0), min(c.base+c.seg.Len(), c.s1)
}

// colSrc is one output column of a relation read where it lives: column col
// of a source, output row i being source row idx[i] (idx nil: row i; -1: the
// NULL row of an outer join). A colSrc belongs to one task.
type colSrc struct {
	rows []storage.Row
	col  int
	idx  []int32
	cur  segCursor
}

// column is output column j of r at its source.
func (r *relation) column(j int) colSrc {
	s, c := r.ref(j)
	src := r.source(s)
	cs := colSrc{rows: src.rows, col: c, cur: newSegCursor(src.seg)}
	if r.idx != nil {
		cs.idx = r.idx[s]
	}
	return cs
}

// ref is the source and source column behind output column j.
func (r *relation) ref(j int) (src, col int) {
	if r.cmap == nil {
		return 0, j
	}
	return r.cmap[j].src, r.cmap[j].col
}

func (r *relation) source(s int) source {
	if r.srcs == nil {
		return source{rows: r.rows}
	}
	return r.srcs[s]
}

// row is the source row of output row i, -1 for the NULL row.
func (c *colSrc) row(i int) int {
	if c.idx == nil {
		return i
	}
	return int(c.idx[i])
}

// at is the vector that holds output row i and the row's offset in it; nil
// for a computed source and for the NULL row, and then ri is the source row
// to read the cell of.
func (c *colSrc) at(i int) (v *storage.Vector, o, ri int) {
	ri = c.row(i)
	if ri >= 0 && c.cur.spans != nil {
		seg, o := c.cur.find(ri)
		return seg.Col(c.col), o, ri
	}
	return nil, 0, ri
}

// run is the vector that holds output row i and how many of the rows i..hi-1
// it holds from i on: row k of them sits at offset c.row(k)-base. A computed
// source's row and the NULL row have none (nil, one row).
func (c *colSrc) run(i, hi int) (v *storage.Vector, base, n int) {
	if v, _, _ = c.at(i); v == nil {
		return nil, 0, 1
	}
	for n = 1; i+n < hi; n++ {
		if r := c.row(i + n); r < c.cur.lo || r >= c.cur.hi {
			break
		}
	}
	return v, c.cur.base, n
}

// value is the cell of output row i.
func (c *colSrc) value(i int) (x sqltypes.Value) {
	c.load(i, &x)
	return x
}

// load stores the cell of output row i in *dst.
func (c *colSrc) load(i int, dst *sqltypes.Value) {
	if v, o, ri := c.at(i); v == nil {
		*dst = c.cell(ri)
	} else {
		v.Load(o, dst)
	}
}

// cell is column col of computed source row ri (-1: NULL).
func (c *colSrc) cell(ri int) sqltypes.Value {
	if ri < 0 {
		return sqltypes.NullValue()
	}
	return c.rows[ri][c.col]
}

// The logical width of a value of each encoding, as Value.SizeBytes gives it
// (a string's adds its length to strBytes); 0 where widths vary.
var (
	nullBytes  = int64(sqltypes.NullValue().SizeBytes())
	strBytes   = int64(sqltypes.NewString("").SizeBytes())
	fixedWidth = [...]int64{
		storage.EncInt:   int64(sqltypes.NewInt(0).SizeBytes()),
		storage.EncFloat: int64(sqltypes.NewFloat(0).SizeBytes()),
		storage.EncBool:  int64(sqltypes.NewBool(false).SizeBytes()),
		storage.EncTime:  int64(sqltypes.NewDateTime(time.Time{}).SizeBytes()),
		storage.EncDict:  0,
	}
)

// measure is the logical size of r's rows sel[0], sel[1], … (sel nil: every
// row; -1: the NULL row of an outer join) — what a walk over them built would
// sum of Value.SizeBytes. The one routine that sizes rows.
func (r *relation) measure(sel []int32) (total int64) {
	var cols [16]int
	for s := range max(len(r.srcs), 1) {
		z := r.sizerOf(s, cols[:0])
		total += z.size(sel)
	}
	return total
}

// sizer is measure with r's sources classified once, for an operator that
// sizes many selections of one relation (the hash join's output batches).
// Read-only, so tasks share it.
type sizer []srcSizer

func (r *relation) sizer() (zs sizer) {
	for s := range max(len(r.srcs), 1) {
		zs = append(zs, r.sizerOf(s, nil))
	}
	return zs
}

func (zs sizer) measure(sel []int32) (total int64) {
	for i := range zs {
		total += zs[i].size(sel)
	}
	return total
}

// sizerOf is the sizer of r's source s, its column lists appended to cols.
func (r *relation) sizerOf(s int, cols []int) srcSizer {
	z := srcSizer{src: r.source(s), n: r.len()}
	if r.idx != nil {
		z.idx = r.idx[s]
	}
	for j := range r.cols {
		if src, c := r.ref(j); src == s {
			cols = append(cols, c)
		}
	}
	z.cs, z.vary = cols, cols[len(cols):]
	for _, c := range z.cs {
		if w := fixedIn(z.src.seg.spans, c); w > 0 {
			z.fixed += w
		} else if z.src.seg.spans != nil {
			z.vary = append(z.vary, c)
		}
	}
	return z
}

// srcSizer sizes the columns cs of one source of an n-row relation, read
// through idx. Of a table source's columns, those whose vectors are
// fixed-width and NULL-free in every segment the source spans add fixed
// bytes a row; only the others (vary: strings, dictionary codes, nullable
// and EncValues vectors) are read per row, and a whole segment read in
// order adds their Vector.Bytes. A computed source is read cell by cell.
type srcSizer struct {
	src      source
	idx      []int32
	n        int
	cs, vary []int // cs: the source's columns r reads, with repeats
	fixed    int64
}

// fixedIn is the width of column c's values if its vector is fixed-width
// and NULL-free, of that width, in every segment spans cover; else 0.
func fixedIn(spans []storage.Span, c int) int64 {
	w := int64(0)
	for _, sp := range spans {
		if sp.N == 0 {
			continue
		}
		for k, per := sp.Off/sp.Segs[0].Len(), sp.Segs[0].Len(); k*per < sp.Off+sp.N; k++ {
			v := sp.Segs[k].Col(c)
			if v.HasNulls || fixedWidth[v.Enc] == 0 || w > 0 && fixedWidth[v.Enc] != w {
				return 0
			}
			w = fixedWidth[v.Enc]
		}
	}
	return w
}

// size is the logical size of the source's columns in the relation's rows
// sel (sel nil: every row).
func (z *srcSizer) size(sel []int32) int64 {
	if len(z.cs) == 0 {
		return 0
	}
	n := z.n
	if sel != nil {
		n = len(sel)
	}
	inOrder := sel == nil && z.idx == nil
	var total int64
	nulls := 0
	rows, cur := z.src.rows, newSegCursor(z.src.seg)
	var buf [256]int32
	for i := 0; i < n; i++ {
		ri := z.row(sel, i)
		switch {
		case ri < 0:
			nulls++
		case cur.spans == nil:
			for _, c := range z.cs {
				total += int64(rows[ri][c].SizeBytes())
			}
		case len(z.vary) == 0:
			if inOrder {
				i = n
			}
		default:
			// A run of rows one segment holds: a whole one read in order,
			// or at most len(buf) of them.
			sg, o := cur.find(ri)
			if inOrder && o == 0 && cur.hi-ri == sg.Len() {
				for _, c := range z.vary {
					total += sg.Col(c).Bytes
				}
				i += sg.Len() - 1
				continue
			}
			offs := append(buf[:0], int32(o))
			for ; i+1 < n && len(offs) < len(buf); i++ {
				ri := z.row(sel, i+1)
				if ri < cur.lo || ri >= cur.hi {
					break
				}
				offs = append(offs, int32(ri-cur.base))
			}
			for _, c := range z.vary {
				total += vecBytes(sg.Col(c), offs)
			}
		}
	}
	return total + int64(n-nulls)*z.fixed + int64(nulls)*nullBytes*int64(len(z.cs))
}

// row is the source row behind output row sel[i] (sel nil: i), -1 for the
// NULL row.
func (z *srcSizer) row(sel []int32, i int) int {
	if sel != nil {
		if i = int(sel[i]); i < 0 {
			return -1
		}
	}
	if z.idx != nil {
		return int(z.idx[i])
	}
	return i
}

// vecBytes is the logical size of v's cells at offsets rows (nil: every
// cell, its measured Vector.Bytes).
func vecBytes(v *storage.Vector, rows []int32) (b int64) {
	w, n := fixedWidth[v.Enc], int64(len(rows))
	strs, codes, dict := v.Strs, v.Codes, v.Dict
	switch {
	case rows == nil:
		return v.Bytes
	case v.HasNulls || v.Enc == storage.EncValues:
		for _, o := range rows {
			b += int64(v.Value(int(o)).SizeBytes())
		}
		return b
	case w > 0:
		return w * n
	case v.Enc == storage.EncString:
		for _, o := range rows {
			b += int64(len(strs[o]))
		}
	default: // EncDict
		for _, o := range rows {
			b += int64(len(dict[codes[o]]))
		}
	}
	return b + strBytes*n
}

// pairReader reads a join's candidate pairs — a left row beside a right row
// — into one reused scratch row, for the join's predicate.
type pairReader struct {
	l, r *rowReader
	lw   int
	buf  storage.Row
}

func newPairReader(l, r *relation) *pairReader {
	return &pairReader{l: l.reader(), r: r.reader(), lw: len(l.cols), buf: make(storage.Row, len(l.cols)+len(r.cols))}
}

// setLeft puts left row li into the scratch row.
func (p *pairReader) setLeft(li int) { p.l.copyRow(li, p.buf[:p.lw]) }

// pair is the scratch row with right row ri beside the left row.
func (p *pairReader) pair(ri int) storage.Row {
	p.r.copyRow(ri, p.buf[p.lw:])
	return p.buf
}
