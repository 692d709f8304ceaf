package engine

import (
	"math/bits"
	"time"

	"sqlshare/internal/sqltypes"
	"sqlshare/internal/storage"
)

// relation is an operator's output. Its rows need not be built: a relation
// draws them from source row slices — a table's clustered rows, the rows an
// operator computed — through one row-index vector per source and an output
// column map. Output row i takes from source s its row idx[s][i] (-1: the
// NULL row an outer join pads with), and output column j is column
// cmap[j].col of source cmap[j].src. A join emits index pairs; a filter, a
// sort or a top narrows or permutes the index vectors; a column projection
// composes the map. Rows are built by materialize, only at the plan's root
// and where an operator keeps storage.Rows (window output, set operations,
// the subplan cache and the semi-probe read materialized inputs).
//
// A source a scan or a seek read also knows the table segments that mirror
// its rows (segRef), so the consumers that only read columns — sizing
// (measure), bare-column keys (buildKeys) and aggregate arguments (the
// grouped fold) — read typed vectors there (colSrc) instead of cells.
//
// A materialized relation is the identity case of that form: one source,
// rows, with srcs, idx and cmap nil — output row i is rows[i] itself.
// Relations are read-only downstream: no operator writes into a row it did
// not allocate (the no-mutation invariant), which is what lets a relation
// alias a table's rows and the sources of the relation below it.
type relation struct {
	cols []ColMeta
	rows []storage.Row
	// seg places rows in the segments of the table they were read from — a
	// scan's or a seek's output — and is zero for rows an operator computed.
	seg segRef
	// srcs is nil in the identity case. idx nil means a single source read
	// row for row; cmap nil means the single source's columns in order.
	srcs []source
	idx  [][]int32
	cmap []colRef
	// memBytes is this relation's charge against the execution's live
	// memory estimate (0 = not charged, or already released). Maintained by
	// execOp/releaseRel only when memory accounting is active.
	memBytes int64
	// bytes is the relation's logical size — the value widths of its rows,
	// summed through the indices — once sized is set: measured by execOp the
	// first time the relation passes through it, or filled in by an operator
	// that knows its output's size without walking it (setBytes).
	bytes int64
	sized bool
}

// source is one row slice a lazy relation draws from, with the segments
// behind it.
type source struct {
	rows []storage.Row
	seg  segRef
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
		return len(r.srcs[0].rows)
	}
	return len(r.rows)
}

func (r *relation) sources() []source {
	if r.srcs != nil {
		return r.srcs
	}
	return []source{{rows: r.rows, seg: r.seg}}
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
	out := &relation{cols: r.cols, rows: r.rows, seg: r.seg, srcs: r.srcs, cmap: r.cmap}
	switch {
	case r.idx != nil:
		out.idx = make([][]int32, len(r.idx))
		for s, v := range r.idx {
			out.idx[s] = v[:k]
		}
	case r.srcs != nil:
		out.srcs = []source{{rows: r.srcs[0].rows[:k], seg: r.srcs[0].seg}}
	default:
		out.rows = r.rows[:k]
	}
	return out
}

// project is the relation whose column j is r's column srcCols[j], named by
// cols: only the column map is composed.
func (r *relation) project(cols []ColMeta, srcCols []int) *relation {
	out := &relation{cols: cols, rows: r.rows, seg: r.seg, srcs: r.srcs, idx: r.idx}
	if r.cmap == nil && len(srcCols) == len(r.cols) && isSeq(srcCols) {
		return out
	}
	if out.srcs == nil {
		out.rows, out.seg, out.srcs = nil, segRef{}, r.sources()
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
// whole — every row of a materialized relation, and of a single-source one
// whose map keeps a prefix of the source's columns — is returned as it is;
// any other is filled into the reader's scratch row, which the next call
// overwrites. A reader belongs to one task.
type rowReader struct {
	rel    *relation
	direct bool
	buf    storage.Row
}

func (r *relation) reader() *rowReader {
	rd := &rowReader{rel: r, direct: r.srcs == nil || (len(r.srcs) == 1 && isPrefixMap(r.cmap))}
	if !rd.direct {
		rd.buf = make(storage.Row, len(r.cmap))
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
	rd.fill(i, rd.buf)
	return rd.buf
}

// fill copies the cells of row i of a mapped relation into dst.
func (rd *rowReader) fill(i int, dst storage.Row) {
	r := rd.rel
	if len(r.srcs) == 1 {
		// One source (a mapped scan or projection): one index lookup per
		// row, and no NULL row, which only an outer join's second source has.
		if r.idx != nil {
			i = int(r.idx[0][i])
		}
		src := r.srcs[0].rows[i]
		for j, c := range r.cmap {
			dst[j] = src[c.col]
		}
		return
	}
	for j, c := range r.cmap {
		ri := i
		if r.idx != nil {
			ri = int(r.idx[c.src][i])
		}
		if ri < 0 {
			dst[j] = sqltypes.NullValue()
		} else {
			dst[j] = r.srcs[c.src].rows[ri][c.col]
		}
	}
}

// materialize builds r's rows in place, turning it into the identity case:
// the one routine that builds a joined or gathered row. Rows the sources hold
// whole are taken by reference (so SELECT * FROM t aliases the table, and a
// filtered or sorted one its rows); the cells of any other row are copied
// into one block for the whole relation.
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
			w := len(r.cmap)
			cells := make([]sqltypes.Value, n*w)
			for i := range rows {
				rows[i] = cells[i*w : (i+1)*w : (i+1)*w]
				rd.fill(i, rows[i])
			}
		}
	}
	r.rows, r.seg, r.srcs, r.idx, r.cmap = rows, segRef{}, nil, nil, nil
}

// segRef places a source's rows in the columnar mirror of the table they
// were read from (a storage.Span without its rows): source row i is the
// table's clustered row off+i, held by segs while it is below the rows they
// cover. The zero segRef is a computed source, whose rows are the only copy
// of their values.
type segRef struct {
	segs []*storage.Segment
	off  int
}

func spanRef(sp storage.Span) segRef { return segRef{segs: sp.Segs, off: sp.Off} }

// segCursor finds the segment that holds a source row. It keeps the last one
// found, which the next row of a scan's order falls in.
type segCursor struct {
	segRef
	per, end int // rows per segment; clustered rows the segments cover
	seg      *storage.Segment
	lo, hi   int // clustered rows of seg
}

func newSegCursor(s segRef) segCursor {
	c := segCursor{segRef: s}
	if n := len(s.segs); n > 0 {
		c.per = s.segs[0].Len()
		c.end = (n-1)*c.per + s.segs[n-1].Len()
	}
	return c
}

// find returns the segment that holds source row ri and ri's offset in it, or
// nil when no current segment does.
func (c *segCursor) find(ri int) (*storage.Segment, int) {
	p := c.off + ri
	if p >= c.lo && p < c.hi {
		return c.seg, p - c.lo
	}
	if p >= c.end {
		return nil, 0
	}
	k := p / c.per
	c.seg, c.lo = c.segs[k], k*c.per
	c.hi = c.lo + c.seg.Len()
	return c.seg, p - c.lo
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
		return source{rows: r.rows, seg: r.seg}
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
// when no segment does (a computed source, a row written since the last
// re-encode, the NULL row), and then ri is the source row to read the cell of.
func (c *colSrc) at(i int) (v *storage.Vector, o, ri int) {
	ri = c.row(i)
	if ri >= 0 {
		if seg, o := c.cur.find(ri); seg != nil {
			return seg.Col(c.col), o, ri
		}
	}
	return nil, 0, ri
}

// value is the cell of output row i.
func (c *colSrc) value(i int) sqltypes.Value { return c.cell(c.row(i)) }

// cell is column col of source row ri (-1: NULL).
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

// measure is the logical size of r's rows lo..hi-1 — what a walk over them
// built would sum of Value.SizeBytes — and, when per is non-nil, adds each
// row's own size into per[i-lo]. It reads the segments behind each source: a
// whole segment read in order adds its columns' Vector.Bytes, a fixed-width
// column without NULLs its width per row, a string or dictionary column its
// lengths, and the NULL row of an outer join nullBytes per column. Cells are
// read only for EncValues vectors, rows past the current segments and
// computed sources. The one routine that sizes rows.
func (r *relation) measure(lo, hi int, per []int64) int64 {
	var total int64
	nsrc := 1
	if r.srcs != nil {
		nsrc = len(r.srcs)
	}
	var buf [16]int
	for s := 0; s < nsrc; s++ {
		cs := buf[:0] // the source's columns r reads, with repeats
		for j := range r.cols {
			if src, c := r.ref(j); src == s {
				cs = append(cs, c)
			}
		}
		if len(cs) == 0 {
			continue
		}
		var idx []int32
		if r.idx != nil {
			idx = r.idx[s]
		}
		total += measureSource(r.source(s), idx, cs, lo, hi, per)
	}
	return total
}

// measureSource is measure of the columns cs of one source, read through idx.
func measureSource(src source, idx []int32, cs []int, lo, hi int, per []int64) int64 {
	var total int64
	cur := newSegCursor(src.seg)
	if len(cs) > 64 {
		cur = newSegCursor(segRef{}) // beyond the mask below: cells
	}
	// In seg, a row of cs holds fixed bytes in its fixed-width NULL-free
	// vectors; the vectors of the columns cs[k] for the bits k of vary are
	// read row by row.
	var seg *storage.Segment
	var fixed int64
	var vary uint64
	for i := lo; i < hi; i++ {
		ri := i
		if idx != nil {
			ri = int(idx[i])
		}
		var b int64
		if ri < 0 {
			b = nullBytes * int64(len(cs))
		} else if sg, o := cur.find(ri); sg == nil {
			for _, c := range cs {
				b += int64(src.rows[ri][c].SizeBytes())
			}
		} else {
			if idx == nil && per == nil && o == 0 && hi-i >= sg.Len() {
				// A whole segment, in order: its measured column sizes.
				for _, c := range cs {
					total += sg.Col(c).Bytes
				}
				i += sg.Len() - 1
				continue
			}
			if sg != seg {
				seg, fixed, vary = sg, 0, 0
				for k, c := range cs {
					if v := sg.Col(c); !v.HasNulls && fixedWidth[v.Enc] > 0 {
						fixed += fixedWidth[v.Enc]
					} else {
						vary |= 1 << uint(k)
					}
				}
			}
			b = fixed
			for m := vary; m != 0; m &= m - 1 {
				c := cs[bits.TrailingZeros64(m)]
				v := sg.Col(c)
				switch {
				case v.IsNull(o):
					b += nullBytes
				case v.Enc == storage.EncString:
					b += strBytes + int64(len(v.Strs[o]))
				case v.Enc == storage.EncDict:
					b += strBytes + int64(len(v.Dict[v.Codes[o]]))
				case fixedWidth[v.Enc] > 0:
					b += fixedWidth[v.Enc]
				default:
					b += int64(src.rows[ri][c].SizeBytes())
				}
			}
		}
		total += b
		if per != nil {
			per[i-lo] += b
		}
	}
	return total
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
func (p *pairReader) setLeft(li int) { copy(p.buf[:p.lw], p.l.row(li)) }

// pair is the scratch row with right row ri beside the left row.
func (p *pairReader) pair(ri int) storage.Row {
	copy(p.buf[p.lw:], p.r.row(ri))
	return p.buf
}
