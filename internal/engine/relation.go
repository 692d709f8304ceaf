package engine

import (
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
// A materialized relation is the identity case of that form: one source,
// rows, with srcs, idx and cmap nil — output row i is rows[i] itself.
// Relations are read-only downstream: no operator writes into a row it did
// not allocate (the no-mutation invariant), which is what lets a relation
// alias a table's rows and the sources of the relation below it.
type relation struct {
	cols []ColMeta
	rows []storage.Row
	// srcs is nil in the identity case. idx nil means a single source read
	// row for row; cmap nil means the single source's columns in order.
	srcs [][]storage.Row
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

// colRef is one output column of a lazy relation: a column of a source.
type colRef struct{ src, col int }

func (r *relation) setBytes(n int64) { r.bytes, r.sized = n, true }

// len is the relation's row count.
func (r *relation) len() int {
	switch {
	case r.idx != nil:
		return len(r.idx[0])
	case r.srcs != nil:
		return len(r.srcs[0])
	}
	return len(r.rows)
}

func (r *relation) sources() [][]storage.Row {
	if r.srcs != nil {
		return r.srcs
	}
	return [][]storage.Row{r.rows}
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
		out.srcs = [][]storage.Row{r.srcs[0][:k]}
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
		out.rows, out.srcs = nil, [][]storage.Row{r.rows}
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
	out := &relation{cols: cols, srcs: append(append(make([][]storage.Row, 0, len(ls)+len(rs)), ls...), rs...)}
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
		row := r.srcs[0][i]
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
	for j, c := range r.cmap {
		ri := i
		if r.idx != nil {
			ri = int(r.idx[c.src][i])
		}
		if ri < 0 {
			dst[j] = sqltypes.NullValue()
		} else {
			dst[j] = r.srcs[c.src][ri][c.col]
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
	r.rows, r.srcs, r.idx, r.cmap = rows, nil, nil, nil
}

// rowBytes is the logical size of one row: the sum of its value widths.
func rowBytes(row storage.Row) int64 {
	var total int64
	for _, v := range row {
		total += int64(v.SizeBytes())
	}
	return total
}

// rowSizes is the logical size of each of r's rows.
func rowSizes(r *relation) []int64 {
	rd := r.reader()
	sizes := make([]int64, r.len())
	for i := range sizes {
		sizes[i] = rowBytes(rd.row(i))
	}
	return sizes
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
