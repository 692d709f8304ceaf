// Package ingest implements SQLShare's relaxed-schema upload path (§3.1):
// delimiter inference over a row prefix, header detection with default
// column names, most-specific type inference with revert-to-string
// recovery, and NULL padding for ragged rows. The design goal is the
// paper's: never reject dirty data — tolerate structure, type and value
// problems and let users repair them with SQL views.
package ingest

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"

	"sqlshare/internal/sqltypes"
	"sqlshare/internal/storage"
)

// DefaultInferenceRows is the prefix length N used for delimiter and type
// inference when Options does not override it.
const DefaultInferenceRows = 100

// DefaultDelimiters are the candidate field separators tried during format
// inference, in preference order.
var DefaultDelimiters = []rune{',', '\t', ';', '|'}

// Options tunes the ingest heuristics.
type Options struct {
	// InferenceRows is the prefix length N inspected for delimiter and
	// type inference; 0 uses DefaultInferenceRows.
	InferenceRows int
	// Delimiter forces a field separator; 0 infers one.
	Delimiter rune
	// HasHeader forces header handling; nil auto-detects.
	HasHeader *bool
}

// Report describes what ingest did — the quantities §5.1 aggregates over
// the corpus (defaulted column names, ragged rows, widened columns).
type Report struct {
	// Table is the loaded base table.
	Table *storage.Table
	// Delimiter is the separator used.
	Delimiter rune
	// HeaderDetected reports whether the first row was consumed as a
	// header.
	HeaderDetected bool
	// DefaultedColumns counts columns that received default names; when
	// AllDefaulted is set the source supplied no usable header at all
	// (about 50% of uploads in the paper).
	DefaultedColumns int
	AllDefaulted     bool
	// RaggedRows counts rows whose field count differed from the header
	// width (9% of paper uploads used this tolerance).
	RaggedRows int
	// WidenedColumns lists columns whose inferred type failed below the
	// inference prefix and were reverted to VARCHAR (the ALTER TABLE
	// recovery path).
	WidenedColumns []string
	// Rows is the number of data rows loaded.
	Rows int
}

// Load ingests delimited text into a new base table named name.
func Load(name string, r io.Reader, opts Options) (*Report, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return LoadBytes(name, data, opts)
}

// LoadBytes ingests staged file contents. Staging happens upstream (the
// REST layer keeps the raw bytes so a failed ingest can be retried without
// re-upload, §3.1); this function is deterministic over its input and never
// writes to data.
//
// It reads the file once, with the one tokenizer (records.go). Only the
// inference prefix — the records header detection and type inference look
// at — is held; every later record is parsed as it is read into one typed
// array per column, and the table's columnar segments are cut straight from
// those arrays. A leading UTF-8 byte-order mark is not data.
func LoadBytes(name string, data []byte, opts Options) (*Report, error) {
	data = bytes.TrimPrefix(data, utf8BOM)
	n := opts.InferenceRows
	if n <= 0 {
		n = DefaultInferenceRows
	}
	delim := opts.Delimiter
	if delim == 0 {
		var err error
		delim, err = InferDelimiter(data, n)
		if err != nil {
			return nil, err
		}
	}
	// Header detection reads up to DefaultInferenceRows records, type
	// inference the first n body rows.
	tok, err := newTokenizer(data, delim)
	if err != nil {
		return nil, err
	}
	var held [][]string
	for len(held) < max(DefaultInferenceRows, n+1) {
		rec, ok := tok.nextRecord(nil)
		if !ok {
			break
		}
		held = append(held, rec)
	}
	if len(held) == 0 {
		return nil, errors.New("ingest: empty file")
	}

	rep := &Report{Delimiter: delim}

	// Header handling.
	var header []string
	if opts.HasHeader != nil {
		rep.HeaderDetected = *opts.HasHeader
	} else {
		rep.HeaderDetected = looksLikeHeader(held)
	}
	body := held
	if rep.HeaderDetected {
		header = held[0]
		body = held[1:]
	}

	// Raggedness is measured against the nominal width — the header's, or
	// the first data row's when there is no header. The table is as wide
	// as the longest row (ragged tolerance); a row wider than any before
	// it widens the rows already loaded. A file has no more records than
	// lines.
	l := &loader{est: bytes.Count(data, []byte{'\n'}) + 1}
	if rep.HeaderDetected {
		l.est--
	}
	l.nominal = len(header)
	if l.nominal == 0 && len(body) > 0 {
		l.nominal = len(body[0])
	}
	width := l.nominal
	for _, rec := range body {
		width = max(width, len(rec))
	}

	// Type inference over the first N body rows: most-specific type that
	// covers every observed value.
	l.types = make([]sqltypes.Type, width)
	for _, rec := range body[:min(len(body), n)] {
		for i, raw := range rec {
			l.types[i] = sqltypes.Widen(l.types[i], sqltypes.InferValueType(raw))
		}
	}
	l.cols = make([]*storage.ColumnBuilder, width)
	for i := range l.types {
		if l.types[i] == sqltypes.Null {
			l.types[i] = sqltypes.String
		}
		l.cols[i] = storage.NewColumnBuilder(l.types[i], l.est)
	}

	for _, rec := range body {
		l.add(rec)
	}
	held, body = nil, nil
	for rec, ok := tok.nextRecord(nil); ok; rec, ok = tok.nextRecord(rec) {
		l.add(rec)
	}
	width = len(l.types)
	if width == 0 {
		return nil, errors.New("ingest: no columns")
	}

	// Column names: from the header where available, defaults elsewhere.
	// A header cell is a piece of data, which the table must not keep.
	names := make([]string, width)
	used := map[string]bool{}
	for i := 0; i < width; i++ {
		var h string
		if i < len(header) {
			h = strings.Clone(strings.TrimSpace(header[i]))
		}
		if h == "" {
			h = fmt.Sprintf("column%d", i+1)
			rep.DefaultedColumns++
		}
		base := h
		for k := 2; used[strings.ToLower(h)]; k++ {
			h = fmt.Sprintf("%s_%d", base, k)
		}
		used[strings.ToLower(h)] = true
		names[i] = h
	}
	rep.AllDefaulted = rep.DefaultedColumns == width && width > 0
	for _, i := range l.reverted {
		rep.WidenedColumns = append(rep.WidenedColumns, names[i])
	}
	rep.RaggedRows = l.ragged

	schema := make(storage.Schema, width)
	for i := 0; i < width; i++ {
		schema[i] = storage.Column{Name: names[i], Type: l.types[i]}
	}
	tbl, err := storage.NewTableFromColumns(name, schema, l.cols)
	if err != nil {
		return nil, err
	}
	rep.Table = tbl
	rep.Rows = l.rows
	return rep, nil
}

// loader parses records into typed columns, one record at a time.
type loader struct {
	nominal  int                      // the width a row is ragged against
	types    []sqltypes.Type          // one per column; len is the table's width
	cols     []*storage.ColumnBuilder // one per column
	rows     int
	est      int // the rows the file can hold: its lines
	ragged   int
	reverted []int // columns reverted to VARCHAR, in the order they failed
}

// add parses one record into the next cell of every column.
func (l *loader) add(rec []string) {
	for len(l.types) < len(rec) {
		// Columns no inference row reached are VARCHAR; the rows already
		// loaded are NULL there.
		c := storage.NewColumnBuilder(sqltypes.String, l.est)
		for k := 0; k < l.rows; k++ {
			c.Append(sqltypes.TypedNull(sqltypes.String))
		}
		l.types = append(l.types, sqltypes.String)
		l.cols = append(l.cols, c)
	}
	if len(rec) != l.nominal {
		l.ragged++
	}
	for i, col := range l.cols {
		var raw string
		if i < len(rec) {
			raw = rec[i]
		}
		if !parseCell(col, raw, l.types[i]) {
			// When a value below the inference prefix fails to parse as
			// the inferred type, the paper's system catches the database
			// exception, reverts the column to a string via ALTER TABLE,
			// and continues; we do the same in place, re-rendering the
			// column's values already parsed.
			l.types[i] = sqltypes.String
			l.reverted = append(l.reverted, i)
			col = l.revert(col)
			l.cols[i] = col
			parseCell(col, raw, sqltypes.String)
		}
	}
	l.rows++
}

// revert re-renders the cells of col as VARCHARs, a NULL as a VARCHAR NULL.
func (l *loader) revert(col *storage.ColumnBuilder) *storage.ColumnBuilder {
	out := storage.NewColumnBuilder(sqltypes.String, l.est)
	for k := 0; k < col.Len(); k++ {
		if v := col.Value(k); v.IsNull() {
			out.Append(sqltypes.TypedNull(sqltypes.String))
		} else {
			out.Append(sqltypes.NewString(v.String()))
		}
	}
	return out
}

// parseCell appends raw to col as the value of type t sqltypes.ParseAs
// parses it as, or reports false, appending nothing, when it does not
// parse. A VARCHAR is handed over as a piece of the staged file: the
// table's vectors keep copies, so no cell pins the file it was read from.
func parseCell(col *storage.ColumnBuilder, raw string, t sqltypes.Type) bool {
	s := sqltypes.TrimSpace(raw)
	switch {
	case s == "":
		col.Append(sqltypes.TypedNull(t))
	case t == sqltypes.String:
		col.AppendString(raw)
	case t == sqltypes.Int:
		i, ok := sqltypes.ParseInt(s)
		if !ok {
			return false
		}
		col.AppendInt(i)
	case t == sqltypes.Float:
		f, ok := sqltypes.ParseNumeric(s)
		if !ok {
			return false
		}
		col.AppendFloat(f)
	case t == sqltypes.DateTime:
		tm, ok := sqltypes.ParseDateTime(s)
		if !ok {
			return false
		}
		col.AppendDateTime(tm)
	default:
		v, ok := sqltypes.ParseAs(s, t)
		if !ok {
			return false
		}
		col.Append(v)
	}
	return true
}

// InferDelimiter picks the candidate separator that parses the first n
// rows with a consistent column count greater than one, preferring the
// candidate yielding the most columns (§3.1: "consider various row and
// column delimiter values until the first N rows can be parsed with
// identical column counts").
func InferDelimiter(data []byte, n int) (rune, error) {
	best, bestCols := rune(0), 1
	for _, d := range DefaultDelimiters {
		if cols := prefixWidth(data, d, n); cols > bestCols {
			best, bestCols = d, cols
		}
	}
	if best != 0 {
		return best, nil
	}
	// Single-column files or inconsistent rows: fall back to the first
	// candidate that parses at all — tolerate, never reject.
	for _, d := range DefaultDelimiters {
		if validDelim(d) {
			return d, nil
		}
	}
	return 0, errors.New("ingest: cannot infer a delimiter")
}

// prefixWidth is the field count of each of the first n records of data
// split on delim, or 0 when they differ, there are none or delim is
// invalid.
func prefixWidth(data []byte, delim rune, n int) int {
	tok, err := newTokenizer(data, delim)
	if err != nil {
		return 0
	}
	cols := 0
	var rec []string
	for k := 0; k < n; k++ {
		var ok bool
		if rec, ok = tok.next(rec); !ok {
			break
		}
		if k > 0 && len(rec) != cols {
			return 0
		}
		cols = len(rec)
	}
	return cols
}

// utf8BOM is the byte-order mark spreadsheet "CSV UTF-8" exports begin with.
var utf8BOM = []byte("\xef\xbb\xbf")

// looksLikeHeader decides whether the first record is a header: every
// field is a non-empty non-numeric string, and at least one column whose
// header cell is textual carries non-textual data in the following rows.
// Files of all-string data with no distinguishable header are treated as
// headerless (SQLShare found ~50% of uploads had no usable column names).
func looksLikeHeader(records [][]string) bool {
	if len(records) == 0 {
		return false
	}
	first := records[0]
	if len(first) == 0 {
		return false
	}
	textual := 0
	for _, f := range first {
		switch sqltypes.InferValueType(f) {
		case sqltypes.String:
			textual++
		case sqltypes.Null:
			// Empty header cells are tolerated (partial headers get
			// defaults for the gaps).
		default:
			return false // numbers/dates in row 1 → data, not header
		}
	}
	if textual == 0 {
		return false
	}
	if len(records) == 1 {
		return true
	}
	// Compare against body types: a header is plausible when some column
	// is textual in row 1 but typed in the body.
	limit := len(records)
	if limit > DefaultInferenceRows {
		limit = DefaultInferenceRows
	}
	for col := range first {
		bodyType := sqltypes.Null
		for _, rec := range records[1:limit] {
			var raw string
			if col < len(rec) {
				raw = rec[col]
			}
			bodyType = sqltypes.Widen(bodyType, sqltypes.InferValueType(raw))
		}
		if bodyType != sqltypes.String && bodyType != sqltypes.Null {
			return true
		}
	}
	// All-string data: header only if the first row's fields are unique —
	// typical of column-name rows.
	seen := map[string]bool{}
	for _, f := range first {
		k := strings.ToLower(strings.TrimSpace(f))
		if seen[k] {
			return false
		}
		seen[k] = true
	}
	return true
}
