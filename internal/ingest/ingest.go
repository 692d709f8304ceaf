// Package ingest implements SQLShare's relaxed-schema upload path (§3.1):
// delimiter inference over a row prefix, header detection with default
// column names, most-specific type inference with revert-to-string
// recovery, and NULL padding for ragged rows. The design goal is the
// paper's: never reject dirty data — tolerate structure, type and value
// problems and let users repair them with SQL views.
package ingest

import (
	"bytes"
	"encoding/csv"
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
// re-upload, §3.1); this function is deterministic over its input.
//
// It reads the file once. Only the inference prefix — the records header
// detection and type inference look at — is held; every later record is
// parsed into typed cells as it is read, and the table comes back with its
// columnar segments already encoded.
func LoadBytes(name string, data []byte, opts Options) (*Report, error) {
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
	r := newReader(data, delim)
	var held [][]string
	for len(held) < max(DefaultInferenceRows, n+1) {
		rec, err := nextRecord(r)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
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
	for i := range l.types {
		if l.types[i] == sqltypes.Null {
			l.types[i] = sqltypes.String
		}
	}

	for _, rec := range body {
		l.add(rec)
	}
	held, body = nil, nil
	r.ReuseRecord = true
	for {
		rec, err := nextRecord(r)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		l.add(rec)
	}
	width = len(l.types)
	if width == 0 {
		return nil, errors.New("ingest: no columns")
	}

	// Column names: from the header where available, defaults elsewhere.
	names := make([]string, width)
	used := map[string]bool{}
	for i := 0; i < width; i++ {
		var h string
		if i < len(header) {
			h = strings.TrimSpace(header[i])
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
	l.trim()
	tbl := storage.NewTable(name, schema)
	if err := tbl.Insert(l.rows); err != nil {
		return nil, err
	}
	rep.Table = tbl
	rep.Rows = len(l.rows)
	return rep, nil
}

// loader turns records into typed rows, one record at a time.
type loader struct {
	nominal  int             // the width a row is ragged against
	types    []sqltypes.Type // one per column; len is the table's width
	rows     []storage.Row
	free     []sqltypes.Value // the cell block's unused tail
	est      int              // the rows the file can hold: its lines
	ragged   int
	reverted []int // columns reverted to VARCHAR, in the order they failed
}

// add parses one record into a row. Every row is a window of one cell
// block, capped at its own width so an append to one row reallocates that
// row only.
func (l *loader) add(rec []string) {
	if len(rec) > len(l.types) {
		// Columns no inference row reached are VARCHAR; the rows already
		// loaded are NULL there.
		for len(l.types) < len(rec) {
			l.types = append(l.types, sqltypes.String)
		}
		l.relayout(l.est - len(l.rows))
	}
	if len(rec) != l.nominal {
		l.ragged++
	}
	width := len(l.types)
	if len(l.free) < width {
		l.free = make([]sqltypes.Value, width*max(l.est-len(l.rows), 1))
	}
	row := storage.Row(l.free[:width:width])
	l.free = l.free[width:]
	for i := range row {
		var raw string
		if i < len(rec) {
			raw = rec[i]
		}
		v, ok := cell(raw, l.types[i])
		if !ok {
			// When a value below the inference prefix fails to parse as
			// the inferred type, the paper's system catches the database
			// exception, reverts the column to a string via ALTER TABLE,
			// and continues; we do the same in place, re-rendering the
			// values already parsed.
			l.types[i] = sqltypes.String
			l.reverted = append(l.reverted, i)
			for _, done := range l.rows {
				if !done[i].IsNull() {
					done[i] = sqltypes.NewString(done[i].String())
				} else {
					done[i] = sqltypes.TypedNull(sqltypes.String)
				}
			}
			v, _ = cell(raw, sqltypes.String)
		}
		row[i] = v
	}
	l.rows = append(l.rows, row)
}

// relayout moves the loaded rows into a new cell block at the current
// width, with room for spare more rows; a column a row lacks is a NULL of
// the column's type.
func (l *loader) relayout(spare int) {
	width := len(l.types)
	block := make([]sqltypes.Value, width*(len(l.rows)+max(spare, 0)))
	for k, old := range l.rows {
		row := block[k*width : (k+1)*width : (k+1)*width]
		copy(row, old)
		for i := len(old); i < width; i++ {
			row[i] = sqltypes.TypedNull(l.types[i])
		}
		l.rows[k] = row
	}
	l.free = block[len(l.rows)*width:]
}

// trim gives the cell block back when the line count overestimated the
// rows by more than a sixteenth (blank lines, quoted newlines).
func (l *loader) trim() {
	if len(l.free) > len(l.types)*len(l.rows)/16 {
		l.relayout(0)
	}
	l.free = nil
}

// cell parses raw as a value of type t. A VARCHAR is copied out of raw, so
// no cell pins the line its record was read from.
func cell(raw string, t sqltypes.Type) (sqltypes.Value, bool) {
	v, ok := sqltypes.ParseAs(raw, t)
	if ok && t == sqltypes.String && !v.IsNull() {
		v = sqltypes.NewString(strings.Clone(raw))
	}
	return v, ok
}

// InferDelimiter picks the candidate separator that parses the first n
// rows with a consistent column count greater than one, preferring the
// candidate yielding the most columns (§3.1: "consider various row and
// column delimiter values until the first N rows can be parsed with
// identical column counts").
func InferDelimiter(data []byte, n int) (rune, error) {
	bestDelim := rune(0)
	bestCols := 0
	for _, d := range DefaultDelimiters {
		recs, err := parsePrefix(data, d, n)
		if err != nil || len(recs) == 0 {
			continue
		}
		cols := len(recs[0])
		consistent := true
		for _, r := range recs {
			if len(r) != cols {
				consistent = false
				break
			}
		}
		if !consistent || cols <= 1 {
			continue
		}
		if cols > bestCols {
			bestCols = cols
			bestDelim = d
		}
	}
	if bestDelim != 0 {
		return bestDelim, nil
	}
	// Single-column files or inconsistent rows: fall back to the first
	// candidate that parses at all — tolerate, never reject.
	for _, d := range DefaultDelimiters {
		if _, err := parsePrefix(data, d, n); err == nil {
			return d, nil
		}
	}
	return 0, errors.New("ingest: cannot infer a delimiter")
}

func parsePrefix(data []byte, delim rune, n int) ([][]string, error) {
	r := newReader(data, delim)
	var out [][]string
	for len(out) < n {
		rec, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
	return out, nil
}

// nextRecord returns the next record that is not an empty line, which
// ingest skips, or io.EOF.
func nextRecord(r *csv.Reader) ([]string, error) {
	for {
		rec, err := r.Read()
		if err == io.EOF {
			return nil, err
		}
		if err != nil {
			return nil, fmt.Errorf("ingest: %w", err)
		}
		if len(rec) != 1 || strings.TrimSpace(rec[0]) != "" {
			return rec, nil
		}
	}
}

func newReader(data []byte, delim rune) *csv.Reader {
	r := csv.NewReader(bytes.NewReader(data))
	r.Comma = delim
	r.FieldsPerRecord = -1 // ragged rows tolerated
	r.LazyQuotes = true
	r.TrimLeadingSpace = false
	return r
}

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
