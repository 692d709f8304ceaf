package storage

import (
	"fmt"
	"math"
	"strconv"
	"time"
	"unicode/utf8"

	"sqlshare/internal/sqltypes"
)

// This file is the serialization boundary of the storage layer: the JSON
// form of a Table, used by the write-ahead log (upload and materialization
// records carry the full table) and by catalog snapshots. Tables are
// encoded by AppendJSON, straight from the segments' cells; TableData is the
// decoded form, which recovery turns back into a Table. The encoding is
// value-faithful — types, typed NULLs, sub-second timestamps and non-finite
// floats all round-trip — so a recovered table is indistinguishable from
// the one that was journaled.

// ColumnData is the serializable form of a Column.
type ColumnData struct {
	Name string `json:"name"`
	Type uint8  `json:"type"`
}

// ValueData is the serializable form of a sqltypes.Value. Exactly one
// payload field is meaningful, selected by T; N marks a typed NULL.
// Timestamps are RFC 3339 with nanoseconds so sub-second precision
// round-trips. JSON has no number for NaN or ±Inf, so a non-finite FLOAT
// carries "NaN", "+Inf" or "-Inf" in S instead of F.
type ValueData struct {
	T  uint8   `json:"t"`
	N  bool    `json:"n,omitempty"`
	I  int64   `json:"i,omitempty"`
	F  float64 `json:"f,omitempty"`
	S  string  `json:"s,omitempty"`
	TS string  `json:"ts,omitempty"`
}

// EncodeValue converts a value to its serializable form.
func EncodeValue(v sqltypes.Value) ValueData {
	d := ValueData{T: uint8(v.Type())}
	if v.IsNull() {
		d.N = true
		return d
	}
	switch v.Type() {
	case sqltypes.Int:
		d.I = v.Int()
	case sqltypes.Bool:
		if v.Bool() {
			d.I = 1
		}
	case sqltypes.Float:
		if f := v.Float(); isFinite(f) {
			d.F = f
		} else {
			d.S = nonFinite(f)
		}
	case sqltypes.String:
		d.S = v.Str()
	case sqltypes.DateTime:
		d.TS = v.Time().Format(time.RFC3339Nano)
	}
	return d
}

// Value converts the serialized form back to a sqltypes.Value.
func (d ValueData) Value() (sqltypes.Value, error) {
	t := sqltypes.Type(d.T)
	switch t {
	case sqltypes.Null, sqltypes.Bool, sqltypes.Int, sqltypes.Float, sqltypes.DateTime, sqltypes.String:
	default:
		return sqltypes.Value{}, fmt.Errorf("storage: unknown value type %d", d.T)
	}
	if d.N {
		return sqltypes.TypedNull(t), nil
	}
	switch t {
	case sqltypes.Null:
		return sqltypes.NullValue(), nil
	case sqltypes.Bool:
		return sqltypes.NewBool(d.I != 0), nil
	case sqltypes.Int:
		return sqltypes.NewInt(d.I), nil
	case sqltypes.Float:
		switch d.S {
		case "":
			return sqltypes.NewFloat(d.F), nil
		case "NaN":
			return sqltypes.NewFloat(math.NaN()), nil
		case "+Inf":
			return sqltypes.NewFloat(math.Inf(1)), nil
		case "-Inf":
			return sqltypes.NewFloat(math.Inf(-1)), nil
		}
		return sqltypes.Value{}, fmt.Errorf("storage: bad float %q", d.S)
	case sqltypes.DateTime:
		ts, err := time.Parse(time.RFC3339Nano, d.TS)
		if err != nil {
			return sqltypes.Value{}, fmt.Errorf("storage: bad timestamp %q: %w", d.TS, err)
		}
		return sqltypes.NewDateTime(ts), nil
	default:
		return sqltypes.NewString(d.S), nil
	}
}

// TableData is the serializable form of a Table.
type TableData struct {
	Name string        `json:"name"`
	Cols []ColumnData  `json:"cols"`
	Rows [][]ValueData `json:"rows,omitempty"`
}

func isFinite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// nonFinite names a NaN or infinite float the way ValueData.S carries it.
func nonFinite(f float64) string {
	switch {
	case math.IsNaN(f):
		return "NaN"
	case f > 0:
		return "+Inf"
	default:
		return "-Inf"
	}
}

// Data snapshots the table into its decoded form, one ValueData per cell.
// The copy is deep: later inserts do not affect it. The log and snapshots
// encode with AppendJSON instead; Data is what a decoded table looks like,
// and the independent form that tests and the catalog fingerprint read.
func (t *Table) Data() *TableData {
	v := t.cur.Load()
	d := &TableData{Name: t.name, Cols: make([]ColumnData, len(t.schema))}
	for i, c := range t.schema {
		d.Cols[i] = ColumnData{Name: c.Name, Type: uint8(c.Type)}
	}
	if v.n > 0 {
		d.Rows = make([][]ValueData, 0, v.n)
		for _, seg := range v.segs {
			for o := 0; o < seg.n; o++ {
				row := make([]ValueData, len(seg.cols))
				for c := range row {
					row[c] = EncodeValue(seg.cols[c].Value(o))
				}
				d.Rows = append(d.Rows, row)
			}
		}
	}
	return d
}

// Table rebuilds a live table from its serialized form. Rows are re-sorted
// into clustered-index order, so the result is valid even if the data was
// produced by an older encoder or edited by hand.
func (d *TableData) Table() (*Table, error) {
	schema := make(Schema, len(d.Cols))
	for i, c := range d.Cols {
		schema[i] = Column{Name: c.Name, Type: sqltypes.Type(c.Type)}
	}
	t := NewTable(d.Name, schema)
	if len(d.Rows) == 0 {
		return t, nil
	}
	rows := make([]Row, len(d.Rows))
	for i, rd := range d.Rows {
		if len(rd) != len(schema) {
			return nil, fmt.Errorf("storage: row %d arity %d does not match schema arity %d of %s",
				i, len(rd), len(schema), d.Name)
		}
		row := make(Row, len(rd))
		for j, vd := range rd {
			v, err := vd.Value()
			if err != nil {
				return nil, fmt.Errorf("storage: table %s row %d col %d: %w", d.Name, i, j, err)
			}
			row[j] = v
		}
		rows[i] = row
	}
	if err := t.Insert(rows); err != nil {
		return nil, err
	}
	return t, nil
}

// AppendJSON appends the table's durable encoding to buf and returns the
// extended buffer: exactly the bytes json.Marshal(t.Data()) writes, but
// written row by row from the segments' cells, with no per-cell
// intermediate and no reflection. Every table the log or a snapshot holds
// is encoded here (FuzzTableJSON holds it to json.Marshal).
func (t *Table) AppendJSON(buf []byte) []byte {
	buf = append(buf, `{"name":`...)
	buf = appendJSONString(buf, t.name)
	buf = append(buf, `,"cols":[`...)
	for i, c := range t.schema {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, `{"name":`...)
		buf = appendJSONString(buf, c.Name)
		buf = append(buf, `,"type":`...)
		buf = strconv.AppendUint(buf, uint64(c.Type), 10)
		buf = append(buf, '}')
	}
	buf = append(buf, ']')
	if v := t.cur.Load(); v.n > 0 {
		var cell sqltypes.Value
		buf = append(buf, `,"rows":[`...)
		for k, seg := range v.segs {
			for o := 0; o < seg.n; o++ {
				if k > 0 || o > 0 {
					buf = append(buf, ',')
				}
				buf = append(buf, '[')
				for c := range seg.cols {
					if c > 0 {
						buf = append(buf, ',')
					}
					seg.cols[c].Load(o, &cell)
					buf = appendValueJSON(buf, cell)
				}
				buf = append(buf, ']')
			}
		}
		buf = append(buf, ']')
	}
	return append(buf, '}')
}

// appendValueJSON appends json.Marshal(EncodeValue(v)): the fields in
// declaration order, a zero payload left out as omitempty leaves it out.
func appendValueJSON(buf []byte, v sqltypes.Value) []byte {
	buf = append(buf, `{"t":`...)
	buf = strconv.AppendUint(buf, uint64(v.Type()), 10)
	if v.IsNull() {
		return append(buf, `,"n":true}`...)
	}
	switch v.Type() {
	case sqltypes.Int:
		if i := v.Int(); i != 0 {
			buf = append(buf, `,"i":`...)
			buf = strconv.AppendInt(buf, i, 10)
		}
	case sqltypes.Bool:
		if v.Bool() {
			buf = append(buf, `,"i":1`...)
		}
	case sqltypes.Float:
		if f := v.Float(); !isFinite(f) {
			buf = append(buf, `,"s":"`...)
			buf = append(buf, nonFinite(f)...)
			buf = append(buf, '"')
		} else if f != 0 {
			buf = append(buf, `,"f":`...)
			buf = appendJSONFloat(buf, f)
		}
	case sqltypes.String:
		if s := v.Str(); s != "" {
			buf = append(buf, `,"s":`...)
			buf = appendJSONString(buf, s)
		}
	case sqltypes.DateTime:
		// RFC 3339 text holds no character JSON would escape.
		buf = append(buf, `,"ts":"`...)
		buf = v.Time().AppendFormat(buf, time.RFC3339Nano)
		buf = append(buf, '"')
	}
	return append(buf, '}')
}

// appendJSONFloat formats a finite float as encoding/json does: the
// shortest form that round-trips, in exponent notation below 1e-6 and from
// 1e21 up, where a one-digit negative exponent loses its leading zero.
func appendJSONFloat(buf []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	buf = strconv.AppendFloat(buf, f, format, -1, 64)
	if n := len(buf); format == 'e' && n >= 4 && buf[n-4] == 'e' && buf[n-3] == '-' && buf[n-2] == '0' {
		buf[n-2] = buf[n-1] // e-09 becomes e-9
		buf = buf[:n-1]
	}
	return buf
}

const hexDigits = "0123456789abcdef"

// appendJSONString quotes s as encoding/json does by default: quote,
// backslash and control bytes escaped, and so are <, > and & (HTML
// escaping), U+2028 and U+2029; each invalid UTF-8 byte becomes \ufffd.
func appendJSONString(buf []byte, s string) []byte {
	buf = append(buf, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b >= utf8.RuneSelf {
			c, size := utf8.DecodeRuneInString(s[i:])
			switch {
			case c == utf8.RuneError && size == 1:
				buf = append(buf, s[start:i]...)
				buf = append(buf, `\ufffd`...)
			case c == '\u2028' || c == '\u2029':
				buf = append(buf, s[start:i]...)
				buf = append(buf, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			default:
				i += size
				continue
			}
			i += size
			start = i
			continue
		}
		if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
			i++
			continue
		}
		buf = append(buf, s[start:i]...)
		switch b {
		case '"', '\\':
			buf = append(buf, '\\', b)
		case '\b':
			buf = append(buf, '\\', 'b')
		case '\f':
			buf = append(buf, '\\', 'f')
		case '\n':
			buf = append(buf, '\\', 'n')
		case '\r':
			buf = append(buf, '\\', 'r')
		case '\t':
			buf = append(buf, '\\', 't')
		default:
			buf = append(buf, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
		}
		i++
		start = i
	}
	buf = append(buf, s[start:]...)
	return append(buf, '"')
}
