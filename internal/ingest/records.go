package ingest

import (
	"errors"
	"strings"
	"unicode/utf8"
	"unsafe"

	"sqlshare/internal/sqltypes"
)

// records.go is the upload path's one tokenizer. It reads a staged file's
// records as encoding/csv reads them with LazyQuotes, any field count, no
// trimming and no comment character (FuzzTokenizer holds it to that
// reader), straight from the file's bytes:
//
//   - a "\r" just before a newline or the end of the file is dropped, so
//     "\r\n" ends a line as "\n" does, inside a quoted field too; any other
//     "\r" is data;
//   - a line with no text is no record;
//   - a field that starts with a quote runs to a quote followed by the
//     delimiter or the end of a line, across lines; "" inside it is one
//     quote and any other quote is data; a quote in an unquoted field is
//     data;
//   - a quoted field still open at the end of the file takes the rest of
//     it.
//
// A field is a piece of the file; only a field whose quotes had to be
// undone is a string of its own. LoadBytes never writes to the file's
// bytes (the stage keeps them for a retry), and every string the loaded
// table keeps is a copy.

// errInvalidDelim is the error for a delimiter no field can be split on,
// worded as encoding/csv words it.
var errInvalidDelim = errors.New("ingest: csv: invalid field or comment delimiter")

// validDelim reports whether fields can be split on r: not a quote, a line
// end, or no character at all.
func validDelim(r rune) bool {
	return r != 0 && r != '"' && r != '\r' && r != '\n' && utf8.ValidRune(r) && r != utf8.RuneError
}

// tokenizer reads the records of a staged file in order.
type tokenizer struct {
	text  string // the file's bytes, viewed in place
	pos   int    // where the next record's first line starts
	delim string // the delimiter's UTF-8 encoding
	buf   []byte // a quoted field being unescaped
}

func newTokenizer(data []byte, delim rune) (*tokenizer, error) {
	if !validDelim(delim) {
		return nil, errInvalidDelim
	}
	return &tokenizer{text: unsafe.String(unsafe.SliceData(data), len(data)), delim: string(delim)}, nil
}

// line finds the line that starts at i: its text is t.text[i:end], without
// the newline and a "\r" before it or before the end of the file; the next
// line starts at next; nl reports that a newline ended it.
func (t *tokenizer) line(i int) (end, next int, nl bool) {
	end, next = len(t.text), len(t.text)
	if k := strings.IndexByte(t.text[i:], '\n'); k >= 0 {
		end, next, nl = i+k, i+k+1, true
	}
	if end > i && t.text[end-1] == '\r' {
		end--
	}
	return end, next, nl
}

// index is the offset of the first delimiter in s, or -1.
func (t *tokenizer) index(s string) int {
	if len(t.delim) == 1 {
		return strings.IndexByte(s, t.delim[0])
	}
	return strings.Index(s, t.delim)
}

// next appends the fields of the next record to rec[:0]; ok is false at the
// end of the file.
func (t *tokenizer) next(rec []string) (_ []string, ok bool) {
	rec = rec[:0]
	i := t.pos
	var end, next int
	var nl bool
	for {
		if i >= len(t.text) {
			t.pos = i
			return rec, false
		}
		if end, next, nl = t.line(i); end > i {
			break
		}
		i = next
	}
fields:
	for {
		if i == end || t.text[i] != '"' {
			k := t.index(t.text[i:end])
			if k < 0 {
				rec = append(rec, t.text[i:end])
				break
			}
			rec = append(rec, t.text[i:i+k])
			i += k + len(t.delim)
			continue
		}
		i++
		unescaped := false // the field is t.buf, not a piece of the file
		t.buf = t.buf[:0]
		for {
			q := strings.IndexByte(t.text[i:end], '"')
			if q < 0 {
				// The line ends inside the field, which takes the line and
				// its newline and goes on on the next line.
				t.buf = append(t.buf, t.text[i:end]...)
				if nl {
					t.buf = append(t.buf, '\n')
				}
				unescaped = true
				if next == len(t.text) {
					rec = append(rec, string(t.buf))
					break fields
				}
				i = next
				end, next, nl = t.line(i)
				continue
			}
			piece := t.text[i : i+q]
			i += q + 1
			if i < end && (t.text[i] == '"' || !strings.HasPrefix(t.text[i:end], t.delim)) {
				// A doubled quote is one quote; a quote that neither
				// doubles nor ends the field is data.
				t.buf = append(append(t.buf, piece...), '"')
				if t.text[i] == '"' {
					i++
				}
				unescaped = true
				continue
			}
			// The quote ends the field; a delimiter or the line's end
			// follows.
			if unescaped {
				t.buf = append(t.buf, piece...)
				piece = string(t.buf)
			}
			rec = append(rec, piece)
			if i == end {
				break fields
			}
			i += len(t.delim)
			continue fields
		}
	}
	t.pos = next
	return rec, true
}

// nextRecord is next, skipping a record of one blank field, which ingest
// takes for an empty line.
func (t *tokenizer) nextRecord(rec []string) ([]string, bool) {
	for {
		var ok bool
		if rec, ok = t.next(rec); !ok || len(rec) != 1 || sqltypes.TrimSpace(rec[0]) != "" {
			return rec, ok
		}
	}
}
