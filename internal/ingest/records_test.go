package ingest

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"strings"
	"testing"
	"unicode/utf8"
)

// csvRecords is the tokenizer's oracle: the records encoding/csv reads from
// data as the upload path once configured it — the delimiter, LazyQuotes,
// any field count, no trimming, no comment character — without a record of
// one blank field when skipBlank is set, as nextRecord skips it.
func csvRecords(data []byte, delim rune, skipBlank bool) ([][]string, error) {
	r := csv.NewReader(bytes.NewReader(data))
	r.Comma = delim
	r.FieldsPerRecord = -1
	r.LazyQuotes = true
	var out [][]string
	for {
		rec, err := r.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, fmt.Errorf("ingest: %w", err)
		}
		if skipBlank && len(rec) == 1 && strings.TrimSpace(rec[0]) == "" {
			continue
		}
		out = append(out, rec)
	}
}

// tokenize reads every record of data with the tokenizer, through next or,
// when skipBlank is set, nextRecord, reusing one record slice as LoadBytes
// does below its inference prefix.
func tokenize(data []byte, delim rune, skipBlank bool) ([][]string, error) {
	tok, err := newTokenizer(data, delim)
	if err != nil {
		return nil, err
	}
	var out [][]string
	var rec []string
	for {
		var ok bool
		if skipBlank {
			rec, ok = tok.nextRecord(rec)
		} else {
			rec, ok = tok.next(rec)
		}
		if !ok {
			return out, nil
		}
		out = append(out, append([]string(nil), rec...))
	}
}

// diffRecords names the first difference between the tokenizer's records
// and encoding/csv's, or returns "".
func diffRecords(data []byte, delim rune, skipBlank bool) string {
	got, gotErr := tokenize(data, delim, skipBlank)
	want, wantErr := csvRecords(data, delim, skipBlank)
	if gotErr != nil || wantErr != nil {
		if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
			return fmt.Sprintf("error %v, want %v", gotErr, wantErr)
		}
		return ""
	}
	for i := 0; i < max(len(got), len(want)); i++ {
		if i >= len(got) || i >= len(want) || fmt.Sprintf("%q", got[i]) != fmt.Sprintf("%q", want[i]) {
			var g, w []string
			if i < len(got) {
				g = got[i]
			}
			if i < len(want) {
				w = want[i]
			}
			return fmt.Sprintf("record %d (of %d, want %d): %q, want %q", i, len(got), len(want), g, w)
		}
	}
	return ""
}

// tokenizerDelims are the delimiters FuzzTokenizer reads each input with:
// the candidates of inference and a multi-byte one.
var tokenizerDelims = []rune{',', '\t', ';', '|', '§'}

// FuzzTokenizer holds the tokenizer to encoding/csv: the same records, field
// for field, under every delimiter in tokenizerDelims, with and without
// nextRecord's skipping of blank records.
func FuzzTokenizer(f *testing.F) {
	for _, s := range []string{
		"a,b\r\nc,d\r\n",                // CRLF ends a line
		"\"a\r\nb\",c\r\n",              // and is "\n" inside a quoted field
		"a,b\r",                         // a "\r" before the end of the file is dropped
		"a\rb,c\n\r\r\n",                // any other "\r" is data
		"\"say \"\"hi\"\"\",x\n",        // "" inside quotes is one quote
		"a\"b,c\"\n",                    // a quote in an unquoted field is data
		"\"abc\"def,x\ny,z\n\"q\",w\n",  // a lone quote keeps the field open across lines
		"\"open,2\nmore\n",              // an open quote takes the rest of the file
		"\"\"\n\"\",\"\"\n\"x\"\"\"\n",  // empty and escaped quoted fields
		"a,b,\n,\n",                     // trailing delimiters
		"a,b",                           // no final newline
		"",                              // an empty file
		"\n \n\t\n\"\"\n\"  \"\na\n",    // blank and whitespace-only records
		"a§b\n\"x§y\"§z\n\"q\"§\n\xc2§", // a multi-byte delimiter
		"a\tb;c|d\n\"e\tf\"\tg\n",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, d := range tokenizerDelims {
			for _, skip := range []bool{false, true} {
				if diff := diffRecords(data, d, skip); diff != "" {
					t.Fatalf("delimiter %q, skip blank %v, input %q: %s", d, skip, data, diff)
				}
			}
		}
	})
}

// TestTokenizerRejectsInvalidDelimiters: a delimiter encoding/csv cannot
// split on fails with its error, on an empty file too.
func TestTokenizerRejectsInvalidDelimiters(t *testing.T) {
	for _, d := range []rune{0, '"', '\r', '\n', utf8.RuneError, -1, utf8.MaxRune + 1} {
		for _, data := range []string{"", "a,b\n"} {
			if diff := diffRecords([]byte(data), d, true); diff != "" {
				t.Errorf("delimiter %q, input %q: %s", d, data, diff)
			}
		}
	}
}
