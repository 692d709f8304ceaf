package ingest_test

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"
	"time"

	"sqlshare/internal/ingest"
	"sqlshare/internal/sqltypes"
	"sqlshare/internal/storage"
	"sqlshare/internal/synth"
)

// loadBytesRef is the earlier loader, kept as the oracle for LoadBytes: it
// parses every record up front with encoding/csv, holds them all, builds the
// table twice and leaves the segments to the first columnar read. It skips
// a leading UTF-8 byte-order mark, as LoadBytes does.
func loadBytesRef(name string, data []byte, opts ingest.Options) (*ingest.Report, error) {
	data = bytes.TrimPrefix(data, []byte("\xef\xbb\xbf"))
	n := opts.InferenceRows
	if n <= 0 {
		n = ingest.DefaultInferenceRows
	}
	delim := opts.Delimiter
	if delim == 0 {
		var err error
		delim, err = ingest.InferDelimiter(data, n)
		if err != nil {
			return nil, err
		}
	}
	records, err := parseAllRef(data, delim)
	if err != nil {
		return nil, err
	}
	if len(records) == 0 {
		return nil, errors.New("ingest: empty file")
	}
	rep := &ingest.Report{Delimiter: delim}
	var header []string
	if opts.HasHeader != nil {
		rep.HeaderDetected = *opts.HasHeader
	} else {
		rep.HeaderDetected = looksLikeHeaderRef(records)
	}
	body := records
	if rep.HeaderDetected {
		header = records[0]
		body = records[1:]
	}
	nominal := len(header)
	if nominal == 0 && len(body) > 0 {
		nominal = len(body[0])
	}
	width := nominal
	for _, rec := range body {
		if len(rec) > width {
			width = len(rec)
		}
	}
	if width == 0 {
		return nil, errors.New("ingest: no columns")
	}
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
	types := make([]sqltypes.Type, width)
	prefix := body
	if len(prefix) > n {
		prefix = prefix[:n]
	}
	for _, rec := range prefix {
		for i := 0; i < width; i++ {
			var raw string
			if i < len(rec) {
				raw = rec[i]
			}
			types[i] = sqltypes.Widen(types[i], sqltypes.InferValueType(raw))
		}
	}
	for i := range types {
		if types[i] == sqltypes.Null {
			types[i] = sqltypes.String
		}
	}
	schema := make(storage.Schema, width)
	for i := 0; i < width; i++ {
		schema[i] = storage.Column{Name: names[i], Type: types[i]}
	}
	tbl := storage.NewTable(name, schema)
	widened := map[int]bool{}
	rows := make([]storage.Row, 0, len(body))
	cells := make([]sqltypes.Value, len(body)*width)
	for ri, rec := range body {
		if len(rec) != nominal {
			rep.RaggedRows++
		}
		row := storage.Row(cells[ri*width : (ri+1)*width : (ri+1)*width])
		for i := 0; i < width; i++ {
			var raw string
			if i < len(rec) {
				raw = rec[i]
			}
			v, ok := sqltypes.ParseAs(raw, types[i])
			if !ok {
				types[i] = sqltypes.String
				if !widened[i] {
					widened[i] = true
					rep.WidenedColumns = append(rep.WidenedColumns, names[i])
				}
				for _, done := range rows {
					if !done[i].IsNull() {
						done[i] = sqltypes.NewString(done[i].String())
					} else {
						done[i] = sqltypes.TypedNull(sqltypes.String)
					}
				}
				v, _ = sqltypes.ParseAs(raw, sqltypes.String)
			}
			row[i] = v
		}
		rows = append(rows, row)
	}
	for i, w := range types {
		schema[i].Type = w
	}
	tbl = storage.NewTable(name, schema)
	if err := tbl.Insert(rows); err != nil {
		return nil, err
	}
	rep.Table = tbl
	rep.Rows = len(rows)
	return rep, nil
}

func parseAllRef(data []byte, delim rune) ([][]string, error) {
	r := csv.NewReader(bytes.NewReader(data))
	r.Comma = delim
	r.FieldsPerRecord = -1
	r.LazyQuotes = true
	r.TrimLeadingSpace = false
	var out [][]string
	for {
		rec, err := r.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, fmt.Errorf("ingest: %w", err)
		}
		if len(rec) == 1 && strings.TrimSpace(rec[0]) == "" {
			continue
		}
		out = append(out, rec)
	}
}

func looksLikeHeaderRef(records [][]string) bool {
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
		default:
			return false
		}
	}
	if textual == 0 {
		return false
	}
	if len(records) == 1 {
		return true
	}
	limit := len(records)
	if limit > ingest.DefaultInferenceRows {
		limit = ingest.DefaultInferenceRows
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

// diffLoads names the first difference between LoadBytes and the reference
// on one input, or returns "". Errors compare by text; a report by every
// field, its schema, and every cell by type, key and bits.
func diffLoads(data []byte, opts ingest.Options) string {
	got, gotErr := ingest.LoadBytes("t", data, opts)
	want, wantErr := loadBytesRef("t", data, opts)
	if gotErr != nil || wantErr != nil {
		if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
			return fmt.Sprintf("error %v, want %v", gotErr, wantErr)
		}
		return ""
	}
	switch {
	case got.Delimiter != want.Delimiter:
		return fmt.Sprintf("Delimiter %q, want %q", got.Delimiter, want.Delimiter)
	case got.HeaderDetected != want.HeaderDetected:
		return fmt.Sprintf("HeaderDetected %v, want %v", got.HeaderDetected, want.HeaderDetected)
	case got.DefaultedColumns != want.DefaultedColumns, got.AllDefaulted != want.AllDefaulted:
		return fmt.Sprintf("defaulted %d/%v, want %d/%v", got.DefaultedColumns, got.AllDefaulted, want.DefaultedColumns, want.AllDefaulted)
	case got.RaggedRows != want.RaggedRows:
		return fmt.Sprintf("RaggedRows %d, want %d", got.RaggedRows, want.RaggedRows)
	case fmt.Sprint(got.WidenedColumns) != fmt.Sprint(want.WidenedColumns) || (got.WidenedColumns == nil) != (want.WidenedColumns == nil):
		return fmt.Sprintf("WidenedColumns %q, want %q", got.WidenedColumns, want.WidenedColumns)
	case got.Rows != want.Rows:
		return fmt.Sprintf("Rows %d, want %d", got.Rows, want.Rows)
	case got.Table.Name() != want.Table.Name():
		return fmt.Sprintf("table name %q, want %q", got.Table.Name(), want.Table.Name())
	}
	gs, ws := got.Table.Schema(), want.Table.Schema()
	if fmt.Sprint(gs) != fmt.Sprint(ws) {
		return fmt.Sprintf("schema %v, want %v", gs, ws)
	}
	gr, wr := got.Table.Scan(), want.Table.Scan()
	if len(gr) != len(wr) {
		return fmt.Sprintf("%d table rows, want %d", len(gr), len(wr))
	}
	for i := range wr {
		if len(gr[i]) != len(wr[i]) {
			return fmt.Sprintf("row %d: width %d, want %d", i, len(gr[i]), len(wr[i]))
		}
		for j, w := range wr[i] {
			g := gr[i][j]
			if g.Type() != w.Type() || g.Key() != w.Key() || g != w {
				return fmt.Sprintf("row %d col %d: %v (%s), want %v (%s)", i, j, g, g.Type(), w, w.Type())
			}
		}
	}
	return ""
}

// refCase is one input of the reference comparison.
type refCase struct {
	name string
	data string
	opts ingest.Options
}

func refCases() []refCase {
	yes, no := true, false
	var cases []refCase
	add := func(name, data string, opts ingest.Options) {
		cases = append(cases, refCase{name, data, opts})
	}
	// The fixtures of ingest_test.go and the fuzz seeds.
	for i, s := range []string{
		"station,val\ns1,1.5\ns2,2.5\n", "1,2,3\n4,5,6\n", "name,,location\nann,5,seattle\n",
		"a\tb\tc\n1\t2\t3\n", "a;b\n1;2\n", "a|b\n1|2\n",
		"i,f,d,s,b\n1,1.5,2014-01-02,hello,true\n2,2.5,2014-01-03,world,false\n",
		"x\n1\n2\n3.5\n", "a,b\n1,2\n3\n4,5,6\n", "a,b\n1,\n,2\n", "name,notes\nann,\"likes, commas\"\n",
		"x,x,X\n1,2,3\n", "1,2\n3,4\n", "a,b\nc,d\n", "", "\n\n", "value\n1\n2\n3\n", "x\n\n5\n\n7\n",
		"a,b\n1,x\n2,y\n3,z\n", "id,x,name\n1,1.5,a\n2,2.5,b\n3,,c\n4,4.5,d\n5,5.5,e\n",
		"ts;val\n2014-01-01;3.5\n", "x|y\nhello|world\n", "\"quoted, field\",b\nv,w\n",
		"col\n-999\nunknown\n", ",", "a,,\n,,b\n",
	} {
		add(fmt.Sprintf("fixture %d", i), s, ingest.Options{})
	}
	add("forced header", "1,2\n3,4\n", ingest.Options{HasHeader: &yes})
	add("forced no header", "a,b\nc,d\n", ingest.Options{HasHeader: &no})
	add("revert below prefix", "x\n"+strings.Repeat("1\n", 50)+"oops\n", ingest.Options{InferenceRows: 10})
	add("forced delimiter", "a;b,c\n1;2,3\n", ingest.Options{Delimiter: ','})
	add("invalid delimiter", "a,b\n1,2\n", ingest.Options{Delimiter: '"'})

	// Edge cases.
	add("quoted commas and newlines", "id,note\n1,\"a, b\"\n2,\"line one\nline two\"\n3,\"say \"\"hi\"\"\"\n4,plain\n", ingest.Options{})
	add("crlf", "id,v,s\r\n1,1.5,x\r\n2,2.5,y\r\n\r\n3,3.5,\"z\r\nw\"\r\n", ingest.Options{})
	add("blank lines", "\n\nid,v\n\n1,2\n   \n\n2,3\n\n", ingest.Options{})
	add("integral floats in int", "n\n1\n3.0\n1e3\n-2\n7.00\n", ingest.Options{})
	add("integral floats in int below prefix", "n\n1\n2\n3.0\n1e3\n2.5\n", ingest.Options{InferenceRows: 2})
	add("lazy and open quotes", "a,b\nx\"y,1\n\"open,2\n", ingest.Options{})
	add("bool then int", "f\ntrue\n1\nfalse\n0\n2\n", ingest.Options{})
	add("int then bool in prefix", "f\n1\ntrue\n2\n", ingest.Options{})
	add("spaces", "a , b\n 1 , x \n2,  \n  ,y\n", ingest.Options{})
	add("datetimes", "t\n2014-01-02 03:04:05\n2014-01-02T03:04:05Z\n01/02/2014\n2014/01/02\n2014-01-02\n", ingest.Options{})
	add("datetime then text", "t\n2014-01-02\n2014-01-03\nsoon\n", ingest.Options{InferenceRows: 2})
	add("nan and inf", "x,y\nNaN,1\n1,inf\n-Inf,NaN\n2,3\n", ingest.Options{})
	add("unsorted", "k,v\n3,c\n1,a\n2,b\n1,a\n", ingest.Options{})
	add("unicode", "名前,値\nä,1\nß,2\n", ingest.Options{})
	add("single row", "only,row\n", ingest.Options{})
	add("one prefix row", "a,b\n1,x\n2,y\n3,z\n", ingest.Options{InferenceRows: 1})

	var b strings.Builder
	b.WriteString("id,v,s\n")
	for i := 0; i < 300; i++ {
		fmt.Fprintf(&b, "%d,%d,s%d\n", i, i%7, i%5)
		if i == 150 {
			b.WriteString("150,oops,late\n")
		}
	}
	add("revert past row N", b.String(), ingest.Options{})
	b.Reset()
	b.WriteString("id,v\n")
	for i := 0; i < 250; i++ {
		switch i {
		case 120:
			fmt.Fprintf(&b, "%d,%d,extra,4.5\n", i, i)
		case 200:
			fmt.Fprintf(&b, "%d,%d,,,,wide\n", i, i)
		case 230:
			fmt.Fprintf(&b, "%d\n", i)
		default:
			fmt.Fprintf(&b, "%d,%d\n", i, i)
		}
	}
	add("late wide records", b.String(), ingest.Options{})
	add("late wide records, no header", strings.SplitN(b.String(), "\n", 2)[1], ingest.Options{})
	b.Reset()
	for i := 0; i < 150; i++ {
		if i == 130 {
			b.WriteString("x,y,3.5,2014-01-01\n")
		}
		fmt.Fprintf(&b, "%d\n", i)
	}
	add("late wide then revert", b.String()+"text\n", ingest.Options{})

	// Every generated dataset kind, dirty in every way, over 20 seeds.
	for seed := int64(0); seed < 20; seed++ {
		for kind := synth.DatasetKind(0); kind < synth.NumDatasetKinds; kind++ {
			for flags := 0; flags < 8; flags++ {
				rng := rand.New(rand.NewSource(seed*131 + int64(kind)*17 + int64(flags)))
				f := synth.MakeCSV(rng, kind, 20+int(seed)*15, flags&1 != 0, flags&2 != 0, flags&4 != 0)
				add(fmt.Sprintf("synth seed %d kind %s flags %03b", seed, synth.KindName(kind), flags), string(f.Data), ingest.Options{})
			}
		}
	}

	// The four benchmark set-ups' CSV shapes, and the quoted one.
	for name, data := range benchShapedCSVs(2500) {
		add(name, string(data), ingest.Options{})
	}
	return cases
}

// benchShapedCSVs renders CSVs with the columns and value shapes of the
// benchmark's set-up uploads, and one of quoted VARCHARs, rows rows each.
func benchShapedCSVs(rows int) map[string][]byte {
	rng := rand.New(rand.NewSource(3))
	regions := []string{"north", "south", "east", "west", "central"}
	epoch := time.Date(2014, 1, 1, 0, 0, 0, 0, time.UTC)
	ts := func(i int) string { return epoch.Add(time.Duration(i) * time.Minute).Format("2006-01-02 15:04:05") }
	frac := func(scale int) string { return fmt.Sprint(float64(rng.Intn(scale*64)) / 64) }
	out := map[string][]byte{}
	render := func(name, header string, row func(i int) string) {
		var b strings.Builder
		b.WriteString(header + "\n")
		for i := 0; i < rows; i++ {
			b.WriteString(row(i) + "\n")
		}
		out[name] = []byte(b.String())
	}
	render("point obs", "k,seq,grp,val,ts,note", func(i int) string {
		return fmt.Sprintf("%d,%d,%s,%s,%s,n%d", i/50, i%50, regions[rng.Intn(5)], frac(1000), ts(i), rng.Intn(1_000_000))
	})
	render("point sites", "k,name,lat,lon", func(i int) string {
		return fmt.Sprintf("%d,site-%d,%s,%s", i, rng.Intn(100000), frac(180), frac(360))
	})
	render("analytic facts", "id,dim_id,ts,amount,region,tag", func(i int) string {
		return fmt.Sprintf("%d,%d,%s,%s,%s,tag-%d", i, rng.Intn(200), ts(i), frac(1000), regions[rng.Intn(5)], rng.Intn(1_000_000))
	})
	render("analytic dims", "dim_id,category,weight", func(i int) string {
		return fmt.Sprintf("%d,cat%02d,%s", i, rng.Intn(12), frac(10))
	})
	render("pipeline batch", "id,region,amount,ts", func(i int) string {
		return fmt.Sprintf("%d,%s,%s,%s", i, regions[rng.Intn(5)], frac(1000), ts(i))
	})
	// Every VARCHAR quoted, a tenth each with an embedded delimiter, a
	// doubled quote or a CRLF.
	render("quoted", "k,grp,val,ts,note", func(i int) string {
		note := fmt.Sprintf("n%d", rng.Intn(1_000_000))
		switch i % 10 {
		case 3:
			note += ", late"
		case 6:
			note = `say ""` + note + `""`
		case 9:
			note += "\r\nsecond line"
		}
		return fmt.Sprintf(`%d,"%s",%s,%s,"%s"`, i/50, regions[rng.Intn(5)], frac(1000), ts(i), note)
	})
	return out
}

// TestLoadMatchesReference: LoadBytes reports, types and loads exactly
// what the earlier loader did on every fixture, every generated dataset
// kind and flag, the benchmark's set-up shapes, and the CSV edge cases.
func TestLoadMatchesReference(t *testing.T) {
	for _, c := range refCases() {
		if d := diffLoads([]byte(c.data), c.opts); d != "" {
			t.Errorf("%s: %s", c.name, d)
		}
	}
}

// TestLoadEncodesSegments: LoadBytes returns a table encoded into segments,
// so a seek carries a segment for every row and sizing the table under the
// catalog's lock encodes nothing.
func TestLoadEncodesSegments(t *testing.T) {
	data := benchShapedCSVs(5000)["point obs"]
	rep, err := ingest.LoadBytes("t", data, ingest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	span := rep.Table.SeekRange(sqltypes.Value{}, sqltypes.Value{}, true, true)
	covered := 0
	for _, seg := range span.Segs {
		covered += seg.Len()
	}
	if span.N != rep.Rows || covered != rep.Rows {
		t.Fatalf("span of %d rows carries segments for %d, want %d", span.N, covered, rep.Rows)
	}
}
