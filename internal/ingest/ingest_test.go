package ingest

import (
	"strings"
	"testing"
	"testing/quick"

	"sqlshare/internal/sqltypes"
)

func load(t testing.TB, data string, opts Options) *Report {
	t.Helper()
	rep, err := LoadBytes("t", []byte(data), opts)
	if err != nil {
		t.Fatalf("LoadBytes: %v", err)
	}
	return rep
}

func TestBasicCSVWithHeader(t *testing.T) {
	rep := load(t, "station,val\ns1,1.5\ns2,2.5\n", Options{})
	if !rep.HeaderDetected {
		t.Error("header should be detected")
	}
	sch := rep.Table.Schema()
	if sch[0].Name != "station" || sch[1].Name != "val" {
		t.Errorf("schema = %v", sch)
	}
	if sch[0].Type != sqltypes.String || sch[1].Type != sqltypes.Float {
		t.Errorf("types = %v %v", sch[0].Type, sch[1].Type)
	}
	if rep.Rows != 2 || rep.Table.NumRows() != 2 {
		t.Errorf("rows = %d", rep.Rows)
	}
	if rep.DefaultedColumns != 0 {
		t.Errorf("defaulted = %d", rep.DefaultedColumns)
	}
}

func TestHeaderlessFileGetsDefaultNames(t *testing.T) {
	rep := load(t, "1,2,3\n4,5,6\n", Options{})
	if rep.HeaderDetected {
		t.Error("numeric first row is data, not header")
	}
	sch := rep.Table.Schema()
	if sch[0].Name != "column1" || sch[2].Name != "column3" {
		t.Errorf("names = %v", sch.Names())
	}
	if !rep.AllDefaulted || rep.DefaultedColumns != 3 {
		t.Errorf("defaulted = %d all=%v", rep.DefaultedColumns, rep.AllDefaulted)
	}
	if rep.Rows != 2 {
		t.Errorf("rows = %d (header must not be consumed)", rep.Rows)
	}
}

func TestPartialHeaderDefaults(t *testing.T) {
	rep := load(t, "name,,location\nann,5,seattle\n", Options{})
	sch := rep.Table.Schema()
	if sch[1].Name != "column2" {
		t.Errorf("empty header cell should default: %v", sch.Names())
	}
	if rep.DefaultedColumns != 1 || rep.AllDefaulted {
		t.Errorf("defaulted = %d", rep.DefaultedColumns)
	}
}

func TestDelimiterInferenceTabs(t *testing.T) {
	rep := load(t, "a\tb\tc\n1\t2\t3\n", Options{})
	if rep.Delimiter != '\t' {
		t.Errorf("delimiter = %q", rep.Delimiter)
	}
	if len(rep.Table.Schema()) != 3 {
		t.Errorf("cols = %d", len(rep.Table.Schema()))
	}
}

func TestDelimiterInferenceSemicolonAndPipe(t *testing.T) {
	rep := load(t, "a;b\n1;2\n", Options{})
	if rep.Delimiter != ';' {
		t.Errorf("delimiter = %q", rep.Delimiter)
	}
	rep = load(t, "a|b\n1|2\n", Options{})
	if rep.Delimiter != '|' {
		t.Errorf("delimiter = %q", rep.Delimiter)
	}
}

func TestTypeInference(t *testing.T) {
	rep := load(t, "i,f,d,s,b\n1,1.5,2014-01-02,hello,true\n2,2.5,2014-01-03,world,false\n", Options{})
	sch := rep.Table.Schema()
	want := []sqltypes.Type{sqltypes.Int, sqltypes.Float, sqltypes.DateTime, sqltypes.String, sqltypes.Bool}
	for i, w := range want {
		if sch[i].Type != w {
			t.Errorf("col %d type = %v, want %v", i, sch[i].Type, w)
		}
	}
}

func TestIntWidensToFloatInPrefix(t *testing.T) {
	rep := load(t, "x\n1\n2\n3.5\n", Options{})
	if got := rep.Table.Schema()[0].Type; got != sqltypes.Float {
		t.Errorf("type = %v, want FLOAT", got)
	}
}

// TestRevertToStringBelowPrefix exercises the §3.1 recovery path: the
// inference prefix sees integers, a later row has text, the column reverts
// to VARCHAR and ingest continues.
func TestRevertToStringBelowPrefix(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("x\n")
	for i := 0; i < 50; i++ {
		sb.WriteString("1\n")
	}
	sb.WriteString("oops\n")
	rep, err := LoadBytes("t", []byte(sb.String()), Options{InferenceRows: 10})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Table.Schema()[0].Type; got != sqltypes.String {
		t.Errorf("type after revert = %v", got)
	}
	if len(rep.WidenedColumns) != 1 || rep.WidenedColumns[0] != "x" {
		t.Errorf("widened = %v", rep.WidenedColumns)
	}
	if rep.Rows != 51 {
		t.Errorf("rows = %d (no data may be dropped)", rep.Rows)
	}
	// Previously parsed ints must have been re-rendered as strings.
	for _, r := range rep.Table.Scan() {
		if !r[0].IsNull() && r[0].Type() != sqltypes.String {
			t.Fatalf("row value not re-rendered: %v", r[0].Type())
		}
	}
}

func TestRaggedRowsPaddedAndExtended(t *testing.T) {
	// Row 3 is short (padded with NULL); row 4 is longer than the header
	// (an extra column is created).
	rep := load(t, "a,b\n1,2\n3\n4,5,6\n", Options{})
	if rep.RaggedRows != 2 {
		t.Errorf("ragged rows = %d", rep.RaggedRows)
	}
	sch := rep.Table.Schema()
	if len(sch) != 3 {
		t.Fatalf("cols = %d (longest row must fit)", len(sch))
	}
	if sch[2].Name != "column3" {
		t.Errorf("extra col name = %q", sch[2].Name)
	}
	nulls := 0
	for _, r := range rep.Table.Scan() {
		if r[2].IsNull() {
			nulls++
		}
	}
	if nulls != 2 {
		t.Errorf("padded NULLs in extra column = %d", nulls)
	}
}

func TestEmptyValuesBecomeNULL(t *testing.T) {
	rep := load(t, "a,b\n1,\n,2\n", Options{})
	rows := rep.Table.Scan()
	nullCount := 0
	for _, r := range rows {
		for _, v := range r {
			if v.IsNull() {
				nullCount++
			}
		}
	}
	if nullCount != 2 {
		t.Errorf("nulls = %d", nullCount)
	}
}

func TestQuotedFields(t *testing.T) {
	rep := load(t, "name,notes\nann,\"likes, commas\"\n", Options{})
	rows := rep.Table.Scan()
	if rows[0][1].Str() != "likes, commas" {
		t.Errorf("quoted field = %q", rows[0][1].Str())
	}
}

// TestLeadingBOMIsNotData: the byte-order mark spreadsheet "CSV UTF-8"
// exports begin with names no column and types no cell; one anywhere else
// is data.
func TestLeadingBOMIsNotData(t *testing.T) {
	const bom = "\xef\xbb\xbf"
	rep := load(t, bom+"id,v\n1,2\n3,4\n", Options{})
	if names := rep.Table.Schema().Names(); !rep.HeaderDetected || names[0] != "id" || names[1] != "v" {
		t.Errorf("header %v, names %q, want id, v", rep.HeaderDetected, names)
	}
	rep = load(t, bom+"1,2\n3,4\n5,6\n", Options{})
	if sch := rep.Table.Schema(); rep.HeaderDetected || rep.Rows != 3 || sch[0].Type != sqltypes.Int {
		t.Errorf("header %v, %d rows, column1 %s; want no header, 3 rows, INT", rep.HeaderDetected, rep.Rows, sch[0].Type)
	}
	rep = load(t, bom+bom+"id,v\n1,2\n", Options{})
	if name := rep.Table.Schema()[0].Name; name != "\ufeffid" {
		t.Errorf("a second mark: column %q, want %q", name, "\ufeffid")
	}
	rep = load(t, "id,v\n"+bom+"1,2\n3,4\n", Options{})
	if typ := rep.Table.Schema()[0].Type; typ != sqltypes.String {
		t.Errorf("a mark inside the file: column id is %s, want VARCHAR", typ)
	}
}

func TestDuplicateHeaderNamesDisambiguated(t *testing.T) {
	rep := load(t, "x,x,X\n1,2,3\n", Options{})
	names := rep.Table.Schema().Names()
	seen := map[string]bool{}
	for _, n := range names {
		k := strings.ToLower(n)
		if seen[k] {
			t.Fatalf("duplicate column name %q in %v", n, names)
		}
		seen[k] = true
	}
}

func TestForcedHeaderOption(t *testing.T) {
	yes, no := true, false
	rep := load(t, "1,2\n3,4\n", Options{HasHeader: &yes})
	if rep.Rows != 1 {
		t.Errorf("forced header: rows = %d", rep.Rows)
	}
	rep = load(t, "a,b\nc,d\n", Options{HasHeader: &no})
	if rep.Rows != 2 {
		t.Errorf("forced no-header: rows = %d", rep.Rows)
	}
}

func TestEmptyFileRejected(t *testing.T) {
	if _, err := LoadBytes("t", nil, Options{}); err == nil {
		t.Error("empty file should error")
	}
	if _, err := LoadBytes("t", []byte("\n\n"), Options{}); err == nil {
		t.Error("blank file should error")
	}
}

func TestSingleColumnFile(t *testing.T) {
	rep := load(t, "value\n1\n2\n3\n", Options{})
	if len(rep.Table.Schema()) != 1 || rep.Rows != 3 {
		t.Errorf("single column: %v rows=%d", rep.Table.Schema(), rep.Rows)
	}
}

func TestMissingValuesDoNotBlockTypeInference(t *testing.T) {
	rep := load(t, "x\n\n5\n\n7\n", Options{})
	if got := rep.Table.Schema()[0].Type; got != sqltypes.Int {
		t.Errorf("type with gaps = %v", got)
	}
}

func TestQuickNeverRejectsPlausibleCSV(t *testing.T) {
	// Property: any non-empty grid of printable values ingests without
	// error and preserves the row count — "tolerate, never reject".
	f := func(cells [][3]uint8, headerless bool) bool {
		if len(cells) == 0 {
			return true
		}
		var sb strings.Builder
		sb.WriteString("h1,h2,h3\n")
		for _, row := range cells {
			for j, c := range row {
				if j > 0 {
					sb.WriteByte(',')
				}
				// Printable, delimiter-free payloads.
				sb.WriteString(strings.Repeat(string(rune('a'+c%26)), int(c%5)+1))
			}
			sb.WriteByte('\n')
		}
		rep, err := LoadBytes("t", []byte(sb.String()), Options{})
		if err != nil {
			return false
		}
		return rep.Rows == len(cells)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestReportRowsMatchesTable(t *testing.T) {
	rep := load(t, "a,b\n1,x\n2,y\n3,z\n", Options{})
	if rep.Rows != rep.Table.NumRows() {
		t.Errorf("report rows %d != table rows %d", rep.Rows, rep.Table.NumRows())
	}
}

// TestCellBlockRowsAreIsolated: LoadBytes takes every row from one cell
// block, each window capped at the row's width, so an append to one row
// reallocates it instead of writing into the next row's cells.
func TestCellBlockRowsAreIsolated(t *testing.T) {
	rep := load(t, "id,x,name\n1,1.5,a\n2,2.5,b\n3,,c\n4,4.5,d\n5,5.5,e\n", Options{})
	for i, r := range rep.Table.Scan() {
		if cap(r) != len(r) {
			t.Fatalf("row %d: capacity %d beyond its width %d", i, cap(r), len(r))
		}
	}
}
