package storage

import (
	"testing"
	"testing/quick"
	"time"

	"sqlshare/internal/sqltypes"
)

func intRow(vals ...int64) Row {
	r := make(Row, len(vals))
	for i, v := range vals {
		r[i] = sqltypes.NewInt(v)
	}
	return r
}

func newTestTable(t *testing.T, firstCol []int64) *Table {
	t.Helper()
	tbl := NewTable("t", Schema{{Name: "a", Type: sqltypes.Int}, {Name: "b", Type: sqltypes.Int}})
	rows := make([]Row, len(firstCol))
	for i, v := range firstCol {
		rows[i] = intRow(v, int64(i))
	}
	if err := tbl.Insert(rows); err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestInsertKeepsClusteredOrder(t *testing.T) {
	tbl := newTestTable(t, []int64{5, 1, 3, 2, 4})
	rows := tbl.Scan()
	for i := 1; i < len(rows); i++ {
		if compareRows(rows[i-1], rows[i]) > 0 {
			t.Fatalf("rows out of order at %d: %v > %v", i, rows[i-1], rows[i])
		}
	}
}

func TestInsertArityMismatch(t *testing.T) {
	tbl := NewTable("t", Schema{{Name: "a", Type: sqltypes.Int}})
	if err := tbl.Insert([]Row{intRow(1, 2)}); err == nil {
		t.Fatal("arity mismatch should error")
	}
}

// spanRows builds the rows of a span.
func spanRows(sp Span) []Row {
	if sp.N == 0 {
		return nil
	}
	rows := make([]Row, sp.N)
	for i := range rows {
		rows[i] = make(Row, len(sp.Segs[0].cols))
		for c := range rows[i] {
			rows[i][c] = sp.Value(i, c)
		}
	}
	return rows
}

func TestSeekEqual(t *testing.T) {
	tbl := newTestTable(t, []int64{1, 2, 2, 2, 3, 5})
	got := spanRows(tbl.SeekEqual(sqltypes.NewInt(2)))
	if len(got) != 3 {
		t.Fatalf("seek 2 returned %d rows", len(got))
	}
	for _, r := range got {
		if r[0].Int() != 2 {
			t.Fatalf("wrong row: %v", r)
		}
	}
	if got := spanRows(tbl.SeekEqual(sqltypes.NewInt(4))); len(got) != 0 {
		t.Fatalf("seek 4 should be empty, got %d", len(got))
	}
}

func TestSeekRange(t *testing.T) {
	tbl := newTestTable(t, []int64{1, 2, 3, 4, 5})
	got := spanRows(tbl.SeekRange(sqltypes.NewInt(2), sqltypes.NewInt(4), true, false))
	if len(got) != 2 || got[0][0].Int() != 2 || got[1][0].Int() != 3 {
		t.Fatalf("range [2,4) = %v", got)
	}
	got = spanRows(tbl.SeekRange(sqltypes.NewInt(2), sqltypes.NewInt(4), false, true))
	if len(got) != 2 || got[0][0].Int() != 3 || got[1][0].Int() != 4 {
		t.Fatalf("range (2,4] = %v", got)
	}
}

// TestSeekSpanSegments: a seek's span places its rows in the clustered order
// of the table's segments, and a merge-insert publishes new segments from its
// insertion point on while a span taken before it keeps reading the old ones.
func TestSeekSpanSegments(t *testing.T) {
	defer SetSegmentRows(SetSegmentRows(4))
	keys := make([]int64, 20)
	for i := range keys {
		keys[i] = int64(2 * i)
	}
	tbl := newTestTable(t, keys)
	sp := tbl.SeekRange(sqltypes.NewInt(6), sqltypes.NewInt(12), true, true)
	if sp.Off != 3 || sp.N != 4 || len(sp.Segs) != 5 {
		t.Fatalf("seek [6,12]: off %d, %d rows, %d segments; want 3, 4, 5", sp.Off, sp.N, len(sp.Segs))
	}
	before := sp.Segs
	if err := tbl.Insert([]Row{intRow(21, 99)}); err != nil { // lands at row 11
		t.Fatal(err)
	}
	sp = tbl.SeekEqual(sqltypes.NewInt(30))
	if sp.Off != 16 || sp.N != 1 || len(sp.Segs) != 6 {
		t.Fatalf("seek 30 after a merge-insert: off %d, %d rows, %d segments; want 16, 1, 6", sp.Off, sp.N, len(sp.Segs))
	}
	for k := range before {
		if shared := sp.Segs[k] == before[k]; shared != (k < 2) {
			t.Fatalf("segment %d shared with the earlier version: %v, want %v", k, shared, k < 2)
		}
	}
	scan := tbl.Scan()
	for k, seg := range sp.Segs {
		for i := 0; i < seg.Len(); i++ {
			if got, want := seg.Col(0).Ints[i], scan[4*k+i][0].Int(); got != want {
				t.Fatalf("segment %d row %d holds %d, the row %d", k, i, got, want)
			}
		}
	}
	if got := spanRows(sp); got[0][0].Int() != 30 || got[0][1].Int() != 15 {
		t.Fatalf("seek 30 reads %v", got)
	}
	if old := spanRows(Span{Off: 11, N: 1, Segs: before}); old[0][0].Int() != 22 {
		t.Fatalf("the earlier version's row 11 reads %v, want key 22", old)
	}
}

// TestReadsTakeNoLock: an installed table is immutable, so its readers —
// the row count and row width every compile and quota check reads, seeks,
// scans and the encoders — load its contents without a lock: an Insert
// holding the table's lock blocks none of them.
func TestReadsTakeNoLock(t *testing.T) {
	tbl := newTestTable(t, []int64{3, 1, 2})
	tbl.mu.Lock()
	defer tbl.mu.Unlock()
	done := make(chan int)
	go func() {
		n := tbl.NumRows() + tbl.RowSizeBytes() + len(tbl.Schema()) + tbl.SeekEqual(sqltypes.NewInt(2)).N
		n += tbl.All().N + len(tbl.Scan()) + len(tbl.Data().Rows) + len(tbl.AppendJSON(nil))
		done <- n
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("a reader waited for the lock an Insert holds")
	}
}

func TestSeekMatchesScanFilter(t *testing.T) {
	// Property: seek(v) must equal the brute-force filter of scan.
	f := func(keys []int16, probe int16) bool {
		vals := make([]int64, len(keys))
		for i, k := range keys {
			vals[i] = int64(k % 16)
		}
		tbl := NewTable("t", Schema{{Name: "a", Type: sqltypes.Int}})
		rows := make([]Row, len(vals))
		for i, v := range vals {
			rows[i] = intRow(v)
		}
		if err := tbl.Insert(rows); err != nil {
			return false
		}
		p := sqltypes.NewInt(int64(probe % 16))
		want := 0
		for _, r := range tbl.Scan() {
			if c, ok := sqltypes.Compare(r[0], p); ok && c == 0 {
				want++
			}
		}
		return tbl.SeekEqual(p).N == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSchemaHelpers(t *testing.T) {
	s := Schema{{Name: "x", Type: sqltypes.Int}, {Name: "y", Type: sqltypes.String}}
	if s.ColumnIndex("y") != 1 || s.ColumnIndex("z") != -1 {
		t.Error("ColumnIndex broken")
	}
	names := s.Names()
	if names[0] != "x" || names[1] != "y" {
		t.Errorf("Names = %v", names)
	}
	c := s.Clone()
	c[0].Name = "mutated"
	if s[0].Name != "x" {
		t.Error("Clone should be deep for the slice header")
	}
}

func TestRowSizeBytes(t *testing.T) {
	tbl := NewTable("t", Schema{
		{Name: "a", Type: sqltypes.Int},
		{Name: "b", Type: sqltypes.String},
		{Name: "c", Type: sqltypes.Bool},
	})
	if got := tbl.RowSizeBytes(); got != 8+24+1 {
		t.Errorf("RowSizeBytes = %d", got)
	}
	empty := NewTable("e", Schema{})
	if empty.RowSizeBytes() < 1 {
		t.Error("empty schema should report at least 1 byte")
	}
}

func TestNullsSortFirst(t *testing.T) {
	tbl := NewTable("t", Schema{{Name: "a", Type: sqltypes.Int}})
	if err := tbl.Insert([]Row{{sqltypes.NewInt(1)}, {sqltypes.TypedNull(sqltypes.Int)}}); err != nil {
		t.Fatal(err)
	}
	rows := tbl.Scan()
	if !rows[0][0].IsNull() {
		t.Fatal("NULL should cluster first")
	}
}
