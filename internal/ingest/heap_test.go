package ingest

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// heapPerCellBound is the live heap one loaded cell may hold — its share of
// the columnar segments, which are the table's only copy of its rows, and of
// the VARCHAR strings they hold — about 1.25× the 11.2 B it measures on
// linux/amd64 (12.0 B when each VARCHAR cell was its own allocation, 51.9 B
// while the table also kept its rows, 58.3 B when string cells pinned their
// CSV lines, 106 B with 72-byte cells). A change that keeps a row copy
// again, or re-inflates a vector, fails here.
const heapPerCellBound = 14

// TestLoadHeapPerCell loads a 20,000-row CSV with an int, a float, a
// datetime, a dictionary-sized string and a near-distinct string column,
// and bounds the live heap the table holds per cell.
func TestLoadHeapPerCell(t *testing.T) {
	const rows, cols = 20000, 5
	var b strings.Builder
	b.WriteString("id,reading,taken,station,note\n")
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&b, "%d,%d.%02d,2014-%02d-%02d %02d:%02d:%02d,station-%d,note %07d\n",
			i, i%977, i%100, 1+i%12, 1+i%28, i%24, i%60, (i*7)%60, i%40, (i*7919)%1000003)
	}
	data := []byte(b.String())
	b.Reset()

	before := liveHeap()
	rep, err := LoadBytes("t", data, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Table.NumRows(); got != rows {
		t.Fatalf("loaded %d rows, want %d", got, rows)
	}
	after := liveHeap()
	runtime.KeepAlive(rep)
	runtime.KeepAlive(data)

	perCell := float64(int64(after)-int64(before)) / float64(rows*cols)
	t.Logf("live heap per cell: %.1f B (bound %d B)", perCell, heapPerCellBound)
	if perCell > heapPerCellBound {
		t.Fatalf("live heap per loaded cell is %.1f B, over the %d B bound", perCell, heapPerCellBound)
	}
}

// liveHeap is the heap in use after two collections.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestVarcharCellsPinNoLine loads rows whose short VARCHAR cell sits on a
// line padded to a kilobyte by an INT field's spaces. A cell holding a
// substring of its line would keep the whole line alive; the loaded table
// must hold far less than one line per row.
func TestVarcharCellsPinNoLine(t *testing.T) {
	const rows, pad = 2000, 1000
	var b strings.Builder
	b.WriteString("name,n\n")
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&b, "x%d,%s%d\n", i%10, strings.Repeat(" ", pad), i)
	}
	data := []byte(b.String())
	b.Reset()
	before := liveHeap()
	rep, err := LoadBytes("t", data, Options{})
	if err != nil {
		t.Fatal(err)
	}
	after := liveHeap()
	runtime.KeepAlive(rep)
	runtime.KeepAlive(data)
	perRow := float64(int64(after)-int64(before)) / rows
	t.Logf("live heap per row: %.0f B (a line is %d B)", perRow, pad+8)
	if perRow > pad/4 {
		t.Fatalf("live heap per loaded row is %.0f B: string cells pin their %d-byte lines", perRow, pad+8)
	}
}

// TestTableDoesNotPinStagedBytes: a field is a piece of the staged file, so
// a string the table or the report kept without copying it would keep the
// whole file alive. The file is loaded from a buffer with a finalizer and
// dropped; the buffer must be collected while the report lives. The file
// has a header, a dictionary column, a near-distinct VARCHAR, a column
// reverted to VARCHAR below the inference prefix, a ragged row that widens
// the table and quoted fields, one with a doubled quote.
func TestTableDoesNotPinStagedBytes(t *testing.T) {
	const size = 1 << 16
	var b strings.Builder
	b.WriteString("id,region,note,n,\"q \"\"x\"\"\"\n")
	for i := 0; i < 400; i++ {
		n := fmt.Sprint(i)
		if i == 250 {
			n = "oops"
		}
		fmt.Fprintf(&b, "%d,r%d,note %d,%s,\"say \"\"%d\"\"\"\n", i, i%4, i*7919, n, i%3)
		if i == 300 {
			fmt.Fprintf(&b, "%d,r0,wide,1,x,extra %d\n", i, i)
		}
	}
	buf := new([size]byte)
	n := copy(buf[:], b.String())
	if n == size {
		t.Fatalf("the file does not fit the %d-byte buffer", size)
	}
	collected := make(chan struct{})
	runtime.SetFinalizer(buf, func(*[size]byte) { close(collected) })
	rep, err := LoadBytes("t", buf[:n], Options{})
	if err != nil {
		t.Fatal(err)
	}
	buf = nil
	if rep.Rows != 401 || len(rep.WidenedColumns) != 1 || len(rep.Table.Schema()) != 6 {
		t.Fatalf("%d rows, widened %q, schema %v: the file lost a shape it must have", rep.Rows, rep.WidenedColumns, rep.Table.Schema())
	}
	for k := 0; ; k++ {
		runtime.GC()
		select {
		case <-collected:
			runtime.KeepAlive(rep)
			return
		case <-time.After(10 * time.Millisecond):
		}
		if k == 20 {
			t.Fatal("the staged bytes outlive the load: the table or the report keeps a string that aliases them")
		}
	}
}
