package ingest

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// heapPerCellBound is the live heap one loaded cell may hold — its share of
// the row cells, the CSV record strings they point into, and the columnar
// segments — about 1.25× the 58 B it measures with 32-byte cells on
// linux/amd64 (72-byte cells measured 106 B). A change that re-inflates the
// cell or a vector fails here.
const heapPerCellBound = 73

// TestLoadHeapPerCell loads a 20,000-row CSV with an int, a float, a
// datetime, a dictionary-sized string and a near-distinct string column,
// builds its segments, and bounds the live heap the table holds per cell.
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

	live := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := live()
	rep, err := LoadBytes("t", data, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Table.NumRows(); got != rows {
		t.Fatalf("loaded %d rows, want %d", got, rows)
	}
	rep.Table.ScanSegments()
	after := live()
	runtime.KeepAlive(rep)
	runtime.KeepAlive(data)

	perCell := float64(int64(after)-int64(before)) / float64(rows*cols)
	t.Logf("live heap per cell: %.1f B (bound %d B)", perCell, heapPerCellBound)
	if perCell > heapPerCellBound {
		t.Fatalf("live heap per loaded cell is %.1f B, over the %d B bound", perCell, heapPerCellBound)
	}
}
