package ingest_test

import (
	"runtime"
	"sort"
	"testing"

	"sqlshare/internal/ingest"
)

// pointRows is the row count of the point benchmark's observation uploads.
const pointRows = 20000

// BenchmarkLoadBytes loads a 20,000-row CSV of each of the benchmark's
// set-up upload shapes and of quoted VARCHARs, segments included, one
// sub-benchmark per shape, and reports the time and allocations per row.
func BenchmarkLoadBytes(b *testing.B) {
	shapes := benchShapedCSVs(pointRows)
	names := make([]string, 0, len(shapes))
	for name := range shapes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		data := shapes[name]
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err := ingest.LoadBytes("t", data, ingest.Options{})
				if err != nil {
					b.Fatal(err)
				}
				sink = rep
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			perRow := float64(b.N * pointRows)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/perRow, "ns/row")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/perRow, "allocs/row")
		})
	}
}

var sink *ingest.Report

// allocsPerRowBound is the allocations LoadBytes may make per row of a
// point-shaped CSV, segments included: about 1.25× the 0.102 it makes on
// linux/amd64 — a segment's share of its vectors and string blocks, since
// a field is a piece of the staged file (1.19 while encoding/csv made a
// string per line, 3.19 when every VARCHAR cell was copied out of its
// line, 5.5 when every record was held, every DATETIME first failed RFC
// 3339 and the rows were sorted).
const allocsPerRowBound = 0.13

// TestLoadAllocsPerRow bounds the allocations of loading a 20,000-row CSV
// shaped like the point benchmark's observation uploads.
func TestLoadAllocsPerRow(t *testing.T) {
	data := benchShapedCSVs(pointRows)["point obs"]
	allocs := testing.AllocsPerRun(2, func() {
		if _, err := ingest.LoadBytes("t", data, ingest.Options{}); err != nil {
			t.Fatal(err)
		}
	})
	perRow := allocs / pointRows
	t.Logf("allocations per row: %.2f (bound %.2f)", perRow, allocsPerRowBound)
	if perRow > allocsPerRowBound {
		t.Fatalf("LoadBytes makes %.2f allocations per row, over the %.2f bound", perRow, allocsPerRowBound)
	}
}
