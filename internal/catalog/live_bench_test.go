package catalog

import (
	"context"
	"fmt"
	"testing"

	"sqlshare/internal/jobs"
	"sqlshare/internal/sqltypes"
	"sqlshare/internal/storage"
)

// benchCatalog builds a catalog with a fact table wide enough that the
// point query resolves through a clustered-index seek — the smallest
// denominator the live-ops layer's cost can be set against, so the layer
// can be profiled with go test -bench -cpuprofile.
func benchCatalog(b *testing.B, rows int) *Catalog {
	b.Helper()
	fact := storage.NewTable("fact", storage.Schema{
		{Name: "id", Type: sqltypes.Int},
		{Name: "grp", Type: sqltypes.String},
		{Name: "val", Type: sqltypes.Float},
	})
	batch := make([]storage.Row, rows)
	for i := range batch {
		batch[i] = storage.Row{
			sqltypes.NewInt(int64(i)),
			sqltypes.NewString(fmt.Sprintf("group-%02d", i%40)),
			sqltypes.NewFloat(float64(i%100000) / 64),
		}
	}
	if err := fact.Insert(batch); err != nil {
		b.Fatal(err)
	}
	c := New()
	if _, err := c.CreateUser("bench", "bench@example.org"); err != nil {
		b.Fatal(err)
	}
	if _, err := c.CreateDatasetFromTable("bench", "fact", fact, Meta{}); err != nil {
		b.Fatal(err)
	}
	return c
}

const benchPointSQL = "SELECT id, grp, val FROM fact WHERE id = 12345"

// BenchmarkPointQuery pits the bare point-query path against the same path
// with a job record per query, created and retired as the server does (and
// with the memory budget on top). bench/ prices the record together with
// the other sinks as obs.sinks_overhead_share.
func BenchmarkPointQuery(b *testing.B) {
	for _, mode := range []struct {
		name     string
		record   bool
		maxBytes int64
	}{
		{"baseline", false, 0},
		{"record", true, 0},
		{"record_accounting", true, 1 << 40},
	} {
		b.Run(mode.name, func(b *testing.B) {
			c := benchCatalog(b, 100_000)
			tbl := &jobs.Table{}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				opts := QueryOptions{MaxBytes: mode.maxBytes}
				if mode.record {
					opts.Job = tbl.Create(context.Background(), "bench", benchPointSQL, 1, "")
					opts.Context = opts.Job.Context()
				}
				res, _, err := c.QueryWithOptions("bench", benchPointSQL, opts)
				if err != nil {
					b.Fatal(err)
				}
				if opts.Job != nil {
					opts.Job.Finish(res)
				}
			}
		})
	}
}
