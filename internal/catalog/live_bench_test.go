package catalog

import (
	"fmt"
	"testing"

	"sqlshare/internal/ops"
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
// with the live-operations registry attached (and with the memory budget on
// top). bench/ prices the registry together with the other sinks as
// obs.sinks_overhead_share.
func BenchmarkPointQuery(b *testing.B) {
	for _, mode := range []struct {
		name     string
		attach   bool
		maxBytes int64
	}{
		{"baseline", false, 0},
		{"registry", true, 0},
		{"registry_accounting", true, 1 << 40},
	} {
		b.Run(mode.name, func(b *testing.B) {
			c := benchCatalog(b, 100_000)
			if mode.attach {
				c.SetOpsRegistry(ops.NewRegistry())
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := c.QueryWithOptions("bench", benchPointSQL,
					QueryOptions{MaxBytes: mode.maxBytes}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
