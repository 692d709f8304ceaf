package ingest_test

import (
	"testing"

	"sqlshare/internal/ingest"
)

// FuzzLoadBytes checks the relaxed-schema pipeline never panics, that a
// successful report is internally consistent ("tolerate, never reject" —
// and never crash), and that it loads exactly what the earlier loader did,
// with the default inference prefix and with a two-row one.
func FuzzLoadBytes(f *testing.F) {
	seeds := []string{
		"a,b\n1,2\n",
		"1,2,3\n4,5\n6,7,8,9\n",
		"ts;val\n2014-01-01;3.5\n",
		"x|y\nhello|world\n",
		"\"quoted, field\",b\nv,w\n",
		"col\n-999\nunknown\n",
		"", "\n\n", ",", "a,,\n,,b\n",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, opts := range []ingest.Options{{}, {InferenceRows: 2}} {
			if d := diffLoads(data, opts); d != "" {
				t.Fatalf("InferenceRows %d: %s", opts.InferenceRows, d)
			}
		}
		rep, err := ingest.LoadBytes("f", data, ingest.Options{})
		if err != nil {
			return
		}
		if rep.Table == nil {
			t.Fatal("nil table on success")
		}
		if rep.Rows != rep.Table.NumRows() {
			t.Fatalf("report rows %d != table rows %d", rep.Rows, rep.Table.NumRows())
		}
		for _, col := range rep.Table.Schema() {
			if col.Name == "" {
				t.Fatal("empty column name")
			}
		}
	})
}
