package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"sqlshare/internal/catalog"
	"sqlshare/internal/obs"
	"sqlshare/internal/server"
	"sqlshare/internal/sqltypes"
	"sqlshare/internal/storage"
)

// benchCatalog builds a catalog with one indexed fact table, big enough
// that a point query does real work but small enough to set up quickly.
func benchCatalog(tb testing.TB) *catalog.Catalog {
	rng := rand.New(rand.NewSource(1))
	fact := storage.NewTable("fact", storage.Schema{
		{Name: "id", Type: sqltypes.Int},
		{Name: "grp", Type: sqltypes.String},
		{Name: "val", Type: sqltypes.Float},
	})
	rows := make([]storage.Row, 100000)
	for i := range rows {
		rows[i] = storage.Row{
			sqltypes.NewInt(int64(i)),
			sqltypes.NewString(fmt.Sprintf("group-%02d", rng.Intn(40))),
			sqltypes.NewFloat(float64(rng.Intn(100000)) / 64),
		}
	}
	if err := fact.Insert(rows); err != nil {
		tb.Fatal(err)
	}
	c := catalog.New()
	if _, err := c.CreateUser("bench", "bench@example.org"); err != nil {
		tb.Fatal(err)
	}
	if _, err := c.CreateDatasetFromTable("bench", "fact", fact, catalog.Meta{}); err != nil {
		tb.Fatal(err)
	}
	return c
}

// submitAndWait drives one point query through the asynchronous protocol:
// submit, then poll status until the job leaves "running".
func submitAndWait(tb testing.TB, h http.Handler) {
	body, _ := json.Marshal(map[string]any{"sql": "SELECT id, grp, val FROM fact WHERE id = 12345"})
	req := httptest.NewRequest("POST", "/api/queries", bytes.NewReader(body))
	req.Header.Set("X-SQLShare-User", "bench")
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, req)
	if rw.Code != 202 {
		tb.Fatalf("submit: %d %s", rw.Code, rw.Body.String())
	}
	var sub struct {
		ID string `json:"id"`
	}
	json.Unmarshal(rw.Body.Bytes(), &sub)
	for {
		req := httptest.NewRequest("GET", "/api/queries/"+sub.ID, nil)
		req.Header.Set("X-SQLShare-User", "bench")
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, req)
		var status struct {
			Status string `json:"status"`
		}
		json.Unmarshal(rw.Body.Bytes(), &status)
		if status.Status != "running" {
			return
		}
		runtime.Gosched()
	}
}

// BenchmarkQuerySpansOn prices the full in-process service path (submit +
// status polls through the middleware) as bench/'s server runs it — both
// tracers on, tail sampling discarding the trace — for quick -benchmem
// comparisons of the allocation budget.
func BenchmarkQuerySpansOn(b *testing.B) {
	srv := server.New(benchCatalog(b))
	srv.SetLogger(slog.New(slog.NewTextHandler(io.Discard, nil)))
	srv.ConfigureTraces(obs.TraceConfig{Slow: obs.DefaultTraceSlow})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		submitAndWait(b, srv)
	}
}
