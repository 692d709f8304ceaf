package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// seedQueryData uploads a small dataset and returns the client.
func seedQueryData(t *testing.T) (*client, *Server) {
	t.Helper()
	c, _, srv := newTestServerObs(t)
	mustCreateUser(t, c, "alice")
	c.uploadCSV("readings", "station,depth\nalpha,2.0\nbeta,5.0\ngamma,10.0\n")
	return c, srv
}

func (c *client) fetchText(path string) (int, string) {
	c.t.Helper()
	req, err := http.NewRequest("GET", c.srv.URL+path, nil)
	if err != nil {
		c.t.Fatal(err)
	}
	req.Header.Set(userHeader, c.user)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		c.t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestMetricsEndpointServesPrometheusFormat(t *testing.T) {
	c, _ := seedQueryData(t)
	c.query("SELECT station FROM readings")

	code, body := c.fetchText("/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics: %d", code)
	}
	for _, want := range []string{
		"# TYPE sqlshare_queries_total counter",
		"sqlshare_queries_total 1",
		"# TYPE sqlshare_query_execute_seconds histogram",
		"sqlshare_query_execute_seconds_count 1",
		"sqlshare_query_compile_seconds_count 1",
		"sqlshare_ingest_bytes_total",
		"# TYPE sqlshare_http_requests_total counter",
		`route="POST /api/queries"`,
		"sqlshare_catalog_ops_total{op=\"create_dataset\"} 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// Traced scans feed the rows-scanned counter: 3 base rows.
	if !strings.Contains(body, "sqlshare_query_rows_scanned_total 3") {
		t.Errorf("/metrics missing rows-scanned actuals:\n%s", body)
	}
}

func TestDebugVarsEndpoint(t *testing.T) {
	c, _ := seedQueryData(t)
	code, body := c.fetchText("/debug/vars")
	if code != http.StatusOK {
		t.Fatalf("GET /debug/vars: %d", code)
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if _, ok := doc["sqlshare_queries_total"]; !ok {
		t.Fatal("registry metrics missing from /debug/vars")
	}
}

func TestQueryTraceEndpoint(t *testing.T) {
	c, _ := seedQueryData(t)
	code, sub := c.do("POST", "/api/queries", map[string]string{"sql": "SELECT station FROM readings WHERE depth > 3"})
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %v", code, sub)
	}
	id := sub["id"].(string)
	c.poll(id)

	code, body := c.do("GET", "/api/queries/"+id+"/trace", nil)
	if code != http.StatusOK {
		t.Fatalf("GET trace: %d %v", code, body)
	}
	root, ok := body["trace"].(map[string]any)
	if !ok {
		t.Fatalf("no trace tree in %v", body)
	}
	// Every node carries its estimates and its actual block; find the scan
	// and check both.
	var findScan func(n map[string]any) map[string]any
	findScan = func(n map[string]any) map[string]any {
		if obj, _ := n["object"].(string); obj != "" {
			return n
		}
		children, _ := n["children"].([]any)
		for _, ch := range children {
			if m, ok := ch.(map[string]any); ok {
				if found := findScan(m); found != nil {
					return found
				}
			}
		}
		return nil
	}
	scan := findScan(root)
	if scan == nil {
		t.Fatalf("no scan node in trace: %v", root)
	}
	if _, ok := scan["numRows"]; !ok {
		t.Fatal("trace node missing its numRows estimate")
	}
	block, _ := scan["actual"].(map[string]any)
	if rows, ok := block["rows"].(float64); !ok || rows <= 0 {
		t.Fatalf("scan actual rows = %v, want > 0", block["rows"])
	}
	if _, ok := block["wallNs"].(float64); !ok {
		t.Fatalf("scan actual block %v carries no wallNs", block)
	}
	if _, ok := scan["actualRows"]; ok {
		t.Fatal("trace node is in the trace form")
	}
	// Other users must not see the trace.
	code, _ = c.as("mallory").do("GET", "/api/queries/"+id+"/trace", nil)
	if code != http.StatusForbidden {
		t.Fatalf("foreign trace access: %d, want 403", code)
	}
}

func TestRowLimitAbortMapsTo422(t *testing.T) {
	c, _, srv := newTestServerObs(t)
	srv.SetMaxRows(10)
	mustCreateUser(t, c, "alice")
	c.uploadCSV("nums", "n\n1\n2\n3\n4\n5\n")
	code, sub := c.do("POST", "/api/queries", map[string]string{"sql": "SELECT a.n FROM nums a, nums b"})
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %v", code, sub)
	}
	id := sub["id"].(string)
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, body := c.do("GET", "/api/queries/"+id, nil)
		if body["status"] == "failed" {
			if code != http.StatusUnprocessableEntity {
				t.Fatalf("aborted query status code = %d, want 422 (%v)", code, body)
			}
			if !strings.Contains(body["error"].(string), "row limit") {
				t.Fatalf("unexpected error text: %v", body["error"])
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("query did not fail in time (last: %d %v)", code, body)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if got := srv.Metrics().QueriesAborted.Value(); got != 1 {
		t.Fatalf("queries_aborted_total = %d, want 1", got)
	}
	// A query within the limit still succeeds on the same server.
	res := c.query("SELECT n FROM nums WHERE n = 3")
	if res["status"] != "done" {
		t.Fatalf("in-limit query: %v", res)
	}
}

// TestJobLifecycleAndQueueDepthGauge follows jobs through the queue-depth
// gauge: a held job is running and counted, a job that finishes returns its
// result, and once the held job is killed the gauge is back to zero.
func TestJobLifecycleAndQueueDepthGauge(t *testing.T) {
	c, _, srv := newTestServerObs(t)
	mustCreateUser(t, c, "alice")
	var b strings.Builder
	b.WriteString("n\n")
	for i := 0; i < 800; i++ {
		fmt.Fprintf(&b, "%d\n", i)
	}
	c.uploadCSV("nums", b.String())
	uploadHeld(c)

	// The depth is counted before the submit answers, and a held job cannot
	// finish, so it is running and counted now.
	held := submitHeld(c, srv, 0)
	if depth := queueDepth(c); depth < 1 {
		t.Fatalf("job queue depth while running = %v, want >= 1", depth)
	}
	if _, body := c.do("GET", "/api/queries/"+held, nil); body["status"] != "running" {
		t.Fatalf("held job status = %v, want running", body["status"])
	}

	// A job that finishes: the self cross join materializes 640,000 rows.
	final := c.query("SELECT COUNT(*) AS c FROM nums a, nums b")
	if final["status"] != "done" {
		t.Fatalf("job ended %v", final)
	}
	if cells := final["rows"].([]any)[0].([]any); cells[0].(string) != "640000" {
		t.Fatalf("cross join count = %v, want 640000", cells[0])
	}

	// A job leaves the queue before its status leaves "running", so with
	// both jobs ended the gauge is zero.
	killAll(c, held)
	if depth := queueDepth(c); depth != 0 {
		t.Fatalf("job queue depth = %v, want 0", depth)
	}
}

// queueDepth scrapes sqlshare_job_queue_depth from /metrics.
func queueDepth(c *client) float64 {
	c.t.Helper()
	code, body := c.fetchText("/metrics")
	if code != http.StatusOK {
		c.t.Fatalf("metrics: %d", code)
	}
	return metricValue(c.t, body, "sqlshare_job_queue_depth")
}

func TestRequestLogAndHTTPMetrics(t *testing.T) {
	c, _, srv := newTestServerObs(t)
	mustCreateUser(t, c, "alice")
	code, _ := c.do("GET", "/api/datasets", nil)
	if code != http.StatusOK {
		t.Fatalf("list: %d", code)
	}
	if got := srv.Metrics().HTTPSeconds.Count(); got < 2 {
		t.Fatalf("http latency observations = %d, want >= 2", got)
	}
	if got := srv.Metrics().HTTPRequests.With("GET /api/datasets", "200").Value(); got != 1 {
		t.Fatalf("http_requests{GET /api/datasets,200} = %d, want 1", got)
	}
	if got := srv.Metrics().HTTPBytesOut.Value(); got <= 0 {
		t.Fatalf("response bytes = %d, want > 0", got)
	}
}
