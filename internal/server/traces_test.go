package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"sqlshare/internal/history"
	"sqlshare/internal/wal"
)

// doRaw issues one request and returns the response with headers intact —
// the trace tests need X-SQLShare-Trace, which the JSON helpers drop.
func (c *client) doRaw(method, path string, body string, hdr map[string]string) *http.Response {
	c.t.Helper()
	req, err := http.NewRequest(method, c.srv.URL+path, bytes.NewReader([]byte(body)))
	if err != nil {
		c.t.Fatal(err)
	}
	req.Header.Set(userHeader, c.user)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		c.t.Fatal(err)
	}
	return resp
}

// fetchTrace polls GET /api/traces/{id} until the span tree appears: the
// job goroutine releases its trace hold just after the status flips to
// done, so retention can lag the poll by a scheduling beat.
func fetchTrace(t *testing.T, c *client, id string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, body := c.do("GET", "/api/traces/"+id, nil)
		if code == http.StatusOK {
			return body
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace %s never became retrievable: %d %v", id, code, body)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestSlowQuerySpanTreeEndToEnd is the ISSUE acceptance criterion: a query
// crossing the slow threshold produces a retrievable span tree at
// GET /api/traces/{id} covering submit → parse → authorize → cache probe →
// plan → execute, with parentage and durations that are mutually
// consistent.
func TestSlowQuerySpanTreeEndToEnd(t *testing.T) {
	c, srv := seedQueryData(t)
	// Every query is "slow" at a 1ns threshold, so this exercises the real
	// tail-sampling slow path rather than retain-everything.
	srv.ConfigureTraces(time.Nanosecond)

	code, sub := c.do("POST", "/api/queries", map[string]string{"sql": "SELECT station FROM readings WHERE depth > 3"})
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %v", code, sub)
	}
	final := c.poll(sub["id"].(string))
	if final["status"] != "done" {
		t.Fatalf("job ended %v", final)
	}
	traceID, _ := final["traceId"].(string)
	if traceID == "" {
		t.Fatalf("job status carries no traceId: %v", final)
	}

	tr := fetchTrace(t, c, traceID)
	if tr["status"] != "ok" {
		t.Fatalf("trace status = %v", tr["status"])
	}
	spans := tr["spans"].([]any)
	byName := map[string]map[string]any{}
	for _, raw := range spans {
		sp := raw.(map[string]any)
		byName[sp["name"].(string)] = sp
	}

	root := byName["POST /api/queries"]
	if root == nil {
		t.Fatalf("no http.request root span; got %v", keysOf(byName))
	}
	if _, hasParent := root["parentId"]; hasParent {
		t.Fatalf("root span has a parent: %v", root)
	}
	job := byName["query.job"]
	if job == nil {
		t.Fatalf("no query.job span; got %v", keysOf(byName))
	}
	if job["parentId"] != root["spanId"] {
		t.Fatal("query.job not parented under the submit request")
	}

	// The deferred phase spans materialize under query.job for retained
	// traces: the full lifecycle in order, each with a positive duration
	// no longer than the job's.
	jobMs := job["durationMs"].(float64)
	prevStart := -1.0
	for _, phase := range []string{"sql.parse", "authorize", "cache.probe", "plan.compile", "execute"} {
		sp := byName[phase]
		if sp == nil {
			t.Fatalf("phase %q missing from span tree; got %v", phase, keysOf(byName))
		}
		if sp["parentId"] != job["spanId"] {
			t.Errorf("phase %q not parented under query.job", phase)
		}
		d := sp["durationMs"].(float64)
		if d < 0 || d > jobMs {
			t.Errorf("phase %q duration %vms inconsistent with job %vms", phase, d, jobMs)
		}
		start := sp["startUs"].(float64)
		if start < prevStart {
			t.Errorf("phase %q starts at %vus, before the previous phase", phase, start)
		}
		prevStart = start
	}

	// The engine's per-operator actuals bridge into op:* children of the
	// execute phase (the PR-1 tracer measured them; spans re-export them).
	// Nested operators parent under their parent operator, so only the root
	// of the waterfall must hang directly off the execute phase.
	sawOp, rootedOp := false, false
	for name, sp := range byName {
		if strings.HasPrefix(name, "op:") {
			sawOp = true
			if sp["parentId"] == byName["execute"]["spanId"] {
				rootedOp = true
			}
		}
	}
	if !sawOp {
		t.Fatalf("no operator span in tree; got %v", keysOf(byName))
	}
	if !rootedOp {
		t.Error("no operator span parented under the execute phase")
	}

	// The summary ring lists the trace as retained for being slow.
	code, list := c.do("GET", "/api/traces?n=50", nil)
	if code != http.StatusOK {
		t.Fatalf("GET /api/traces: %d", code)
	}
	found := false
	for _, raw := range list["traces"].([]any) {
		s := raw.(map[string]any)
		if s["traceId"] == traceID {
			found = true
			if s["retained"] != true || s["reason"] != "slow" {
				t.Fatalf("summary = %v, want retained for slow", s)
			}
		}
	}
	if !found {
		t.Fatal("trace missing from the summary list")
	}
}

func keysOf(m map[string]map[string]any) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// nopJournal satisfies catalog.Journal without a disk: enough to make
// mutations traced as wal.append spans.
type nopJournal struct{}

func (nopJournal) Append(*wal.Record) error { return nil }

func TestMutationTraceCoversWALAppend(t *testing.T) {
	c, cat, _ := newTestServerObs(t)
	cat.SetJournal(nopJournal{})

	resp := c.doRaw("POST", "/api/users", `{"name":"alice","email":"alice@uw.edu"}`, nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create user: %d", resp.StatusCode)
	}
	traceID := resp.Header.Get("X-SQLShare-Trace")
	if traceID == "" {
		t.Fatal("traced response missing X-SQLShare-Trace header")
	}

	tr := fetchTrace(t, c, traceID)
	for _, raw := range tr["spans"].([]any) {
		sp := raw.(map[string]any)
		if sp["name"] == "wal.append" {
			attrs := sp["attrs"].(map[string]any)
			if attrs["op"] != string(wal.OpCreateUser) {
				t.Fatalf("wal.append op attr = %v", attrs["op"])
			}
			return
		}
	}
	t.Fatalf("no wal.append span in mutation trace: %v", tr["spans"])
}

// TestTraceEndpoint404Codes is the ISSUE satellite: the three 404 flavours
// carry distinct machine-readable codes.
func TestTraceEndpoint404Codes(t *testing.T) {
	c, _, srv := newTestServerObs(t)
	mustCreateUser(t, c, "alice")

	errCode := func(path string) (int, string) {
		t.Helper()
		code, body := c.do("GET", path, nil)
		s, _ := body["code"].(string)
		return code, s
	}

	// Unknown ID: no trace with this ID ever finished.
	if code, ec := errCode("/api/traces/" + strings.Repeat("f", 32)); code != http.StatusNotFound || ec != "trace_unknown" {
		t.Fatalf("unknown trace: %d %q, want 404 trace_unknown", code, ec)
	}

	// Sampled out: the trace finished but tail sampling kept only the
	// summary (nothing is slow at a 1-hour threshold).
	srv.ConfigureTraces(time.Hour)
	resp := c.doRaw("GET", "/api/datasets", "", nil)
	resp.Body.Close()
	id := resp.Header.Get("X-SQLShare-Trace")
	if id == "" {
		t.Fatal("traced response missing X-SQLShare-Trace header")
	}
	if code, ec := errCode("/api/traces/" + id); code != http.StatusNotFound || ec != "trace_sampled_out" {
		t.Fatalf("sampled-out trace: %d %q, want 404 trace_sampled_out", code, ec)
	}
}

// TestTraceparentJoinsRemoteTrace: a caller-supplied W3C traceparent pins
// the trace ID and parents the server's root span under the caller's span.
func TestTraceparentJoinsRemoteTrace(t *testing.T) {
	c, _, _ := newTestServerObs(t)
	mustCreateUser(t, c, "alice")

	remoteTrace := strings.Repeat("ab", 16)
	remoteSpan := "00f067aa0ba902b7"
	resp := c.doRaw("GET", "/api/datasets", "", map[string]string{
		"traceparent": "00-" + remoteTrace + "-" + remoteSpan + "-01",
	})
	resp.Body.Close()
	if got := resp.Header.Get("X-SQLShare-Trace"); got != remoteTrace {
		t.Fatalf("trace header = %q, want the propagated trace ID %q", got, remoteTrace)
	}

	tr := fetchTrace(t, c, remoteTrace)
	root := tr["spans"].([]any)[0].(map[string]any)
	if root["parentId"] != remoteSpan {
		t.Fatalf("root parent = %v, want the caller's span %s", root["parentId"], remoteSpan)
	}
}

// TestLightRouteIngestSampling: high-frequency idempotent routes (status
// polls) start a trace only one request in lightTraceEvery, so poll storms
// can't evict query traces from the bounded summary ring. An explicit
// traceparent always bypasses the head sample.
func TestLightRouteIngestSampling(t *testing.T) {
	c, _, _ := newTestServerObs(t)
	mustCreateUser(t, c, "alice")

	const n = 2 * lightTraceEvery
	traced := 0
	for i := 0; i < n; i++ {
		resp := c.doRaw("GET", "/api/queries/q-missing", "", nil)
		resp.Body.Close()
		if resp.Header.Get("X-SQLShare-Trace") != "" {
			traced++
		}
	}
	if traced != 2 {
		t.Fatalf("traced %d of %d polls, want 2 (1 in %d)", traced, n, lightTraceEvery)
	}

	// A propagated trace is never sampled out at ingest.
	resp := c.doRaw("GET", "/api/queries/q-missing", "", map[string]string{
		"traceparent": "00-" + strings.Repeat("cd", 16) + "-00f067aa0ba902b7-01",
	})
	resp.Body.Close()
	if resp.Header.Get("X-SQLShare-Trace") == "" {
		t.Fatal("poll with explicit traceparent was not traced")
	}

	// Non-light routes trace every request.
	for i := 0; i < 3; i++ {
		resp := c.doRaw("GET", "/api/datasets", "", nil)
		resp.Body.Close()
		if resp.Header.Get("X-SQLShare-Trace") == "" {
			t.Fatal("query route request was not traced")
		}
	}
}

// TestTraceReportsCacheDisposition: a query's trace says how the result
// cache took part. The catalog tags the query.job span, not the request
// root, so the summary must take the disposition from wherever it is.
func TestTraceReportsCacheDisposition(t *testing.T) {
	c, srv := seedQueryData(t)
	srv.ConfigureCache(1<<20, 0)
	for _, want := range []string{"miss", "hit"} {
		res := c.query("SELECT station FROM readings")
		if res["cache"] != want {
			t.Fatalf("job cache = %v, want %s", res["cache"], want)
		}
		if tr := fetchTrace(t, c, res["traceId"].(string)); tr["cache"] != want {
			t.Fatalf("trace cache = %v, want %s", tr["cache"], want)
		}
	}
}

// TestInsightsUsageReconciles: every view of the finished queries — the
// usage accounts, the Prometheus series and /debug/vars, the summary, the
// recent log and the span traces — reports the same per-user
// query/failure/cache-hit/row totals, because one fold of each entry feeds
// them all: plain runs, a cache hit, an EXPLAIN ANALYZE, a parse failure
// and a row-limit abort, every statement over a 1ns slow threshold.
func TestInsightsUsageReconciles(t *testing.T) {
	c, srv := seedQueryData(t)
	srv.ConfigureCache(1<<20, 0) // so the repeated query hits
	if err := srv.ConfigureHistory(history.Config{SlowThreshold: time.Nanosecond}); err != nil {
		t.Fatal(err)
	}

	wantRows := 0
	for _, sql := range []string{
		"SELECT station FROM readings",                                 // 3 rows
		"SELECT station FROM readings",                                 // cache hit: 3 rows
		"SELECT station FROM readings WHERE depth > 3",                 // 2 rows
		"EXPLAIN ANALYZE SELECT station FROM readings WHERE depth > 3", // the operator tree
	} {
		res := c.query(sql)
		if res["status"] != "done" {
			t.Fatalf("query %q ended %v", sql, res)
		}
		wantRows += len(res["rows"].([]any))
	}
	// One failing query: parse errors are accounted too.
	code, sub := c.do("POST", "/api/queries", map[string]string{"sql": "SELECT nope FROM missing"})
	if code != http.StatusAccepted {
		t.Fatalf("submit failing query: %d", code)
	}
	if final := c.poll(sub["id"].(string)); final["status"] != "failed" {
		t.Fatalf("expected failure, got %v", final)
	}
	// One row-limit abort: a failure, and the one aborted query.
	srv.SetMaxRows(2)
	if code, sub = c.do("POST", "/api/queries", map[string]string{"sql": "SELECT depth FROM readings"}); code != http.StatusAccepted {
		t.Fatalf("submit aborting query: %d", code)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		code, final := c.do("GET", "/api/queries/"+sub["id"].(string), nil)
		if final["status"] == "failed" && code == http.StatusUnprocessableEntity {
			break
		}
		if final["status"] != "running" || time.Now().After(deadline) {
			t.Fatalf("expected a row-limit abort, got %d %v", code, final)
		}
	}
	srv.SetMaxRows(0)

	// Every view folds the same six log entries; each must report these
	// totals.
	type totals struct{ queries, failed, cacheHits, rows int }
	want := totals{queries: 6, failed: 2, cacheHits: 1, rows: wantRows}
	check := func(view string, got totals) {
		t.Helper()
		if got != want {
			t.Errorf("%s reports %+v, want %+v", view, got, want)
		}
	}
	num := func(v any) int { f, _ := v.(float64); return int(f) }

	code, body := c.do("GET", "/api/insights/usage", nil)
	if code != http.StatusOK {
		t.Fatalf("GET /api/insights/usage: %d %v", code, body)
	}
	var alice map[string]any
	for _, raw := range body["users"].([]any) {
		u := raw.(map[string]any)
		if u["user"] == "alice" {
			alice = u
		}
	}
	if alice == nil {
		t.Fatalf("alice missing from usage: %v", body)
	}
	check("/api/insights/usage", totals{num(alice["queries"]), num(alice["failed"]), num(alice["cacheHits"]), num(alice["rows"])})
	if len(body["templates"].([]any)) == 0 {
		t.Fatal("usage snapshot has no per-template rows")
	}

	// The same totals back the Prometheus series, per user and overall.
	_, metrics := c.fetchText("/metrics")
	if !strings.Contains(metrics, fmt.Sprintf(`sqlshare_user_rows_total{user="alice"} %d`, wantRows)) {
		t.Errorf("/metrics user rows series disagrees with usage snapshot")
	}
	series := func(name string) int {
		for _, line := range strings.Split(metrics, "\n") {
			if v, ok := strings.CutPrefix(line, name+" "); ok {
				n, _ := strconv.Atoi(v)
				return n
			}
		}
		t.Errorf("/metrics has no %s series", name)
		return -1
	}
	check("/metrics", totals{
		series("sqlshare_queries_total"), series("sqlshare_queries_failed_total"),
		series("sqlshare_cache_hits_total"), series("sqlshare_query_rows_returned_total"),
	})
	if got := series("sqlshare_queries_aborted_total"); got != 1 {
		t.Errorf("sqlshare_queries_aborted_total = %d, want 1", got)
	}
	if records, queries := series("sqlshare_history_records_total"), series("sqlshare_queries_total"); records != queries {
		t.Errorf("sqlshare_history_records_total = %d, sqlshare_queries_total = %d", records, queries)
	}
	slowTotal := 0
	for _, line := range strings.Split(metrics, "\n") {
		if strings.HasPrefix(line, "sqlshare_slow_queries_total{") {
			n, _ := strconv.Atoi(line[strings.LastIndexByte(line, ' ')+1:])
			slowTotal += n
		}
	}

	_, body = c.do("GET", "/api/insights/summary", nil)
	sum := body["summary"].(map[string]any)
	check("/api/insights/summary", totals{num(sum["queries"]), num(sum["failed"]), num(sum["cacheHits"]), num(sum["rowsReturned"])})
	if slowTotal != num(sum["slowStatements"]) || slowTotal != want.queries {
		t.Errorf("sqlshare_slow_queries_total sums to %d, summary.slowStatements = %v, want %d",
			slowTotal, sum["slowStatements"], want.queries)
	}

	// /debug/vars renders the sqlshare_user_* series from the same accounts
	// as the usage snapshot.
	var vars map[string]json.RawMessage
	_, text := c.fetchText("/debug/vars")
	if err := json.Unmarshal([]byte(text), &vars); err != nil {
		t.Fatalf("/debug/vars: %v", err)
	}
	_, body = c.do("GET", "/api/insights/usage", nil)
	for name, field := range map[string]string{
		"sqlshare_user_cpu_seconds_total": "cpuSeconds",
		"sqlshare_user_rows_total":        "rows",
		"sqlshare_user_bytes_total":       "bytes",
	} {
		var perUser map[string]float64
		if err := json.Unmarshal(vars[name], &perUser); err != nil {
			t.Fatalf("/debug/vars %s: %v", name, err)
		}
		users := body["users"].([]any)
		if len(perUser) != len(users) {
			t.Errorf("/debug/vars %s has %d users, the usage snapshot %d", name, len(perUser), len(users))
		}
		for _, raw := range users {
			u := raw.(map[string]any)
			if got, want := perUser[u["user"].(string)], u[field].(float64); got != want {
				t.Errorf("/debug/vars %s{user=%q} = %v, usage snapshot %s = %v", name, u["user"], got, field, want)
			}
		}
	}

	_, body = c.do("GET", "/api/insights/recent", nil)
	var recent totals
	for _, raw := range body["records"].([]any) {
		rec := raw.(map[string]any)
		recent.queries++
		if rec["error"] != nil {
			recent.failed++
		}
		if rec["cacheHit"] == true {
			recent.cacheHits++
		}
		recent.rows += num(rec["rowsReturned"])
	}
	check("/api/insights/recent", recent)

	// The span view: one POST /api/queries trace per query, an error status
	// on the failed one, the cache disposition on the hit, and the rows on
	// whichever phase produced them (execute, or cache.probe on a hit). The
	// last job's trace finalizes a beat after its status flips to failed.
	var traced totals
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		traced = totals{}
		_, body = c.do("GET", "/api/traces?n=100", nil)
		for _, raw := range body["traces"].([]any) {
			s := raw.(map[string]any)
			if s["name"] != "POST /api/queries" {
				continue
			}
			traced.queries++
			if s["status"] == "error" {
				traced.failed++
			}
			tr := fetchTrace(t, c, s["traceId"].(string))
			if tr["cache"] == "hit" {
				traced.cacheHits++
			}
			for _, raw := range tr["spans"].([]any) {
				if sp := raw.(map[string]any); sp["name"] == "execute" || sp["name"] == "cache.probe" {
					traced.rows += num(sp["rows"])
				}
			}
		}
		if traced.queries >= want.queries || time.Now().After(deadline) {
			break
		}
	}
	check("/api/traces", traced)
}

// TestDumpTracesFlushesRetainedTrees: the graceful-drain hook writes every
// retained span tree as one JSON object per line.
func TestDumpTracesFlushesRetainedTrees(t *testing.T) {
	c, srv := seedQueryData(t)
	if res := c.query("SELECT station FROM readings"); res["status"] != "done" {
		t.Fatalf("query ended %v", res)
	}

	path := filepath.Join(t.TempDir(), "traces.jsonl")
	n, err := srv.DumpTraces(path)
	if err != nil || n == 0 {
		t.Fatalf("DumpTraces = %d, %v", n, err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	if len(lines) != n {
		t.Fatalf("%d JSONL lines for %d dumped traces", len(lines), n)
	}
	sawJob := false
	for _, line := range lines {
		var tr struct {
			ID    string `json:"traceId"`
			Spans []struct {
				Name string `json:"name"`
			} `json:"spans"`
		}
		if err := json.Unmarshal([]byte(line), &tr); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		if len(tr.ID) != 32 || len(tr.Spans) == 0 {
			t.Fatalf("dumped trace malformed: %s", line)
		}
		for _, sp := range tr.Spans {
			if sp.Name == "query.job" {
				sawJob = true
			}
		}
	}
	if !sawJob {
		t.Fatal("no dumped trace covers a query job")
	}
}
