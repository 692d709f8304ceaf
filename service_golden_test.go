package sqlshare

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"sqlshare/internal/history"
	"sqlshare/internal/server"
	"sqlshare/internal/synth"
)

var (
	updateService = flag.Bool("update-service", false, "rewrite "+serviceGoldenFile+" from the current service")
	dumpService   = flag.String("dump", "", "write TestServiceGoldenSeed1's masked bodies to `DIR`/service_seed1_bodies.txt")
)

const serviceGoldenFile = "testdata/service_seed1.txt"

// volatileKey matches a JSON member whose value is a wall-clock reading or a
// random identifier: durations, start instants, trace and span ids.
var volatileKey = regexp.MustCompile(`"(wallMillis|wallNs|compileMillis|compileNs|executeMillis|executeNs|runtimeMillis|runtimeNs|durationMs|elapsedMs|startUs|start|startedAt|traceId|spanId|parentId)":("[^"]*"|[-0-9.eE+]+)`)

// traceIDPath matches the random trace id in a /api/traces/{id} path.
var traceIDPath = regexp.MustCompile(`[0-9a-f]{32}$`)

// timedSeries matches the /metrics sample lines whose values are wall-clock
// measurements: every sample of a `_seconds` family but its `_count` (the
// latency histograms' buckets and sums, sqlshare_user_cpu_seconds_total,
// sqlshare_overload_template_p99_seconds and
// sqlshare_process_start_time_seconds), and
// sqlshare_http_response_bytes_total, which sums the lengths of bodies that
// print wall times. How many observations a histogram took is not timing,
// so the `_count` lines stay.
var timedSeries = regexp.MustCompile(`(?m)^(sqlshare_[a-z0-9_]*_seconds(_bucket|_sum|_total)?|sqlshare_http_response_bytes_total)[{ ][^\n]*\n`)

// maskVolatile is the one masking rule of the service golden (a digest
// line's /api/traces/{id} path reads "#" for its id too): in a JSON body
// every volatile member's value reads "#", and a result set with a
// wallMs column (EXPLAIN ANALYZE) reads "#" in that column; in /metrics
// text the timed series are left out. Everything else is compared byte for
// byte.
func maskVolatile(path string, body []byte) []byte {
	if strings.HasPrefix(path, "/metrics") {
		return timedSeries.ReplaceAll(body, nil)
	}
	body = volatileKey.ReplaceAll(body, []byte(`"$1":"#"`))
	if !bytes.Contains(body, []byte(`"wallMs"`)) {
		return body
	}
	var out map[string]json.RawMessage
	var cols []string
	var rows [][]string
	if json.Unmarshal(body, &out) != nil || json.Unmarshal(out["columns"], &cols) != nil || json.Unmarshal(out["rows"], &rows) != nil {
		return body
	}
	for i, c := range cols {
		if c == "wallMs" {
			for _, r := range rows {
				r[i] = "#"
			}
		}
	}
	out["rows"], _ = json.Marshal(rows)
	masked, _ := json.Marshal(out)
	return append(masked, '\n')
}

// serviceReplay drives one in-process server request by request, each
// served to completion (middleware included) before the next is sent, and
// keeps one digest line per request.
type serviceReplay struct {
	t       *testing.T
	srv     *server.Server
	n       int
	digests strings.Builder
	bodies  strings.Builder
}

func (g *serviceReplay) do(method, path, user, body string) (int, []byte) {
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	if user != "" {
		req.Header.Set("X-SQLShare-User", user)
	}
	rec := httptest.NewRecorder()
	g.srv.ServeHTTP(rec, req)
	raw := rec.Body.Bytes()
	masked := maskVolatile(path, raw)
	path = traceIDPath.ReplaceAllString(path, "#")
	g.n++
	sum := sha256.Sum256(masked)
	fmt.Fprintf(&g.digests, "%05d %s %s %d %x\n", g.n, method, path, rec.Code, sum[:8])
	if *dumpService != "" {
		fmt.Fprintf(&g.bodies, "### %05d %s %s %d\n%s\n", g.n, method, path, rec.Code, bytes.TrimSuffix(masked, []byte("\n")))
	}
	return rec.Code, raw
}

// query submits sql at DOP 1 and reads the job's status (waiting for it to
// end), its /plan and its /trace. Before /plan it waits for the submit's
// trace to be filed: the job releases its hold on that trace after it ends,
// so without the wait the trace list's order would depend on scheduling.
func (g *serviceReplay) query(user, sql string) {
	req, _ := json.Marshal(map[string]any{"sql": sql, "parallelism": 1})
	code, body := g.do(http.MethodPost, "/api/queries", user, string(req))
	if code != http.StatusAccepted {
		return
	}
	var sub struct {
		ID      string `json:"id"`
		TraceID string `json:"traceId"`
	}
	if err := json.Unmarshal(body, &sub); err != nil {
		g.t.Fatal(err)
	}
	g.do(http.MethodGet, "/api/queries/"+sub.ID+"?wait=30s", user, "")
	deadline := time.Now().Add(30 * time.Second)
	for t, _ := g.srv.Traces().Get(sub.TraceID); t == nil; t, _ = g.srv.Traces().Get(sub.TraceID) {
		if time.Now().After(deadline) {
			g.t.Fatalf("trace of %s never filed", sub.ID)
		}
		time.Sleep(20 * time.Microsecond)
	}
	g.do(http.MethodGet, "/api/queries/"+sub.ID+"/plan", user, "")
	g.do(http.MethodGet, "/api/queries/"+sub.ID+"/trace", user, "")
	g.do(http.MethodGet, "/api/traces/"+sub.TraceID, "", "")
}

func datasetPath(full string) string {
	owner, name, _ := strings.Cut(full, ".")
	return "/api/datasets/" + url.PathEscape(owner) + "/" + url.PathEscape(name)
}

// TestServiceGoldenSeed1 replays the seed-1 SQLShare corpus through one
// in-process server (server.New, a 64 MiB result cache, DOP 1, every trace
// retained, no slow-query log) and compares every response with the digest
// committed in testdata/service_seed1.txt, request by request:
//
//   - each statement plain and as EXPLAIN ANALYZE: the submit, status,
//     /plan, /trace and span-tree bodies (or their error codes);
//   - the dataset (preview) bodies of the first 40 datasets;
//   - for the first six statements that read a dataset their user owns: two
//     repeats (the second a cache hit, whose /trace is served_from_cache), a
//     materialization of the dataset, an append of that snapshot to it, and
//     two more repeats (a miss on the new version, then a hit);
//   - the history JSONL lines, GET /api/traces and /metrics.
//
// maskVolatile is the one masking rule. With -dump DIR the masked bodies
// are written out, so two trees' replays can be diffed; when a body moves
// on purpose, regenerate with
//
//	go test -run TestServiceGoldenSeed1 -update-service .
func TestServiceGoldenSeed1(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus replay is not short")
	}
	corpus, _, err := synth.GenerateSQLShare(synth.SQLShareConfig{Seed: 1, Users: 60, TargetQueries: 2000})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(corpus.Catalog)
	srv.SetLogger(slog.New(slog.NewTextHandler(io.Discard, nil)))
	srv.SetParallelism(1)
	srv.ConfigureCache(64<<20, 0)
	srv.ConfigureTraces(0)
	logPath := filepath.Join(t.TempDir(), "history.jsonl")
	if err := srv.ConfigureHistory(history.Config{LogPath: logPath}); err != nil {
		t.Fatal(err)
	}
	g := &serviceReplay{t: t, srv: srv}

	for _, e := range corpus.Entries {
		g.query(e.User, e.SQL)
		g.query(e.User, "EXPLAIN ANALYZE "+e.SQL)
	}
	datasets := corpus.Catalog.Datasets(false)
	for _, ds := range datasets[:min(40, len(datasets))] {
		g.do(http.MethodGet, datasetPath(ds.FullName()), ds.Owner, "")
	}
	mutated := map[string]bool{}
	for _, e := range corpus.Entries {
		if len(mutated) == 6 {
			break
		}
		if e.Err != "" || len(e.Datasets) == 0 {
			continue
		}
		full := e.Datasets[0]
		if owner, _, _ := strings.Cut(full, "."); owner != e.User || mutated[full] {
			continue
		}
		mutated[full] = true
		snapshot := strings.ReplaceAll(strings.TrimPrefix(full, e.User+"."), " ", "_") + "_golden"
		g.query(e.User, e.SQL)
		g.query(e.User, e.SQL)
		g.do(http.MethodPost, datasetPath(full)+"/materialize", e.User, fmt.Sprintf(`{"As":%q}`, snapshot))
		g.do(http.MethodPost, datasetPath(full)+"/append", e.User, fmt.Sprintf(`{"Source":%q}`, snapshot))
		g.query(e.User, e.SQL)
		g.query(e.User, e.SQL)
	}
	srv.History().Close()
	lines, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range bytes.Split(bytes.TrimSuffix(lines, []byte("\n")), []byte("\n")) {
		masked := maskVolatile("jsonl", line)
		g.n++
		sum := sha256.Sum256(masked)
		fmt.Fprintf(&g.digests, "%05d JSONL %d %x\n", g.n, i+1, sum[:8])
		if *dumpService != "" {
			fmt.Fprintf(&g.bodies, "### %05d JSONL %d\n%s\n", g.n, i+1, masked)
		}
	}
	g.do(http.MethodGet, "/api/traces", "", "")
	g.do(http.MethodGet, "/metrics", "", "")

	if *dumpService != "" {
		if err := os.WriteFile(filepath.Join(*dumpService, "service_seed1_bodies.txt"), []byte(g.bodies.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if *updateService {
		if err := os.WriteFile(serviceGoldenFile, []byte(g.digests.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(serviceGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	have := strings.Split(strings.TrimSuffix(g.digests.String(), "\n"), "\n")
	if len(have) != len(want) {
		t.Errorf("%d requests, %s has %d", len(have), serviceGoldenFile, len(want))
	}
	moved := 0
	for i := range min(len(have), len(want)) {
		if have[i] != want[i] {
			if moved++; moved <= 10 {
				t.Errorf("response moved:\n got %s\nwant %s", have[i], want[i])
			}
		}
	}
	if moved > 0 {
		t.Errorf("%d of %d responses differ from %s (rerun with -dump DIR and diff the bodies)", moved, len(have), serviceGoldenFile)
	}
}
