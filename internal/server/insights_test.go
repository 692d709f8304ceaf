package server

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"sqlshare/internal/history"
	"sqlshare/internal/synth"
	"sqlshare/internal/workload"
)

// TestInsightsSummaryReflectsQueries is the ISSUE acceptance check:
// queries executed earlier in the same process show up in
// /api/insights/summary.
func TestInsightsSummaryReflectsQueries(t *testing.T) {
	c, _ := seedQueryData(t)
	c.query("SELECT station FROM readings")
	c.query("SELECT station FROM readings WHERE depth > 3")
	// A failed statement counts too.
	code, sub := c.do("POST", "/api/queries", map[string]string{"sql": "SELECT nope FROM readings"})
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %v", code, sub)
	}
	c.poll(sub["id"].(string))

	code, body := c.do("GET", "/api/insights/summary", nil)
	if code != http.StatusOK {
		t.Fatalf("GET summary: %d %v", code, body)
	}
	s, ok := body["summary"].(map[string]any)
	if !ok {
		t.Fatalf("no summary object in %v", body)
	}
	if got := s["queries"].(float64); got != 3 {
		t.Fatalf("summary queries = %v, want 3", got)
	}
	if got := s["failed"].(float64); got != 1 {
		t.Fatalf("summary failed = %v, want 1", got)
	}
	if got := s["users"].(float64); got != 1 {
		t.Fatalf("summary users = %v, want 1", got)
	}
	if got := s["distinctOperators"].(float64); got < 1 {
		t.Fatalf("summary distinctOperators = %v, want >= 1", got)
	}
	if got := body["ring"].(float64); got != 3 {
		t.Fatalf("ring = %v, want 3", got)
	}

	// The operator mix names the scan the queries ran.
	code, body = c.do("GET", "/api/insights/operators", nil)
	if code != http.StatusOK {
		t.Fatalf("GET operators: %d %v", code, body)
	}
	ops := body["operators"].([]any)
	if len(ops) == 0 {
		t.Fatal("empty operator mix")
	}
	// Tables and users sections answer as well.
	for _, section := range []string{"tables", "users", "sessions", "slow", "recent"} {
		if code, body := c.do("GET", "/api/insights/"+section, nil); code != http.StatusOK {
			t.Errorf("GET %s: %d %v", section, code, body)
		}
	}
}

func TestInsightsRequiresUserAndKnownSection(t *testing.T) {
	c, _ := seedQueryData(t)
	if code, _ := c.as("").do("GET", "/api/insights/summary", nil); code != http.StatusUnauthorized {
		t.Errorf("anonymous insights: %d, want 401", code)
	}
	if code, _ := c.do("GET", "/api/insights/bogus", nil); code != http.StatusNotFound {
		t.Errorf("unknown section: %d, want 404", code)
	}
	if code, _ := c.do("GET", "/api/insights/recent?n=x", nil); code != http.StatusBadRequest {
		t.Errorf("bad recent param: %d, want 400", code)
	}
}

// TestConfigureHistoryPersistsToJSONL wires a JSONL log into the server,
// runs queries, and checks the offline replay path reproduces the live
// operator-mix counts — the restart half of the ISSUE acceptance.
func TestConfigureHistoryPersistsToJSONL(t *testing.T) {
	c, _, srv := newTestServerObs(t)
	logPath := filepath.Join(t.TempDir(), "history.jsonl")
	if err := srv.ConfigureHistory(history.Config{
		LogPath:       logPath,
		SlowThreshold: time.Nanosecond, // everything is slow: exercises the metric
	}); err != nil {
		t.Fatal(err)
	}
	mustCreateUser(t, c, "alice")
	c.uploadCSV("readings", "station,depth\nalpha,2.0\nbeta,5.0\ngamma,10.0\n")
	c.query("SELECT station FROM readings")
	c.query("SELECT COUNT(*) AS n FROM readings")
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	live := srv.History().Analyzer().OperatorMix()
	recs, err := history.ReadLog(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("JSONL has %d records, want 2", len(recs))
	}
	replayed := history.Replay(recs, 0, 0).OperatorMix()
	if len(replayed) != len(live) {
		t.Fatalf("operator mix length differs: live %v vs replayed %v", live, replayed)
	}
	for i := range live {
		if live[i].Operator != replayed[i].Operator || live[i].Count != replayed[i].Count {
			t.Errorf("operator mix differs at %d: live %+v vs replayed %+v", i, live[i], replayed[i])
		}
	}
	// The every-statement-is-slow threshold fed the labeled metric.
	if got := srv.Metrics().HistoryRecords.Value(); got != 2 {
		t.Errorf("history_records_total = %d, want 2", got)
	}
	code, text := c.fetchText("/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics: %d", code)
	}
	if !strings.Contains(text, `sqlshare_slow_queries_total{digest="`) {
		t.Errorf("/metrics missing slow-query samples:\n%s", text)
	}
}

// TestInsightsRecentCount: ?n= is a count, not a sentinel — n=0 is the empty
// list and an n past the ring is the ring.
func TestInsightsRecentCount(t *testing.T) {
	c, _ := seedQueryData(t)
	for i := 0; i < 3; i++ {
		c.query(fmt.Sprintf("SELECT station FROM readings WHERE depth > %d", i))
	}
	for _, tc := range []struct {
		query string
		want  int
	}{
		{"", 3}, {"?n=0", 0}, {"?n=2", 2}, {"?n=3", 3}, {"?n=5000", 3},
	} {
		code, body := c.do("GET", "/api/insights/recent"+tc.query, nil)
		records, ok := body["records"].([]any)
		if code != http.StatusOK || !ok || len(records) != tc.want {
			t.Errorf("recent%s: %d, %d records (%v), want %d", tc.query, code, len(records), body["records"], tc.want)
		}
	}
}

// synthServer serves the catalog a seeded synth corpus left behind — its
// users, its datasets, their final state — and returns the corpus.
func synthServer(t *testing.T, queries int) (*client, *Server, *workload.Corpus) {
	t.Helper()
	corpus, _, err := synth.GenerateSQLShare(synth.SQLShareConfig{Seed: 17, Users: 8, TargetQueries: queries})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(corpus.Catalog)
	srv.SetLogger(slog.New(slog.NewTextHandler(io.Discard, nil)))
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return &client{t: t, srv: ts, user: corpus.Entries[0].User}, srv, corpus
}

// viaJSON renders a Go value the way a client sees it.
func viaJSON(t *testing.T, v any) any {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var out any
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestInsightsReconcileWithReplay is ROADMAP item 3's exit at corpus scale,
// the many-query companion of TestInsightsUsageReconciles: a synth slice
// (several users, failures, cache hits) runs over REST against a server
// with a history log, and every live aggregate — the usage accounts included —
// equals the replay of that log, because both are one Fold over one record.
func TestInsightsReconcileWithReplay(t *testing.T) {
	c, srv, corpus := synthServer(t, 300)
	corpus.Catalog.SetClock(time.Now)
	srv.ConfigureCache(1<<20, 0)
	logPath := filepath.Join(t.TempDir(), "history.jsonl")
	if err := srv.ConfigureHistory(history.Config{LogPath: logPath}); err != nil {
		t.Fatal(err)
	}
	// The slice, then its tail again — those repeat as cache hits — with a
	// statement that cannot compile after every 50th.
	n := len(corpus.Entries)
	for i, e := range append(corpus.Entries, corpus.Entries[n-60:]...) {
		c.as(e.User).query(e.SQL)
		if i%50 == 0 {
			c.as(e.User).query("SELECT nope FROM no_such_dataset")
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := history.ReadLog(logPath)
	if err != nil {
		t.Fatal(err)
	}
	replayed := history.Replay(entries, 0, 0)
	sum := replayed.Summarize()
	if sum.Queries < n+60 || sum.Failed == 0 || sum.CacheHits == 0 || sum.Users < 3 {
		t.Fatalf("replayed slice is too plain to reconcile anything: %+v", sum)
	}

	get := func(section string) map[string]any {
		code, body := c.do("GET", "/api/insights/"+section, nil)
		if code != http.StatusOK {
			t.Fatalf("GET %s: %d %v", section, code, body)
		}
		return body
	}
	usage := replayed.Usage()
	for _, view := range []struct {
		name       string
		live, want any
	}{
		{"summary", get("summary")["summary"], sum},
		{"operators", get("operators")["operators"], replayed.OperatorMix()},
		{"tables", get("tables")["tables"], replayed.TableTouches()},
		{"users", get("users")["users"], replayed.UserInsights()},
		{"usage users", get("usage")["users"], usage.Users},
		{"usage templates", get("usage")["templates"], usage.Templates},
	} {
		if want := viaJSON(t, view.want); !reflect.DeepEqual(view.live, want) {
			t.Errorf("%s: live and replayed differ\nlive:     %v\nreplayed: %v", view.name, view.live, want)
		}
	}
}

// TestInsightsSessionsMatchComputeSessions: the live session view and the
// batch census (DESIGN S20) are one sessionizer, so over the same synth
// slice — its multi-year timeline folded into the server's history as the
// catalog would fold it — they report the same sessions.
func TestInsightsSessionsMatchComputeSessions(t *testing.T) {
	c, srv, corpus := synthServer(t, 200)
	for _, e := range corpus.Entries {
		srv.History().Record(e)
	}
	batch := workload.ComputeSessions(corpus, 0)
	if len(batch) < 20 {
		t.Fatalf("only %d sessions in the slice", len(batch))
	}
	code, body := c.do("GET", "/api/insights/sessions", nil)
	if code != http.StatusOK {
		t.Fatalf("GET sessions: %d %v", code, body)
	}
	if want := viaJSON(t, batch); !reflect.DeepEqual(body["sessions"], want) {
		t.Errorf("live and batch sessions differ\nlive:  %v\nbatch: %v", body["sessions"], want)
	}
}
