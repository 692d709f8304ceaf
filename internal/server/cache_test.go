package server

import (
	"io"
	"net/http"
	"strings"
	"testing"
)

const cacheTestCSV = "station,val\ns1,1\ns2,2\ns3,3\n"

func TestServerResultCache(t *testing.T) {
	c, _, srv := newTestServerObs(t)
	srv.ConfigureCache(8<<20, 0)
	mustCreateUser(t, c, "alice")
	c.uploadCSV("water", cacheTestCSV)
	const sql = "SELECT station, val FROM water ORDER BY val"

	cold := c.query(sql)
	if cold["cache"] != "miss" {
		t.Fatalf("cold query cache = %v, want miss", cold["cache"])
	}
	warm := c.query(sql)
	if warm["cache"] != "hit" {
		t.Fatalf("warm query cache = %v, want hit", warm["cache"])
	}
	if len(warm["rows"].([]any)) != len(cold["rows"].([]any)) {
		t.Fatalf("row counts differ: %v vs %v", warm["rows"], cold["rows"])
	}

	// no_cache forces execution.
	code, body := c.do("POST", "/api/queries", map[string]any{"sql": sql, "no_cache": true})
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %v", code, body)
	}
	forced := c.poll(body["id"].(string))
	if forced["cache"] != "bypass" {
		t.Fatalf("no_cache query cache = %v, want bypass", forced["cache"])
	}

	// Admin stats reflect the traffic.
	code, stats := c.do("GET", "/api/admin/cache", nil)
	if code != http.StatusOK {
		t.Fatalf("cache stats: %d %v", code, stats)
	}
	if stats["resultHits"].(float64) < 1 || stats["resultMisses"].(float64) < 1 {
		t.Fatalf("stats = %v", stats)
	}

	// A mutation on the dataset invalidates by fencing: next run misses.
	c.uploadCSV("water2", cacheTestCSV)
	code, body = c.do("POST", "/api/datasets/alice/water/append", map[string]string{"source": "water2"})
	if code != http.StatusOK {
		t.Fatalf("append: %d %v", code, body)
	}
	post := c.query(sql)
	if post["cache"] != "miss" {
		t.Fatalf("post-append query cache = %v, want miss", post["cache"])
	}
	if got := len(post["rows"].([]any)); got != 6 {
		t.Fatalf("post-append rows = %d, want 6", got)
	}

	// Flush empties the cache; the next run misses again.
	if code, _ := c.do("DELETE", "/api/admin/cache", nil); code != http.StatusOK {
		t.Fatalf("flush: %d", code)
	}
	if again := c.query(sql); again["cache"] != "miss" {
		t.Fatalf("post-flush query cache = %v, want miss", again["cache"])
	}
}

func TestServerCacheDisabledAnswers409(t *testing.T) {
	c, _, _ := newTestServerObs(t)
	mustCreateUser(t, c, "alice")
	if code, _ := c.do("GET", "/api/admin/cache", nil); code != http.StatusConflict {
		t.Fatalf("stats without cache: %d, want 409", code)
	}
	if code, _ := c.do("DELETE", "/api/admin/cache", nil); code != http.StatusConflict {
		t.Fatalf("flush without cache: %d, want 409", code)
	}
}

func TestServerCacheHitServesNoTrace(t *testing.T) {
	c, _, srv := newTestServerObs(t)
	srv.ConfigureCache(8<<20, 0)
	mustCreateUser(t, c, "alice")
	c.uploadCSV("water", cacheTestCSV)
	const sql = "SELECT station FROM water"
	c.query(sql)
	code, body := c.do("POST", "/api/queries", map[string]string{"sql": sql})
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %v", code, body)
	}
	id := body["id"].(string)
	if got := c.poll(id); got["cache"] != "hit" {
		t.Fatalf("cache = %v, want hit", got["cache"])
	}
	code, trace := c.do("GET", "/api/queries/"+id+"/trace", nil)
	if code != http.StatusNotFound {
		t.Fatalf("trace of cache hit: %d %v, want 404", code, trace)
	}
	if msg, _ := trace["error"].(string); !strings.Contains(msg, "served from cache") {
		t.Fatalf("trace error should explain the cache hit: %q", msg)
	}
	// The plan endpoint still works on hits (plan artifacts ride along on
	// the cached entry).
	if code, _ := c.do("GET", "/api/queries/"+id+"/plan", nil); code != http.StatusOK {
		t.Fatalf("plan of cache hit: %d, want 200", code)
	}
}

func TestCacheMetricsExposed(t *testing.T) {
	c, _, srv := newTestServerObs(t)
	srv.ConfigureCache(8<<20, 0)
	mustCreateUser(t, c, "alice")
	c.uploadCSV("water", cacheTestCSV)
	const sql = "SELECT station FROM water"
	c.query(sql)
	c.query(sql)

	resp, err := http.Get(c.srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	for _, metric := range []string{
		"sqlshare_cache_hits_total 1",
		"sqlshare_cache_misses_total 1",
		"sqlshare_cache_evictions_total 0",
		"sqlshare_cache_bytes",
		"sqlshare_cache_hit_seconds",
	} {
		if !strings.Contains(text, metric) {
			t.Errorf("/metrics missing %q", metric)
		}
	}
}
