package server

import (
	"net/http"
	"testing"
	"time"
)

// TestQueryStatusLongPoll: ?wait= blocks until the job finishes and returns
// the terminal state in one round trip.
func TestQueryStatusLongPoll(t *testing.T) {
	c, _ := newTestServer(t)
	mustCreateUser(t, c, "alice")
	c.uploadCSV("nums", "a,b\n1,2\n3,4\n")

	code, body := c.do("POST", "/api/queries", map[string]string{"sql": "SELECT a FROM [nums]"})
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %v", code, body)
	}
	id := body["id"].(string)
	code, body = c.do("GET", "/api/queries/"+id+"?wait=5s", nil)
	if code != http.StatusOK {
		t.Fatalf("long-poll: %d %v", code, body)
	}
	if body["status"] != "done" {
		t.Fatalf("long-poll returned status %v, want done", body["status"])
	}
	if body["rows"] == nil {
		t.Fatal("long-poll terminal response missing rows")
	}

	// A second long-poll on a finished job returns immediately.
	start := time.Now()
	code, body = c.do("GET", "/api/queries/"+id+"?wait=10s", nil)
	if code != http.StatusOK || body["status"] != "done" {
		t.Fatalf("re-poll: %d %v", code, body)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("long-poll on finished job blocked %v", elapsed)
	}
}

// TestQueryStatusLongPollInvalid: malformed and negative waits are 400s.
func TestQueryStatusLongPollInvalid(t *testing.T) {
	c, _ := newTestServer(t)
	mustCreateUser(t, c, "alice")
	c.uploadCSV("nums", "a\n1\n")
	code, body := c.do("POST", "/api/queries", map[string]string{"sql": "SELECT * FROM [nums]"})
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %v", code, body)
	}
	id := body["id"].(string)
	for _, w := range []string{"bogus", "-1s", "10"} {
		if code, _ := c.do("GET", "/api/queries/"+id+"?wait="+w, nil); code != http.StatusBadRequest {
			t.Errorf("wait=%q: got %d, want 400", w, code)
		}
	}
}
