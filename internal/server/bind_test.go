package server

import (
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"sqlshare/internal/wal"
)

// REST regressions for the one bind → authorize → compile prefix
// (internal/catalog/bind.go): every endpoint that reads data for a user
// answers 403 when that user holds no grant, and a shared view reads its
// owner's datasets whoever queries it.

func datasetNames(t *testing.T, c *client) string {
	t.Helper()
	code, list := c.doList("GET", "/api/datasets")
	if code != http.StatusOK {
		t.Fatalf("list: %d", code)
	}
	var names []string
	for _, ds := range list {
		names = append(names, ds["fullName"].(string))
	}
	return strings.Join(names, " ")
}

func TestStatementEndpointsAuthorizeTheirUser(t *testing.T) {
	alice, _ := newTestServer(t)
	mustCreateUser(t, alice, "alice")
	mustCreateUser(t, alice, "bob")
	alice.uploadCSV("water", "station,val\ns1,1\ns2,2\n") // private
	bob := alice.as("bob")

	for _, tc := range []struct {
		what, path string
		body       map[string]any
	}{
		{"materialize", "/api/datasets/alice/water/materialize", map[string]any{"as": "copy"}},
		{"save view", "/api/datasets", map[string]any{"name": "mine", "sql": "SELECT * FROM [alice.water]"}},
		{"save view over a base table", "/api/datasets", map[string]any{"name": "mine", "sql": "SELECT * FROM [~base:alice.water]"}},
		{"expand", "/api/queries/expand", map[string]any{"sql": "SELECT [s*] FROM [alice.water]"}},
	} {
		code, body := bob.do("POST", tc.path, tc.body)
		if code != http.StatusForbidden {
			t.Errorf("%s of a private dataset: %d %v, want 403", tc.what, code, body)
		}
		if body["dataset"] != nil || body["preview"] != nil || body["sql"] != nil {
			t.Errorf("%s: the refusal carries data: %v", tc.what, body)
		}
	}
	if got := datasetNames(t, bob); got != "" {
		t.Errorf("refused statements left bob the datasets %q", got)
	}
	// With a grant the same calls succeed.
	if code, _ := alice.do("PUT", "/api/datasets/alice/water/permissions", map[string]any{"shareWith": []string{"bob"}}); code != http.StatusOK {
		t.Fatal("share failed")
	}
	if code, body := bob.do("POST", "/api/datasets/alice/water/materialize", map[string]any{"as": "copy"}); code != http.StatusCreated {
		t.Errorf("materialize with a grant: %d %v", code, body)
	}
	if code, body := bob.do("POST", "/api/queries/expand", map[string]any{"sql": "SELECT [s*] FROM [alice.water]"}); code != http.StatusOK || !strings.Contains(body["sql"].(string), "station") {
		t.Errorf("expand with a grant: %d %v", code, body)
	}
}

// A log written before base tables were refused by name may hold a view over
// one. Recovery still applies it; nobody can query through it.
func TestReplayedViewOverBaseTableStaysUnreadable(t *testing.T) {
	dir := t.TempDir()
	alice, d, shutdown := newDurableServer(t, dir)
	mustCreateUser(t, alice, "alice")
	mustCreateUser(t, alice, "bob")
	alice.uploadCSV("water", "station,val\ns1,1\n")
	if err := d.Append(&wal.Record{
		Op: wal.OpSaveView, Time: time.Unix(0, 0),
		SaveView: &wal.SaveView{Owner: "bob", Name: "leak", SQL: "SELECT * FROM [~base:alice.water]"},
	}); err != nil {
		t.Fatal(err)
	}
	shutdown()

	alice, _, _ = newDurableServer(t, dir)
	bob := alice.as("bob")
	body := bob.query("SELECT * FROM leak")
	if body["status"] != "failed" || !strings.Contains(body["error"].(string), "base tables are internal") {
		t.Fatalf("query through a replayed view over a base table: %v", body)
	}
	if code, ds := bob.do("GET", "/api/datasets/bob/leak", nil); code != http.StatusForbidden {
		t.Errorf("GET of the view: %d %v, want 403", code, ds)
	}
}

// The benchmark's point workload: every tenant uses the same short names,
// and a public 2-deep chain written with bare names is read across users.
func TestSharedChainReadsItsOwnersTables(t *testing.T) {
	c, _ := newTestServer(t)
	mustCreateUser(t, c, "p0")
	mustCreateUser(t, c, "p1")
	p0, p1 := c.as("p0"), c.as("p1")
	p0.uploadCSV("sites", "k,v\n1,10\n2,20\n3,30\n")
	p1.uploadCSV("sites", "k,v\n1,-1\n")
	for _, c := range []*client{p0, p1} {
		for _, v := range []map[string]any{
			{"name": "sites_valid", "sql": "SELECT k, v FROM [sites] WHERE v IS NOT NULL"},
			{"name": "sites_pub", "sql": "SELECT k, v FROM [sites_valid]"},
		} {
			if code, body := c.do("POST", "/api/datasets", v); code != http.StatusCreated {
				t.Fatalf("save view: %d %v", code, body)
			}
		}
	}
	if code, _ := p0.do("PUT", "/api/datasets/p0/sites_pub/permissions", map[string]any{"public": true}); code != http.StatusOK {
		t.Fatal("publish failed")
	}
	body := p1.query("SELECT v FROM [p0.sites_pub] WHERE k = 2")
	if body["status"] != "done" {
		t.Fatalf("cross-user read: %v", body)
	}
	if rows := fmt.Sprint(body["rows"]); rows != "[[20]]" {
		t.Fatalf("p1 reading p0.sites_pub got %s, want p0's row [[20]]", rows)
	}
}
