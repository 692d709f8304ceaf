package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sqlshare/internal/catalog"
)

type client struct {
	t    *testing.T
	srv  *httptest.Server
	user string
}

func newTestServer(t *testing.T) (*client, *catalog.Catalog) {
	c, cat, _ := newTestServerObs(t)
	return c, cat
}

// newTestServerObs also returns the Server so tests can reach the metrics
// registry and observability knobs. Request logs are discarded.
func newTestServerObs(t *testing.T) (*client, *catalog.Catalog, *Server) {
	t.Helper()
	cat := catalog.New()
	srv := New(cat)
	srv.SetLogger(slog.New(slog.NewTextHandler(io.Discard, nil)))
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return &client{t: t, srv: ts, user: "alice"}, cat, srv
}

func (c *client) as(user string) *client {
	return &client{t: c.t, srv: c.srv, user: user}
}

func (c *client) do(method, path string, body any) (int, map[string]any) {
	c.t.Helper()
	var rd *bytes.Reader
	switch b := body.(type) {
	case nil:
		rd = bytes.NewReader(nil)
	case string:
		rd = bytes.NewReader([]byte(b))
	default:
		data, err := json.Marshal(b)
		if err != nil {
			c.t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, c.srv.URL+path, rd)
	if err != nil {
		c.t.Fatal(err)
	}
	if c.user != "" {
		req.Header.Set(userHeader, c.user)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&out)
	return resp.StatusCode, out
}

func (c *client) doList(method, path string) (int, []map[string]any) {
	c.t.Helper()
	req, err := http.NewRequest(method, c.srv.URL+path, nil)
	if err != nil {
		c.t.Fatal(err)
	}
	req.Header.Set(userHeader, c.user)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	var out []map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&out)
	return resp.StatusCode, out
}

// uploadCSV stages and ingests a CSV, returning the create response.
func (c *client) uploadCSV(name, csv string) map[string]any {
	c.t.Helper()
	code, staged := c.do("POST", "/api/staging", csv)
	if code != http.StatusCreated {
		c.t.Fatalf("stage: %d %v", code, staged)
	}
	code, created := c.do("POST", "/api/datasets", map[string]any{
		"name": name, "stagedId": staged["stagedId"],
	})
	if code != http.StatusCreated {
		c.t.Fatalf("create: %d %v", code, created)
	}
	return created
}

// poll waits for an async query to finish and returns its final body.
func (c *client) poll(id string) map[string]any {
	c.t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		code, body := c.do("GET", "/api/queries/"+id, nil)
		if code != http.StatusOK {
			c.t.Fatalf("poll: %d %v", code, body)
		}
		if body["status"] != "running" {
			return body
		}
		time.Sleep(2 * time.Millisecond)
	}
	c.t.Fatal("query did not finish")
	return nil
}

func (c *client) query(sql string) map[string]any {
	c.t.Helper()
	code, body := c.do("POST", "/api/queries", map[string]string{"sql": sql})
	if code != http.StatusAccepted {
		c.t.Fatalf("submit: %d %v", code, body)
	}
	return c.poll(body["id"].(string))
}

func mustCreateUser(t *testing.T, c *client, name string) {
	t.Helper()
	code, body := c.do("POST", "/api/users", map[string]string{"name": name, "email": name + "@uw.edu"})
	if code != http.StatusCreated {
		t.Fatalf("create user: %d %v", code, body)
	}
}

func TestUploadQueryRoundTrip(t *testing.T) {
	c, _ := newTestServer(t)
	mustCreateUser(t, c, "alice")
	created := c.uploadCSV("water", "station,val\ns1,1.5\ns2,2.5\ns3,-999\n")
	ing := created["ingest"].(map[string]any)
	if ing["rows"].(float64) != 3 {
		t.Fatalf("ingest rows = %v", ing["rows"])
	}
	body := c.query("SELECT station FROM water WHERE val > 0")
	if body["status"] != "done" {
		t.Fatalf("query: %v", body)
	}
	rows := body["rows"].([]any)
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestAsyncProtocolReturnsIdentifierImmediately(t *testing.T) {
	c, _ := newTestServer(t)
	mustCreateUser(t, c, "alice")
	c.uploadCSV("d", "a\n1\n")
	code, body := c.do("POST", "/api/queries", map[string]string{"sql": "SELECT * FROM d"})
	if code != http.StatusAccepted {
		t.Fatalf("submit code = %d", code)
	}
	if body["id"] == nil || body["status"] != "running" {
		t.Fatalf("submit body = %v", body)
	}
}

func TestFailedQueryReportsError(t *testing.T) {
	c, _ := newTestServer(t)
	mustCreateUser(t, c, "alice")
	c.uploadCSV("d", "a\n1\n")
	body := c.query("SELECT nope FROM d")
	if body["status"] != "failed" || body["error"] == nil {
		t.Fatalf("body = %v", body)
	}
}

func TestQueryPlanEndpoint(t *testing.T) {
	c, _ := newTestServer(t)
	mustCreateUser(t, c, "alice")
	c.uploadCSV("d", "a,b\n1,2\n3,4\n")
	code, sub := c.do("POST", "/api/queries", map[string]string{"sql": "SELECT a FROM d WHERE b > 1"})
	if code != http.StatusAccepted {
		t.Fatal(code)
	}
	id := sub["id"].(string)
	c.poll(id)
	code, plan := c.do("GET", "/api/queries/"+id+"/plan", nil)
	if code != http.StatusOK {
		t.Fatalf("plan: %d %v", code, plan)
	}
	if plan["plan"] == nil || plan["query"] == nil {
		t.Fatalf("plan body = %v", plan)
	}
}

func TestDatasetMetadataAndPreview(t *testing.T) {
	c, _ := newTestServer(t)
	mustCreateUser(t, c, "alice")
	c.uploadCSV("water", "station,val\ns1,1\n")
	code, ds := c.do("GET", "/api/datasets/alice/water", nil)
	if code != http.StatusOK {
		t.Fatalf("get: %d %v", code, ds)
	}
	if ds["isWrapper"] != true {
		t.Error("upload should be a wrapper view")
	}
	if prev := ds["preview"].([]any); len(prev) != 1 {
		t.Errorf("preview = %v", prev)
	}
	code, _ = c.do("PUT", "/api/datasets/alice/water/meta",
		map[string]any{"description": "sensor data", "tags": []string{"water"}})
	if code != http.StatusOK {
		t.Fatal("meta update failed")
	}
	_, ds = c.do("GET", "/api/datasets/alice/water", nil)
	if ds["description"] != "sensor data" {
		t.Errorf("description = %v", ds["description"])
	}
}

func TestSaveViewEndpoint(t *testing.T) {
	c, _ := newTestServer(t)
	mustCreateUser(t, c, "alice")
	c.uploadCSV("water", "station,val\ns1,1\ns2,2\n")
	code, body := c.do("POST", "/api/datasets", map[string]any{
		"name": "big", "sql": "SELECT * FROM water WHERE val > 1 ORDER BY val",
	})
	if code != http.StatusCreated {
		t.Fatalf("save view: %d %v", code, body)
	}
	ds := body["dataset"].(map[string]any)
	if strings.Contains(ds["sql"].(string), "ORDER BY") {
		t.Error("ORDER BY should be stripped from saved views")
	}
	res := c.query("SELECT * FROM big")
	if len(res["rows"].([]any)) != 1 {
		t.Fatalf("view rows: %v", res["rows"])
	}
}

func TestPermissionsEndpointsAndEnforcement(t *testing.T) {
	c, _ := newTestServer(t)
	mustCreateUser(t, c, "alice")
	mustCreateUser(t, c, "bob")
	c.uploadCSV("water", "a\n1\n")
	bob := c.as("bob")
	body := bob.query("SELECT * FROM [alice.water]")
	if body["status"] != "failed" {
		t.Fatal("bob should be denied")
	}
	code, _ := c.do("PUT", "/api/datasets/alice/water/permissions", map[string]any{"public": true})
	if code != http.StatusOK {
		t.Fatal("permissions update failed")
	}
	body = bob.query("SELECT * FROM [alice.water]")
	if body["status"] != "done" {
		t.Fatalf("bob should read public data: %v", body)
	}
	// Listing shows public datasets to others.
	code, list := bob.doList("GET", "/api/datasets")
	if code != http.StatusOK || len(list) != 1 {
		t.Fatalf("list: %d %v", code, list)
	}
}

func TestShareWithSpecificUser(t *testing.T) {
	c, _ := newTestServer(t)
	mustCreateUser(t, c, "alice")
	mustCreateUser(t, c, "bob")
	mustCreateUser(t, c, "carol")
	c.uploadCSV("d", "a\n1\n")
	code, _ := c.do("PUT", "/api/datasets/alice/d/permissions", map[string]any{"shareWith": []string{"bob"}})
	if code != http.StatusOK {
		t.Fatal("share failed")
	}
	if body := c.as("bob").query("SELECT * FROM [alice.d]"); body["status"] != "done" {
		t.Fatalf("bob: %v", body)
	}
	if body := c.as("carol").query("SELECT * FROM [alice.d]"); body["status"] != "failed" {
		t.Fatalf("carol: %v", body)
	}
}

func TestAppendEndpoint(t *testing.T) {
	c, _ := newTestServer(t)
	mustCreateUser(t, c, "alice")
	c.uploadCSV("logs", "a,b\n1,2\n")
	c.uploadCSV("logs_feb", "a,b\n3,4\n5,6\n")
	code, body := c.do("POST", "/api/datasets/alice/logs/append", map[string]string{"source": "logs_feb"})
	if code != http.StatusOK {
		t.Fatalf("append: %d %v", code, body)
	}
	res := c.query("SELECT * FROM logs")
	if len(res["rows"].([]any)) != 3 {
		t.Fatalf("rows after append: %v", res["rows"])
	}
}

func TestMaterializeEndpoint(t *testing.T) {
	c, _ := newTestServer(t)
	mustCreateUser(t, c, "alice")
	c.uploadCSV("d", "a\n1\n2\n")
	code, body := c.do("POST", "/api/datasets/alice/d/materialize", map[string]string{"as": "snap"})
	if code != http.StatusCreated {
		t.Fatalf("materialize: %d %v", code, body)
	}
	res := c.query("SELECT * FROM snap")
	if len(res["rows"].([]any)) != 2 {
		t.Fatalf("snapshot rows: %v", res["rows"])
	}
}

func TestDeleteEndpoint(t *testing.T) {
	c, _ := newTestServer(t)
	mustCreateUser(t, c, "alice")
	c.uploadCSV("d", "a\n1\n")
	code, _ := c.do("DELETE", "/api/datasets/alice/d", nil)
	if code != http.StatusOK {
		t.Fatal("delete failed")
	}
	if body := c.query("SELECT * FROM d"); body["status"] != "failed" {
		t.Fatal("deleted dataset should not be queryable")
	}
}

func TestMissingAuthHeader(t *testing.T) {
	c, _ := newTestServer(t)
	noUser := c.as("")
	code, _ := noUser.do("POST", "/api/queries", map[string]string{"sql": "SELECT 1"})
	if code != http.StatusUnauthorized {
		t.Fatalf("code = %d", code)
	}
}

func TestJobIsolationBetweenUsers(t *testing.T) {
	c, _ := newTestServer(t)
	mustCreateUser(t, c, "alice")
	mustCreateUser(t, c, "bob")
	c.uploadCSV("d", "a\n1\n")
	code, sub := c.do("POST", "/api/queries", map[string]string{"sql": "SELECT * FROM d"})
	if code != http.StatusAccepted {
		t.Fatal(code)
	}
	id := sub["id"].(string)
	c.poll(id)
	code, _ = c.as("bob").do("GET", "/api/queries/"+id, nil)
	if code != http.StatusForbidden {
		t.Fatalf("bob polling alice's query: %d", code)
	}
}

func TestStagedFileRetry(t *testing.T) {
	c, _ := newTestServer(t)
	mustCreateUser(t, c, "alice")
	_, staged := c.do("POST", "/api/staging", "a,b\n1,2\n")
	id := staged["stagedId"].(string)
	// First attempt with a clashing name fails after we create it...
	c.uploadCSV("dup", "x\n1\n")
	code, _ := c.do("POST", "/api/datasets", map[string]any{"name": "dup", "stagedId": id})
	if code == http.StatusCreated {
		t.Fatal("duplicate name should fail")
	}
	// ...but the staged file survives and the retry under a new name works
	// without re-uploading.
	code, body := c.do("POST", "/api/datasets", map[string]any{"name": "dup2", "stagedId": id})
	if code != http.StatusCreated {
		t.Fatalf("retry: %d %v", code, body)
	}
}

// TestStagedFileReleasedOnCreate: a staged upload survives a failed ingest
// and a failed create, for the retry (§3.1), and is released once a dataset
// has been created from it, so upload-and-create cycles leave nothing
// staged.
func TestStagedFileReleasedOnCreate(t *testing.T) {
	c, _, srv := newTestServerObs(t)
	mustCreateUser(t, c, "alice")
	staged := func(csv string) string {
		t.Helper()
		code, body := c.do("POST", "/api/staging", csv)
		if code != http.StatusCreated {
			t.Fatalf("stage: %d %v", code, body)
		}
		return body["stagedId"].(string)
	}
	create := func(name, id string) int {
		t.Helper()
		code, _ := c.do("POST", "/api/datasets", map[string]any{"name": name, "stagedId": id})
		return code
	}

	for i := 0; i < 8; i++ {
		c.uploadCSV(fmt.Sprintf("cycle%d", i), "a,b\n1,2\n")
	}
	srv.staged.mu.Lock()
	left := len(srv.staged.files)
	srv.staged.mu.Unlock()
	if left != 0 {
		t.Fatalf("%d files staged after 8 upload-and-create cycles, want 0", left)
	}

	empty := staged("")
	for i := 0; i < 2; i++ {
		if code := create("e", empty); code != http.StatusBadRequest {
			t.Fatalf("ingest of an empty file, attempt %d: %d, want 400", i+1, code)
		}
	}

	c.uploadCSV("taken", "x\n1\n")
	id := staged("a,b\n1,2\n")
	if code := create("taken", id); code == http.StatusCreated {
		t.Fatal("create under a taken name succeeded")
	}
	if code := create("fresh", id); code != http.StatusCreated {
		t.Fatalf("retry after a failed create: %d", code)
	}
	if code := create("again", id); code != http.StatusNotFound {
		t.Fatalf("reusing a consumed staged id: %d, want 404", code)
	}
}

func TestUnknownStagedID(t *testing.T) {
	c, _ := newTestServer(t)
	mustCreateUser(t, c, "alice")
	code, _ := c.do("POST", "/api/datasets", map[string]any{"name": "x", "stagedId": "stage-999"})
	if code != http.StatusNotFound {
		t.Fatalf("code = %d", code)
	}
}

func TestConcurrentQueries(t *testing.T) {
	c, _ := newTestServer(t)
	mustCreateUser(t, c, "alice")
	c.uploadCSV("d", "a\n1\n2\n3\n")
	ids := make([]string, 8)
	for i := range ids {
		code, sub := c.do("POST", "/api/queries", map[string]string{
			"sql": fmt.Sprintf("SELECT COUNT(*) FROM d WHERE a >= %d", i%3),
		})
		if code != http.StatusAccepted {
			t.Fatal(code)
		}
		ids[i] = sub["id"].(string)
	}
	for _, id := range ids {
		if body := c.poll(id); body["status"] != "done" {
			t.Fatalf("job %s: %v", id, body)
		}
	}
}

func TestSearchAndUsageEndpoints(t *testing.T) {
	c, _ := newTestServer(t)
	mustCreateUser(t, c, "alice")
	c.uploadCSV("ocean_data", "a\n1\n")
	c.uploadCSV("forest_data", "a\n1\n")
	code, _ := c.do("PUT", "/api/datasets/alice/ocean_data/meta",
		map[string]any{"description": "marine sensors", "tags": []string{"ocean"}})
	if code != http.StatusOK {
		t.Fatal("meta update failed")
	}
	code, list := c.doList("GET", "/api/datasets?q=ocean")
	if code != http.StatusOK || len(list) != 1 {
		t.Fatalf("search: %d %v", code, list)
	}
	if list[0]["name"] != "ocean_data" {
		t.Fatalf("search hit = %v", list[0]["name"])
	}
	code, usage := c.do("GET", "/api/usage", nil)
	if code != http.StatusOK {
		t.Fatalf("usage: %d %v", code, usage)
	}
	if usage["usedBytes"].(float64) <= 0 {
		t.Fatalf("usage bytes = %v", usage["usedBytes"])
	}
}
