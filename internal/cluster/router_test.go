package cluster_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"sqlshare/internal/cluster"
)

func startRouter(t *testing.T, m *cluster.Map) (*cluster.Router, string) {
	t.Helper()
	rt := cluster.NewRouter(m, nil)
	ts := httptest.NewServer(rt)
	t.Cleanup(ts.Close)
	return rt, ts.URL
}

func createUser(t *testing.T, base, name string) {
	t.Helper()
	status, body, _ := httpDo(t, http.MethodPost, base+"/api/users", name,
		map[string]string{"name": name, "email": name + "@uw.edu"}, nil)
	if status != http.StatusCreated {
		t.Fatalf("create user %s: %d %s", name, status, body)
	}
}

// TestRouterStaleReadBound is the stale-read bound: once a write is acked
// on the primary, a read pinned at the write's LSN watermark NEVER returns
// pre-write state — not even against a replica whose replication link is
// severed. The lagging replica refuses (409 replica_lagging) and the
// router falls back to the primary, so the client observes its own write.
func TestRouterStaleReadBound(t *testing.T) {
	primary := startNode(t, "n1")
	replica := startNode(t, "n2")

	// The fault shim: replication severed from the start, so the replica
	// stays at LSN 0 while remaining perfectly healthy for serving.
	gate := &gatedTransport{inner: http.DefaultTransport, blocked: true}
	startFollower(t, replica, primary.url(), gate)

	m := cluster.NewMap(0, []string{primary.url()}, [][]string{{replica.url()}})
	_, routerURL := startRouter(t, m)

	// Write through the router: user + dataset land on the primary; the
	// dataset-create response carries the durable LSN watermark.
	createUser(t, routerURL, "alice")
	w := uploadDataset(t, routerURL, "alice", "water", "station,val\ns1,1\ns2,2\n")
	if w == 0 {
		t.Fatal("write watermark is 0")
	}

	// Directly against the lagging replica, a read pinned at the write's
	// LSN must refuse rather than serve pre-write state.
	status, body, _ := httpDo(t, http.MethodPost, replica.url()+"/api/queries", "alice",
		map[string]string{"sql": "SELECT station FROM water"},
		map[string]string{"X-SQLShare-Min-LSN": fmt.Sprint(w)})
	if status != http.StatusConflict {
		t.Fatalf("lagging replica answered pinned read with %d %s, want 409", status, body)
	}
	if !bytes.Contains(body, []byte("replica_lagging")) {
		t.Fatalf("409 body should carry code replica_lagging, got %s", body)
	}

	// Through the router the same read succeeds — the router pins the
	// replica read at the watermark, takes the 409, and falls back to the
	// primary. The result must contain the written rows.
	out := submitAndWait(t, routerURL, "alice", "SELECT station FROM water ORDER BY station", nil)
	rows := queryRows(t, out)
	if len(rows) != 2 || rows[0] != "s1" || rows[1] != "s2" {
		t.Fatalf("pinned read via router returned %v, want the written rows", rows)
	}

	// Heal the link; once the replica reaches the watermark the same
	// pinned read succeeds on the replica itself.
	gate.setBlocked(false)
	waitDurable(t, replica, w)
	out2 := submitAndWait(t, replica.url(), "alice", "SELECT station FROM water ORDER BY station",
		map[string]string{"X-SQLShare-Min-LSN": fmt.Sprint(w)})
	rows2 := queryRows(t, out2)
	if len(rows2) != 2 || rows2[0] != "s1" || rows2[1] != "s2" {
		t.Fatalf("caught-up replica pinned read returned %v", rows2)
	}
}

// scatterFixture starts two single-node shards behind a router (client is
// the router's transport to the nodes; nil = default) and loads one dataset
// per shard. It returns the router URL, the two owners — placed on
// different shards — and a join over both datasets, which userA may run.
func scatterFixture(t *testing.T, client *http.Client) (routerURL, userA, userB, sql string) {
	t.Helper()
	p0 := startNode(t, "s0")
	p1 := startNode(t, "s1")
	m := cluster.NewMap(0, []string{p0.url(), p1.url()}, nil)
	ts := httptest.NewServer(cluster.NewRouter(m, client))
	t.Cleanup(ts.Close)
	routerURL = ts.URL

	// Pick two users the ring places on different shards.
	candidates := []string{"alice", "bob", "carol", "dave", "erin", "frank", "grace", "heidi"}
	for _, u := range candidates {
		switch m.Shard(u).ID {
		case 0:
			if userA == "" {
				userA = u
			}
		case 1:
			if userB == "" {
				userB = u
			}
		}
	}
	if userA == "" || userB == "" {
		t.Fatalf("candidates all hashed to one shard: %v", candidates)
	}

	createUser(t, routerURL, userA)
	createUser(t, routerURL, userB)
	uploadDataset(t, routerURL, userA, "water", "station,val\ns1,1\ns2,2\n")
	uploadDataset(t, routerURL, userB, "prices", "station,price\ns1,10\ns2,20\n")
	// Cross-user access flows through visibility: userB's dataset is made
	// public so userA's scatter-gather fetch passes the owning shard's
	// access check.
	status, body, _ := httpDo(t, http.MethodPut,
		routerURL+"/api/datasets/"+userB+"/prices/permissions", userB,
		map[string]any{"public": true}, nil)
	if status != http.StatusOK {
		t.Fatalf("make public: %d %s", status, body)
	}
	sql = fmt.Sprintf(
		"SELECT a.station, b.price FROM %s.water AS a JOIN %s.prices AS b ON a.station = b.station ORDER BY a.station",
		userA, userB)
	return routerURL, userA, userB, sql
}

// TestRouterScatterGather: a query referencing datasets owned by users on
// two different shards runs on the router-local engine over typed data
// fetched from each owning shard, preserving the async job protocol.
func TestRouterScatterGather(t *testing.T) {
	routerURL, userA, _, sql := scatterFixture(t, nil)
	out := submitAndWait(t, routerURL, userA, sql, nil)
	if mode, _ := out["mode"].(string); mode != "scatter-gather" {
		t.Fatalf("cross-shard query ran in mode %q, want scatter-gather (%v)", mode, out)
	}
	rows := queryRows(t, out)
	if len(rows) != 2 || rows[0] != "s1|10" || rows[1] != "s2|20" {
		t.Fatalf("scatter-gather join returned %v", rows)
	}

	// Both users' single-shard queries still route to their own shard and
	// carry node-prefixed job ids.
	outA := submitAndWait(t, routerURL, userA, "SELECT station FROM water", nil)
	if _, ok := outA["mode"]; ok {
		t.Fatalf("single-shard query should not scatter: %v", outA)
	}
	if len(queryRows(t, outA)) != 2 {
		t.Fatalf("single-shard query rows: %v", outA)
	}
}

// TestRouterScatterGatherOwnerCheck: a scatter-gather job answers only its
// submitter. The router's own status renderer used to skip the owner check,
// so any authenticated user could read another user's cross-shard result.
func TestRouterScatterGatherOwnerCheck(t *testing.T) {
	routerURL, userA, userB, sql := scatterFixture(t, nil)
	out := submitAndWait(t, routerURL, userA, sql, nil)
	if len(queryRows(t, out)) != 2 {
		t.Fatalf("owner's poll: %v", out)
	}
	id := out["id"].(string)
	for _, path := range []string{"", "/plan", "/trace"} {
		status, body, _ := httpDo(t, http.MethodGet, routerURL+"/api/queries/"+id+path, userB, nil, nil)
		if status != http.StatusForbidden || bytes.Contains(body, []byte("rows")) {
			t.Fatalf("GET %s%s as another user: %d %s, want 403 and no result", id, path, status, body)
		}
	}
}

// holdData is a router→node transport that parks every typed-data fetch
// until its request is canceled, keeping a scatter-gather job in flight.
type holdData struct{ fetching chan struct{} }

func (h holdData) RoundTrip(req *http.Request) (*http.Response, error) {
	if !strings.HasSuffix(req.URL.Path, "/data") {
		return http.DefaultTransport.RoundTrip(req)
	}
	select {
	case h.fetching <- struct{}{}:
	default:
	}
	<-req.Context().Done()
	return nil, req.Context().Err()
}

// TestRouterScatterGatherKill: killing a scatter-gather job ends it as
// "killed" — it used to surface as a plain failure — and, like on a node,
// a job that is no longer running cannot be killed again.
func TestRouterScatterGatherKill(t *testing.T) {
	hold := holdData{fetching: make(chan struct{}, 1)}
	routerURL, userA, _, sql := scatterFixture(t, &http.Client{Transport: hold})
	status, body, _ := httpDo(t, http.MethodPost, routerURL+"/api/queries", userA, map[string]string{"sql": sql}, nil)
	var acc struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &acc); status != http.StatusAccepted || err != nil || acc.ID == "" {
		t.Fatalf("submit: %d %s", status, body)
	}
	<-hold.fetching
	killURL := routerURL + "/api/queries/" + acc.ID + "/kill"
	if status, body, _ = httpDo(t, http.MethodDelete, killURL, userA, nil, nil); status != http.StatusOK {
		t.Fatalf("kill: %d %s", status, body)
	}
	status, body, _ = httpDo(t, http.MethodGet, routerURL+"/api/queries/"+acc.ID+"?wait=10s", userA, nil, nil)
	var out map[string]any
	if err := json.Unmarshal(body, &out); err != nil || status != http.StatusOK || out["status"] != "killed" {
		t.Fatalf("poll after kill: %d %s, want status killed", status, body)
	}
	if status, body, _ = httpDo(t, http.MethodDelete, killURL, userA, nil, nil); status != http.StatusNotFound {
		t.Fatalf("second kill: %d %s, want 404", status, body)
	}
}
