package server

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"sqlshare/internal/catalog"
	"sqlshare/internal/engine"
)

// seedBigData uploads a dataset wide enough that a self-join over a
// low-cardinality key runs long enough to observe and kill.
func seedBigData(t *testing.T, rows int) (*client, *Server) {
	t.Helper()
	c, _, srv := newTestServerObs(t)
	mustCreateUser(t, c, "alice")
	var b strings.Builder
	b.WriteString("id,grp,pad\n")
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&b, "%d,%d,%s\n", i, i%7, strings.Repeat("x", 24))
	}
	c.uploadCSV("big", b.String())
	return c, srv
}

// heavyJoin explodes to rows^2/7 intermediate rows — minutes of work at
// the sizes the tests use, so a kill always lands before completion.
const heavyJoin = "SELECT a.grp, COUNT(*) FROM big a JOIN big b ON a.grp = b.grp GROUP BY a.grp"

// TestKillRunningQueryOverHTTP is the ISSUE acceptance criterion: an
// in-flight DOP>1 query shows up in GET /api/queries/running with live
// progress, DELETE /api/queries/{id}/kill cancels it promptly, the job
// status flips to "killed", and the shared worker pool drains.
func TestKillRunningQueryOverHTTP(t *testing.T) {
	c, _ := seedBigData(t, 20000)

	code, sub := c.do("POST", "/api/queries", map[string]any{
		"sql": heavyJoin, "parallelism": 4,
	})
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %v", code, sub)
	}
	id := sub["id"].(string)

	// Wait until the query is visible in the running list with progress.
	var seen map[string]any
	deadline := time.Now().Add(10 * time.Second)
	for seen == nil {
		if time.Now().After(deadline) {
			t.Fatal("query never appeared in /api/queries/running with progress")
		}
		code, list := c.do("GET", "/api/queries/running", nil)
		if code != http.StatusOK {
			t.Fatalf("running: %d %v", code, list)
		}
		for _, raw := range list["queries"].([]any) {
			q := raw.(map[string]any)
			if q["id"] == id && q["rows"].(float64) > 0 {
				seen = q
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	if seen["user"] != "alice" || seen["dop"].(float64) != 4 {
		t.Fatalf("running entry = %v", seen)
	}
	if seen["sql"].(string) == "" || seen["phase"].(string) == "" {
		t.Fatalf("running entry missing sql/phase: %v", seen)
	}

	killStart := time.Now()
	code, kill := c.do("DELETE", "/api/queries/"+id+"/kill", nil)
	if code != http.StatusOK || kill["killed"] != true {
		t.Fatalf("kill: %d %v", code, kill)
	}
	final := c.poll(id)
	if time.Since(killStart) > 5*time.Second {
		t.Fatalf("kill took %v to unwind", time.Since(killStart))
	}
	if final["status"] != "killed" {
		t.Fatalf("job ended %v, want killed", final)
	}
	if errText, _ := final["error"].(string); !strings.Contains(errText, "killed") {
		t.Fatalf("killed job error = %q", final["error"])
	}

	// The worker pool drains: no leaked workers keep charging the budget.
	for deadline := time.Now().Add(5 * time.Second); engine.PoolBusy() != 0; {
		if time.Now().After(deadline) {
			t.Fatalf("worker pool still busy after kill: %d", engine.PoolBusy())
		}
		time.Sleep(2 * time.Millisecond)
	}
	// And the running list forgets the query.
	if code, list := c.do("GET", "/api/queries/running", nil); code != http.StatusOK || list["count"].(float64) != 0 {
		t.Fatalf("running list not empty after kill: %d %v", code, list)
	}

	// Killing an unwound (or unknown) query answers 404.
	if code, _ := c.do("DELETE", "/api/queries/"+id+"/kill", nil); code != http.StatusNotFound {
		t.Fatalf("kill after unwind: %d, want 404", code)
	}
}

// TestKillRightAfterSubmit: a job is killable from the moment its submit
// answers, so a kill sent with no wait in between answers 200 and the job
// ends killed, whether it was still queued or had started.
func TestKillRightAfterSubmit(t *testing.T) {
	c, _, srv := newTestServerObs(t)
	mustCreateUser(t, c, "alice")
	uploadHeld(c)
	for i := 0; i < 50; i++ {
		killAll(c, submitHeld(c, srv, i))
	}
}

// TestJobKilledWhileQueuedDoesNotRun: a job killed before its runner starts
// ends killed without reaching the catalog, even when its result is cached.
func TestJobKilledWhileQueuedDoesNotRun(t *testing.T) {
	c, _, srv := newTestServerObs(t)
	mustCreateUser(t, c, "alice")
	c.uploadCSV("nums", "n\n1\n2\n")
	const sql = "SELECT COUNT(*) FROM nums"
	if body := c.query(sql); body["status"] != "done" {
		t.Fatalf("warm-up query: %v", body)
	}
	logged := srv.History().Issued()
	j := srv.jobs.Create(context.Background(), "alice", sql, 1, "")
	if err := srv.jobs.Kill(j.ID); err != nil {
		t.Fatal(err)
	}
	srv.runJob(j, func() {}, catalog.QueryOptions{Job: j})
	if _, body := c.do("GET", "/api/queries/"+j.ID, nil); body["status"] != "killed" {
		t.Fatalf("job killed while queued ended %v, want killed", body)
	}
	if n := srv.History().Issued(); n != logged {
		t.Fatalf("a job killed while queued ran: the query log went from %d to %d entries", logged, n)
	}
}

// TestMaxQueryBytesReturns422 is the other acceptance criterion: a query
// whose hash-join working state exceeds -max-query-bytes aborts with
// engine.ErrMemLimit, reported like the row limit as HTTP 422.
func TestMaxQueryBytesReturns422(t *testing.T) {
	// 1 MiB: roomy enough for the base-table scans (~224 KiB each side),
	// far too small for the ~2.3M-row join blowup — the abort lands in the
	// hash-join working state, not the scan.
	c, srv := seedBigData(t, 4000)
	srv.SetMaxQueryBytes(1 << 20)

	code, sub := c.do("POST", "/api/queries", map[string]string{"sql": heavyJoin})
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %v", code, sub)
	}
	id := sub["id"].(string)
	deadline := time.Now().Add(10 * time.Second)
	for {
		code, body := c.do("GET", "/api/queries/"+id, nil)
		if body["status"] != "running" {
			if code != http.StatusUnprocessableEntity {
				t.Fatalf("final: %d %v, want 422", code, body)
			}
			errText, _ := body["error"].(string)
			if !strings.Contains(errText, "memory limit") {
				t.Fatalf("error = %q, want a memory-limit abort", errText)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("query never finished")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// A modest query under the same budget still succeeds.
	body := c.query("SELECT COUNT(*) FROM big")
	if body["status"] != "done" {
		t.Fatalf("small query under budget failed: %v", body)
	}
}

// TestHealthEndpoint exercises the deep health check: build identity,
// uptime, query counters, memory budget and pool occupancy.
func TestHealthEndpoint(t *testing.T) {
	c, srv := seedQueryData(t)
	srv.SetMaxQueryBytes(1 << 30)
	c.query("SELECT station FROM readings")

	code, h := c.do("GET", "/api/health", nil)
	if code != http.StatusOK {
		t.Fatalf("health: %d %v", code, h)
	}
	if h["status"] != "ok" {
		t.Fatalf("status = %v", h["status"])
	}
	if h["version"] == "" || h["go"] == "" || h["startedAt"] == "" {
		t.Fatalf("build identity missing: %v", h)
	}
	if h["uptimeSeconds"].(float64) <= 0 {
		t.Fatalf("uptimeSeconds = %v", h["uptimeSeconds"])
	}
	q := h["queries"].(map[string]any)
	if q["running"].(float64) != 0 || q["started"].(float64) < 1 || q["finished"].(float64) < 1 {
		t.Fatalf("queries = %v", q)
	}
	mem := h["memory"].(map[string]any)
	if mem["maxQueryBytes"].(float64) != float64(1<<30) {
		t.Fatalf("memory = %v", mem)
	}
	pool := h["pool"].(map[string]any)
	if pool["budget"].(float64) < 1 {
		t.Fatalf("pool = %v", pool)
	}
	if _, ok := h["templates"]; !ok {
		t.Fatalf("templates section missing: %v", h)
	}
}

// TestOverloadGaugesExposed checks the running count, the sqlshare_overload_*
// family and the build-info gauge are on the scrape surface.
func TestOverloadGaugesExposed(t *testing.T) {
	c, _ := seedQueryData(t)
	c.query("SELECT station FROM readings")
	code, body := c.fetchText("/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	for _, m := range []string{
		"sqlshare_job_queue_depth",
		"sqlshare_overload_pool_occupancy",
		"sqlshare_overload_inflight_mem_bytes",
		"sqlshare_overload_template_p99_seconds",
		"sqlshare_build_info{",
		"sqlshare_process_start_time_seconds",
	} {
		if !strings.Contains(body, m) {
			t.Errorf("metric %s missing from /metrics", m)
		}
	}
	// A finished query leaves a template behind, so the worst p99 is
	// positive and the running count is back to zero.
	if !strings.Contains(body, "sqlshare_job_queue_depth 0") {
		t.Error("running count nonzero after queries finished")
	}
}

// heldRows sizes the table behind heldQuery: 16 groups of 7,500 rows.
const heldRows = 120000

// uploadHeld uploads the "held" dataset heldQuery reads.
func uploadHeld(c *client) {
	c.t.Helper()
	var b strings.Builder
	b.WriteString("id,grp\n")
	for i := 0; i < heldRows; i++ {
		fmt.Fprintf(&b, "%d,%d\n", i, i%16)
	}
	c.uploadCSV("held", b.String())
}

// heldQuery is a job that runs until it is killed. It joins "held" to
// itself on grp, and its residual never holds (every id is >= 0), so each
// probe row walks a 7,500-row build chain and emits nothing: 900M pairs to
// test, minutes of CPU, over a working state that stops growing once the
// build table is up. The probe is morsel-parallel, so at parallelism > 1 a
// job holds the extra pool workers it was granted for as long as it runs. n
// keeps the texts of concurrent jobs distinct.
func heldQuery(n int) string {
	return fmt.Sprintf("SELECT COUNT(*) FROM held a JOIN held b ON a.grp = b.grp AND a.id + b.id < %d", -1-n)
}

// submitHeld submits heldQuery(n) at parallelism 2 and returns the job id.
// If the test stops early, cleanup kills the job and waits for it to end, so
// no held job outlives its test.
func submitHeld(c *client, srv *Server, n int) string {
	c.t.Helper()
	code, sub := c.do("POST", "/api/queries", map[string]any{"sql": heldQuery(n), "parallelism": 2})
	if code != http.StatusAccepted {
		c.t.Fatalf("submit held job: %d %v", code, sub)
	}
	id := sub["id"].(string)
	c.t.Cleanup(func() {
		// The job is killable from the moment the submit answered, so once
		// Kill returns it ends; ErrNotFound means it already has, as it has
		// when the test killed it.
		_ = srv.jobs.Kill(id)
		if j, err := srv.jobs.Find(id, c.user); err == nil {
			<-j.Done()
		}
	})
	return id
}

// killAll kills running jobs over REST, then long-polls each to its end,
// which it must reach as "killed".
func killAll(c *client, ids ...string) {
	c.t.Helper()
	for _, id := range ids {
		if code, kill := c.do("DELETE", "/api/queries/"+id+"/kill", nil); code != http.StatusOK || kill["killed"] != true {
			c.t.Fatalf("kill %s: %d %v", id, code, kill)
		}
	}
	for _, id := range ids {
		if _, final := c.do("GET", "/api/queries/"+id+"?wait=30s", nil); final["status"] != "killed" {
			c.t.Fatalf("job %s ended %v, want killed", id, final["status"])
		}
	}
}

// metricValue reads the sample of an unlabelled metric from a /metrics body.
func metricValue(t *testing.T, body, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			return f
		}
	}
	t.Fatalf("%s missing from /metrics", name)
	return 0
}

// overloadGauges scrapes /metrics for the load gauges: the running count
// and the pool occupancy.
func overloadGauges(c *client) (depth, occupancy float64) {
	c.t.Helper()
	code, body := c.fetchText("/metrics")
	if code != http.StatusOK {
		c.t.Fatalf("metrics: %d", code)
	}
	return metricValue(c.t, body, "sqlshare_job_queue_depth"),
		metricValue(c.t, body, "sqlshare_overload_pool_occupancy")
}

// healthStatus reads the status field of /api/health.
func healthStatus(c *client) any {
	c.t.Helper()
	code, h := c.do("GET", "/api/health", nil)
	if code != http.StatusOK {
		c.t.Fatalf("health: %d %v", code, h)
	}
	return h["status"]
}

// TestOverloadSignalsUnderHeldLoad holds more jobs than the overload
// threshold allows, each running until killed, and checks that every
// overload signal shows it: the running count and pool occupancy off zero
// on /metrics, and "busy" on /api/health. Killing every
// job returns the gauges to 0 and health to "ok". Each state is one the
// held load must reach; the only waits are deadline-bounded polls for it.
func TestOverloadSignalsUnderHeldLoad(t *testing.T) {
	// Pin the pool budget, so the job count and the memory they hold do not
	// grow with the host.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	c, _, srv := newTestServerObs(t)
	mustCreateUser(t, c, "alice")
	uploadHeld(c)
	// A cap the held jobs never reach (their working state is a few MiB
	// each): should one ever grow, it fails with 422 instead.
	srv.SetMaxQueryBytes(64 << 20)

	n := overloadQueueFactor*runtime.GOMAXPROCS(0) + 1
	ids := make([]string, n)
	for i := range ids {
		ids[i] = submitHeld(c, srv, i)
	}

	// The depth is counted before each submit answers, and none of the jobs
	// can finish, so it is exactly n now; past overloadQueueFactor jobs per
	// core, health reports busy.
	if depth, _ := overloadGauges(c); depth != float64(n) {
		t.Fatalf("sqlshare_job_queue_depth = %v, want %d", depth, n)
	}
	if st := healthStatus(c); st != "busy" {
		t.Fatalf("health status = %v with %d jobs held, want busy", st, n)
	}

	// Every job is in flight from its submit, and the last
	// one to reach its probe finds only probing jobs holding pool workers,
	// so if none holds any, it gets one: both states arrive.
	deadline := time.Now().Add(60 * time.Second)
	for {
		depth, occupancy := overloadGauges(c)
		if depth == float64(n) && occupancy > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("held load: job_queue_depth = %v (want %d), pool_occupancy = %v (want > 0)",
				depth, n, occupancy)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := healthStatus(c); st != "busy" {
		t.Fatalf("health status = %v under held load, want busy", st)
	}

	// A job ends only after it has released its pool workers and left the
	// table's running index, so once all are killed every gauge is 0.
	killAll(c, ids...)
	if depth, occupancy := overloadGauges(c); depth != 0 || occupancy != 0 {
		t.Fatalf("after kills: job_queue_depth = %v, pool_occupancy = %v, want 0",
			depth, occupancy)
	}
	if st := healthStatus(c); st != "ok" {
		t.Fatalf("health status = %v after kills, want ok", st)
	}
}
