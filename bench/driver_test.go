package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"sqlshare/internal/catalog"
)

// slowServer answers the asynchronous query protocol, taking delay to
// finish each job.
func slowServer(delay time.Duration) *httptest.Server {
	var seq atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/queries", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(w, `{"id":"q-%d","status":"running"}`, seq.Add(1))
	})
	mux.HandleFunc("GET /api/queries/{id}", func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(delay)
		fmt.Fprint(w, `{"status":"done","cache":"miss","columns":["n"],"rows":[["1"]]}`)
	})
	return httptest.NewServer(mux)
}

// Six ops are all due at the start of the round, the server takes 30 ms for
// each and the generator has two connections: the ops finish in three
// waves. An open loop charges each op from its due time, so the waves show
// as about 30, 60 and 90 ms; timing from the send would report 30 ms for
// all six and hide the queue.
func TestOpenLoopChargesLatencyFromDueTime(t *testing.T) {
	const delay = 30 * time.Millisecond
	srv := slowServer(delay)
	defer srv.Close()
	c := newRESTClient(srv.URL)
	defer c.close()

	ops := make([]op, 6)
	for i := range ops {
		ops[i] = op{Kind: opQuery, User: "u", SQL: "SELECT 1", At: 0}
	}
	samples, backlog := runOpen(context.Background(), c, ops, time.Now().Add(time.Minute))
	if len(samples) != len(ops) {
		t.Fatalf("%d samples, want %d", len(samples), len(ops))
	}
	var lat []float64
	for i := range samples {
		if samples[i].err != nil {
			t.Fatal(samples[i].err)
		}
		lat = append(lat, samples[i].ms())
		if samples[i].lag > 20*time.Millisecond {
			t.Errorf("generator released an op %v late; the queue must not hold the schedule back", samples[i].lag)
		}
	}
	sort.Float64s(lat)
	if lat[0] < 25 || lat[0] > 60 {
		t.Errorf("first wave took %.1f ms, want about 30", lat[0])
	}
	if lat[5] < 3*25 {
		t.Errorf("last wave charged %.1f ms, want at least 75: latency must run from the due time", lat[5])
	}
	if backlog < 3 {
		t.Errorf("backlog peak %d, want at least 3 ops waiting for a connection", backlog)
	}
}

func TestClosedLoopStopsAtTheDeadline(t *testing.T) {
	srv := slowServer(20 * time.Millisecond)
	defer srv.Close()
	c := newRESTClient(srv.URL)
	defer c.close()
	ops := make([]op, 50)
	for i := range ops {
		ops[i] = op{Kind: opQuery, User: "u", SQL: "SELECT 1"}
	}
	samples := runClosed(context.Background(), c, [][]op{ops}, time.Now().Add(100*time.Millisecond))
	if len(samples) == 0 || len(samples) > 10 {
		t.Errorf("%d ops ran in a 100 ms round of 20 ms ops, want a handful", len(samples))
	}
	if samples[0].timing.poll < 15*time.Millisecond || samples[0].timing.submit <= 0 {
		t.Errorf("timing split = %+v, want the wait in poll", samples[0].timing)
	}
}

// A REST response and an in-process result of the same query must hash
// alike, or the output check would compare two renderings and not two
// results.
func TestRESTAndEngineResultsHashAlike(t *testing.T) {
	w, err := generate("point", 1, testSizes)
	if err != nil {
		t.Fatal(err)
	}
	in, err := newInProcessServer(&w.Setup)
	if err != nil {
		t.Fatal(err)
	}
	c := newInProcessClient(in.srv)
	for _, o := range w.Rounds[0][0][:16] {
		res, _, err := c.query(context.Background(), o.User, o.SQL)
		if err != nil {
			t.Fatal(err)
		}
		direct, _, err := in.cat.QueryWithOptions(o.User, o.SQL, catalog.QueryOptions{NoCache: true, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		if hashResult(res.Columns, res.Rows) != hashEngineResult(direct) {
			t.Errorf("hashes differ for %q", o.SQL)
		}
	}
	if hashResult([]string{"a"}, [][]string{{"1", "2"}}) == hashResult([]string{"a"}, [][]string{{"1"}, {"2"}}) {
		t.Error("one row of two cells hashes like two rows of one")
	}
}

// The oracle must catch a wrong result and must agree with a right one.
func TestOutputCheck(t *testing.T) {
	w, err := generate("analytic", 1, testSizes)
	if err != nil {
		t.Fatal(err)
	}
	number(w)
	in, err := newInProcessServer(&w.Setup)
	if err != nil {
		t.Fatal(err)
	}
	c := newInProcessClient(in.srv)
	ph := &phase{warm: runClosed(context.Background(), c, [][]op{w.Warmup}, time.Now().Add(time.Minute))}
	rs := &roundStats{samples: runClosed(context.Background(), c, w.Rounds[0], time.Now().Add(time.Minute))}
	ph.executed, ph.all = []int{0}, []*roundStats{rs}
	streams, results := executedStreams(w, ph)
	got, err := checkOutputs(w, streams, results)
	if err != nil {
		t.Fatal(err)
	}
	if got.Checked == 0 || got.Mismatched != 0 {
		t.Fatalf("honest run: %+v, want some checked and none mismatched", got)
	}
	for i := range rs.samples {
		if rs.samples[i].op.Check {
			rs.samples[i].hash++ // as if the server had returned something else
			break
		}
	}
	got, err = checkOutputs(w, streams, results)
	if err != nil {
		t.Fatal(err)
	}
	if got.Mismatched != 1 || got.First == "" || got.ok() {
		t.Errorf("corrupted run: %+v, want exactly one mismatch reported", got)
	}
}

func TestAcknowledgedRows(t *testing.T) {
	w := &workload{}
	w.Setup.Datasets = []dataset{{User: "u", Name: "t0", Rows: 100}}
	ops := []op{
		{Kind: opUpload, User: "u", Name: "b0", Rows: 10},
		{Kind: opAppend, User: "u", Target: "t0", Name: "b0"},
		{Kind: opUpload, User: "u", Name: "b1", Rows: 10},
		{Kind: opAppend, User: "u", Target: "t0", Name: "b1"}, // refused below
		{Kind: opMaterialize, User: "u", Target: "t0", Name: "t0_m0"},
		{Kind: opUpload, User: "u", Name: "never_sent", Rows: 10},
	}
	results := map[*op]*sample{}
	for i := range ops[:5] {
		results[&ops[i]] = &sample{op: &ops[i]}
	}
	results[&ops[3]].err = fmt.Errorf("refused")
	got := acknowledged(w, [][]op{ops}, results)
	want := map[string]int{"u.t0": 110, "u.b0": 10, "u.b1": 10, "u.t0_m0": 110}
	if len(got) != len(want) {
		t.Errorf("acknowledged = %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s: %d rows, want %d", k, got[k], v)
		}
	}
}

func TestRacedWrite(t *testing.T) {
	t0 := time.Now()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	stream := []op{
		{Kind: opAppend, Target: "d1", Name: "b"},
		{Kind: opQuery, SQL: "SELECT * FROM [d1]"},
		{Kind: opQuery, SQL: "SELECT * FROM [d2]"},
		{Kind: opAppend, Target: "d1", Name: "c"},
	}
	results := map[*op]*sample{
		&stream[0]: {sent: at(0), done: at(10)},
		&stream[1]: {sent: at(20), done: at(30)},
		&stream[2]: {sent: at(5), done: at(8)},
		&stream[3]: {sent: at(40), done: at(50)},
	}
	if racedWrite(stream, 1, results) {
		t.Error("both appends are clearly on their side of the query")
	}
	results[&stream[0]].done = at(25) // still in flight when the query was sent
	if !racedWrite(stream, 1, results) {
		t.Error("an earlier append that overlaps the query must count as a race")
	}
	if racedWrite(stream, 2, results) {
		t.Error("a query on another dataset cannot race the append")
	}
	results[&stream[0]].done = at(10)
	results[&stream[3]].sent = at(29) // sent before the query completed
	if !racedWrite(stream, 1, results) {
		t.Error("a later append sent before the query completed must count as a race")
	}
}
