package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"sqlshare"
	"sqlshare/internal/engine"
	"sqlshare/internal/plan"
)

// newCLI spins a real platform behind an httptest server and returns a
// client pointed at it.
func newCLI(t *testing.T) *client {
	t.Helper()
	p := sqlshare.New()
	ts := httptest.NewServer(p.Handler())
	t.Cleanup(ts.Close)
	return &client{server: ts.URL, user: "alice"}
}

func TestCLIEndToEnd(t *testing.T) {
	c := newCLI(t)
	if err := c.run("create-user", []string{"alice", "alice@uw.edu"}); err != nil {
		t.Fatalf("create-user: %v", err)
	}
	// Upload from a real file (the staging path).
	dir := t.TempDir()
	file := filepath.Join(dir, "data.csv")
	if err := os.WriteFile(file, []byte("station,val\ns1,1.5\ns2,2.5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := c.run("upload", []string{"water", file}); err != nil {
		t.Fatalf("upload: %v", err)
	}
	if err := c.run("query", []string{"SELECT station FROM water WHERE val > 2"}); err != nil {
		t.Fatalf("query: %v", err)
	}
	if err := c.run("save", []string{"big", "SELECT * FROM water WHERE val > 2"}); err != nil {
		t.Fatalf("save: %v", err)
	}
	if err := c.run("show", []string{"alice", "big"}); err != nil {
		t.Fatalf("show: %v", err)
	}
	if err := c.run("ls", nil); err != nil {
		t.Fatalf("ls: %v", err)
	}
	if err := c.run("publish", []string{"alice", "water"}); err != nil {
		t.Fatalf("publish: %v", err)
	}
	if err := c.run("explain", []string{"SELECT * FROM water"}); err != nil {
		t.Fatalf("explain: %v", err)
	}
	if err := c.run("materialize", []string{"alice", "big", "bigsnap"}); err != nil {
		t.Fatalf("materialize: %v", err)
	}
	if err := c.run("delete", []string{"alice", "bigsnap"}); err != nil {
		t.Fatalf("delete: %v", err)
	}
}

func TestCLIShareFlow(t *testing.T) {
	c := newCLI(t)
	if err := c.run("create-user", []string{"alice", "a@x"}); err != nil {
		t.Fatal(err)
	}
	if err := c.run("create-user", []string{"bob", "b@x"}); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	file := filepath.Join(dir, "d.csv")
	if err := os.WriteFile(file, []byte("a\n1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := c.run("upload", []string{"d", file}); err != nil {
		t.Fatal(err)
	}
	bob := &client{server: c.server, user: "bob"}
	if err := bob.run("query", []string{"SELECT * FROM [alice.d]"}); err == nil {
		t.Fatal("bob should be denied before sharing")
	}
	if err := c.run("share", []string{"alice", "d", "bob"}); err != nil {
		t.Fatalf("share: %v", err)
	}
	if err := bob.run("query", []string{"SELECT * FROM [alice.d]"}); err != nil {
		t.Fatalf("bob after share: %v", err)
	}
}

func TestCLIErrors(t *testing.T) {
	c := newCLI(t)
	if err := c.run("unknown-cmd", nil); err == nil {
		t.Error("unknown command should error")
	}
	if err := c.run("upload", []string{"onlyname"}); err == nil {
		t.Error("bad arity should error")
	}
	if err := c.run("query", []string{"SELEC bogus"}); err == nil {
		t.Error("failed query should surface an error")
	}
}

// captureStdout runs f with os.Stdout sent to a pipe and returns what f
// printed.
func captureStdout(t *testing.T, f func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	out := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		out <- b
	}()
	stdout := os.Stdout
	os.Stdout = w
	ferr := f()
	os.Stdout = stdout
	w.Close()
	printed := <-out
	if ferr != nil {
		t.Fatal(ferr)
	}
	return string(printed)
}

// wallValue masks the one wall-clock reading of a rendered trace line.
var wallValue = regexp.MustCompile(`wall=[0-9.]+ms`)

// TestCLITrace: `-trace` renders the /trace body — the executed plan tree,
// each node's estimate beside its actual block — one line per operator:
// est, actual, execs, wall and bytes, and workers only above 1.
func TestCLITrace(t *testing.T) {
	c := newCLI(t)
	if err := c.run("create-user", []string{"alice", "alice@uw.edu"}); err != nil {
		t.Fatal(err)
	}
	file := filepath.Join(t.TempDir(), "water.csv")
	if err := os.WriteFile(file, []byte("station,val\ns1,1.5\ns2,2.5\ns2,3.5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := c.run("upload", []string{"water", file}); err != nil {
		t.Fatal(err)
	}
	c.trace = true
	got := captureStdout(t, func() error {
		return c.run("query", []string{"SELECT station, COUNT(*) AS n FROM water WHERE val > 2 GROUP BY station"})
	})
	want := "station\tn\ns2\t2\n-- trace --\n" +
		"Stream Aggregate (Aggregate)  est=1 actual=1 execs=1 wall=#ms bytes=26\n" +
		"  Clustered Index Scan [water]  est=1 actual=2 execs=1 wall=#ms bytes=52\n"
	if masked := wallValue.ReplaceAllString(got, "wall=#ms"); masked != want {
		t.Errorf("-trace printed\n%s\nwant\n%s", masked, want)
	}

	// A parallel operator shows its workers; the wall time is the block's
	// nanoseconds in milliseconds.
	root := &plan.Node{PhysicalOp: "Hash Match", LogicalOp: "Aggregate", NumRows: 12,
		Actual: &engine.Actual{Rows: 10, Executions: 1, Wall: 1500 * time.Microsecond, Bytes: 80, Workers: 4},
		Children: []*plan.Node{{PhysicalOp: "Clustered Index Scan", LogicalOp: "Clustered Index Scan", Object: "obs", NumRows: 900,
			Actual: &engine.Actual{Rows: 1000, Executions: 1, Wall: 250 * time.Microsecond, Bytes: 8000, Workers: 1}, Children: []*plan.Node{}}}}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/api/queries/q-7/trace" {
			http.NotFound(w, r)
			return
		}
		json.NewEncoder(w).Encode(map[string]any{"id": "q-7", "trace": root, "cache": "miss"})
	}))
	t.Cleanup(ts.Close)
	got = captureStdout(t, func() error { return (&client{server: ts.URL, user: "alice"}).printTrace("q-7") })
	want = "-- trace --\n" +
		"Hash Match (Aggregate)  est=12 actual=10 execs=1 wall=1.500ms bytes=80 workers=4\n" +
		"  Clustered Index Scan [obs]  est=900 actual=1000 execs=1 wall=0.250ms bytes=8000\n"
	if got != want {
		t.Errorf("printTrace printed\n%s\nwant\n%s", got, want)
	}
}
