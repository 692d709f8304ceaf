package history

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestLogWriterAppendAndReadBack(t *testing.T) {
	path := filepath.Join(t.TempDir(), "history.jsonl")
	w, err := NewLogWriter(path, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2015, 6, 1, 9, 0, 0, 0, time.UTC)
	for i := 1; i <= 5; i++ {
		if err := w.Append(rec(i, "alice", "SELECT 1", base.Add(time.Duration(i)*time.Second), 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(rec(6, "alice", "SELECT 1", base, 1)); err == nil {
		t.Fatal("append after close should fail")
	}
	recs, err := ReadLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 {
		t.Fatalf("read %d records, want 5", len(recs))
	}
	for i, r := range recs {
		if r.ID != i+1 {
			t.Errorf("record %d has ID %d, want %d (oldest first)", i, r.ID, i+1)
		}
	}
	// Reopening appends rather than truncating.
	w2, err := NewLogWriter(path, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Append(rec(6, "alice", "SELECT 1", base.Add(6*time.Second), 1)); err != nil {
		t.Fatal(err)
	}
	w2.Close()
	if recs, _ = ReadLog(path); len(recs) != 6 {
		t.Fatalf("after reopen: %d records, want 6", len(recs))
	}
}

func TestLogWriterRotationKeepsGenerations(t *testing.T) {
	path := filepath.Join(t.TempDir(), "history.jsonl")
	// Tiny limit: every record larger than ~1 byte forces rotation once a
	// prior record exists. keep=2 retains at most two rotated generations.
	w, err := NewLogWriter(path, 200, 2)
	if err != nil {
		t.Fatal(err)
	}
	var rotations []string
	w.onRotate = func(gen string) { rotations = append(rotations, gen) }
	base := time.Date(2015, 6, 1, 9, 0, 0, 0, time.UTC)
	for i := 1; i <= 6; i++ {
		if err := w.Append(rec(i, "alice", "SELECT 1", base.Add(time.Duration(i)*time.Second), 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if len(rotations) == 0 {
		t.Fatal("expected at least one rotation")
	}
	// No generation beyond keep=2 survives.
	if _, err := os.Stat(path + ".3"); !os.IsNotExist(err) {
		t.Errorf("generation .3 should have been dropped (keep=2): %v", err)
	}
	if _, err := os.Stat(path + ".1"); err != nil {
		t.Errorf("generation .1 missing: %v", err)
	}
	// ReadLog stitches generations oldest-first; with keep=2 the oldest
	// records are gone but the surviving ones stay in ID order.
	recs, err := ReadLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 || len(recs) >= 6 {
		t.Fatalf("read %d records, want a rotated subset of 6", len(recs))
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].ID <= recs[i-1].ID {
			t.Errorf("records out of order: %d after %d", recs[i].ID, recs[i-1].ID)
		}
	}
	if last := recs[len(recs)-1]; last.ID != 6 {
		t.Errorf("newest record ID = %d, want 6", last.ID)
	}
}

func TestReadLogToleratesTornFinalLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "history.jsonl")
	w, err := NewLogWriter(path, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2015, 6, 1, 9, 0, 0, 0, time.UTC)
	for i := 1; i <= 3; i++ {
		if err := w.Append(rec(i, "alice", "SELECT 1", base, 1)); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	// Simulate a crash mid-append: a truncated JSON object on the last line.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"id":4,"user":"ali`)
	f.Close()

	recs, err := ReadLog(path)
	if err != nil {
		t.Fatalf("torn final line should be tolerated: %v", err)
	}
	if len(recs) != 3 {
		t.Fatalf("read %d records, want the 3 intact ones", len(recs))
	}

	// A malformed line mid-file is corruption, not a torn write.
	bad := filepath.Join(t.TempDir(), "bad.jsonl")
	if err := os.WriteFile(bad, []byte("{broken\n{\"id\":1,\"time\":\"2015-06-01T09:00:00Z\",\"user\":\"a\",\"sql\":\"SELECT 1\",\"compileMillis\":0,\"executeMillis\":0,\"runtimeMillis\":1,\"rowsReturned\":0}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadLog(bad); err == nil || !strings.Contains(err.Error(), "malformed") {
		t.Fatalf("mid-file corruption should error, got %v", err)
	}
}

func TestReadLogMissingFile(t *testing.T) {
	if _, err := ReadLog(filepath.Join(t.TempDir(), "nope.jsonl")); err == nil {
		t.Fatal("missing log should error")
	}
}

// goldenLines were written by the encoder this package had before a JSONL
// line became an encoding of Entry (history.Record, one commit earlier): a
// plain run, a cache hit and a traced run that failed on its row limit.
var goldenLines = []string{
	`{"id":1,"time":"2026-09-26T13:26:37.611579034Z","user":"alice","sql":"SELECT station, COUNT(*) AS n FROM water WHERE val \u003e 1 GROUP BY station","datasets":["alice.water"],"compileMillis":0.03712,"executeMillis":0.015016,"runtimeMillis":0.058258,"rowsReturned":3,"digest":"01c420d3d3f2aef9","operators":{"Clustered Index Scan":1,"Stream Aggregate":1},"columns":{"water":["station","val"]},"resultBytes":75}`,
	`{"id":2,"time":"2026-09-26T13:26:37.611769582Z","user":"alice","sql":"SELECT station, COUNT(*) AS n FROM water WHERE val \u003e 1 GROUP BY station","datasets":["alice.water"],"compileMillis":0.013441,"executeMillis":0,"runtimeMillis":0.01468,"rowsReturned":3,"digest":"01c420d3d3f2aef9","cacheHit":true,"resultBytes":75}`,
	`{"id":3,"time":"2026-09-26T13:26:37.611818033Z","user":"alice","sql":"SELECT w.station FROM water w, water x, water y","datasets":["alice.water"],"compileMillis":0.020005,"executeMillis":0.008251,"runtimeMillis":0.034744,"rowsReturned":0,"error":"engine: row limit exceeded: Nested Loops produced 9 rows (limit 5)","digest":"1b30c504bb34c21b","operators":{"Clustered Index Scan":3,"Nested Loops":2},"columns":{"water":["station"]},"trace":{"physicalOp":"Nested Loops","logicalOp":"Inner Join","estimateRows":27,"actualRows":0,"executions":1,"wallMillis":0.007364,"actualBytes":0,"children":[{"physicalOp":"Nested Loops","logicalOp":"Inner Join","estimateRows":9,"actualRows":9,"executions":1,"wallMillis":0.004056,"actualBytes":450,"children":[{"physicalOp":"Clustered Index Scan","logicalOp":"Clustered Index Scan","object":"water","estimateRows":3,"actualRows":3,"executions":1,"wallMillis":0.00054,"actualBytes":75,"children":[]},{"physicalOp":"Clustered Index Scan","logicalOp":"Clustered Index Scan","object":"water","estimateRows":3,"actualRows":3,"executions":1,"wallMillis":0.00011,"actualBytes":75,"children":[]}]},{"physicalOp":"Clustered Index Scan","logicalOp":"Clustered Index Scan","object":"water","estimateRows":3,"actualRows":0,"executions":0,"wallMillis":0,"actualBytes":0,"children":[]}]}}`,
}

// TestGoldenLinesRoundTrip: logs written before the change replay, and what
// the change writes is what was always written — each old line decodes into
// an entry that encodes back to the same bytes.
func TestGoldenLinesRoundTrip(t *testing.T) {
	entries, err := ReadEntries(strings.NewReader(strings.Join(goldenLines, "\n") + "\n"))
	if err != nil || len(entries) != len(goldenLines) {
		t.Fatalf("read %d entries: %v", len(entries), err)
	}
	for i, e := range entries {
		got, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != goldenLines[i] {
			t.Errorf("line %d re-encodes differently:\n got %s\nwant %s", i+1, got, goldenLines[i])
		}
	}
	plain, hit, failed := entries[0], entries[1], entries[2]
	if plain.Compile != 37120*time.Nanosecond || plain.Meta.OperatorCounts["Stream Aggregate"] != 1 || plain.Plan != nil {
		t.Errorf("plain entry = %+v", plain)
	}
	if hit.Cache != CacheHit || hit.Meta != nil || hit.Digest != plain.Digest {
		t.Errorf("cache-hit entry = %+v", hit)
	}
	if !failed.Failed() || failed.Plan.Root.Children[0].Actual.Rows != 9 {
		t.Errorf("failed entry = %+v", failed)
	}
}
