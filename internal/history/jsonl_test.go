package history

import (
	"bytes"
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

// planLines were written by the encoder that puts the query's plan document
// under `plan` (catalog.Query over a 3-row table with a result cache): an
// executed run, a plain EXPLAIN of it, and a cache hit of the run.
var planLines = []string{
	`{"id":1,"time":"2012-01-01T00:06:00Z","user":"alice","sql":"SELECT station, COUNT(*) AS n FROM water WHERE val \u003e 1 GROUP BY station","datasets":["alice.water"],"compileMillis":0.05352,"executeMillis":0.02194,"runtimeMillis":0.083944,"rowsReturned":2,"digest":"01c420d3d3f2aef9","plan":{"query":"SELECT station, COUNT(*) AS n FROM water WHERE val \u003e 1 GROUP BY station","plan":{"physicalOp":"Stream Aggregate","logicalOp":"Aggregate","io":0,"cpu":0.00016008,"rowSize":16,"numRows":1,"total":0.00657148,"children":[{"physicalOp":"Clustered Index Scan","logicalOp":"Clustered Index Scan","object":"water","io":0.00625,"cpu":0.0001614,"rowSize":26,"numRows":0.8999999999999999,"total":0.0064114,"vectorized":true,"filters":["(val \u003e 1)"],"children":[]}]},"tables":["water"],"columns":{"water":["station","val"]},"trace":{"physicalOp":"Stream Aggregate","logicalOp":"Aggregate","estimateRows":1,"actualRows":2,"executions":1,"wallMillis":0.019057,"actualBytes":52,"workers":1,"children":[{"physicalOp":"Clustered Index Scan","logicalOp":"Clustered Index Scan","object":"water","estimateRows":0.8999999999999999,"actualRows":2,"executions":1,"wallMillis":0.00728,"actualBytes":52,"workers":1,"vectorized":true,"segmentsScanned":1,"children":[]}]}},"resultBytes":52}`,
	`{"id":2,"time":"2012-01-01T00:07:00Z","user":"alice","sql":"EXPLAIN SELECT station, COUNT(*) AS n FROM water WHERE val \u003e 1 GROUP BY station","datasets":["alice.water"],"compileMillis":0.017468,"executeMillis":0,"runtimeMillis":0.034249,"rowsReturned":2,"digest":"01c420d3d3f2aef9","plan":{"query":"EXPLAIN SELECT station, COUNT(*) AS n FROM water WHERE val \u003e 1 GROUP BY station","plan":{"physicalOp":"Stream Aggregate","logicalOp":"Aggregate","io":0,"cpu":0.00016008,"rowSize":16,"numRows":1,"total":0.00657148,"children":[{"physicalOp":"Clustered Index Scan","logicalOp":"Clustered Index Scan","object":"water","io":0.00625,"cpu":0.0001614,"rowSize":26,"numRows":0.8999999999999999,"total":0.0064114,"vectorized":true,"filters":["(val \u003e 1)"],"children":[]}]},"tables":["water"],"columns":{"water":["station","val"]}},"resultBytes":199}`,
	`{"id":3,"time":"2012-01-01T00:08:00Z","user":"alice","sql":"SELECT station, COUNT(*) AS n FROM water WHERE val \u003e 1 GROUP BY station","datasets":["alice.water"],"compileMillis":0.011573,"executeMillis":0,"runtimeMillis":0.011987,"rowsReturned":2,"digest":"01c420d3d3f2aef9","cacheHit":true,"resultBytes":52}`,
}

// TestGoldenLinesRoundTrip: logs written before the plan document replay,
// and each line of either layout decodes into an entry that encodes back to
// the same bytes.
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

	entries, err = ReadEntries(strings.NewReader(strings.Join(planLines, "\n") + "\n"))
	if err != nil || len(entries) != len(planLines) {
		t.Fatalf("read %d entries: %v", len(entries), err)
	}
	for i, e := range entries {
		got, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != planLines[i] {
			t.Errorf("plan line %d re-encodes differently:\n got %s\nwant %s", i+1, got, planLines[i])
		}
	}
	run, explain, hit := entries[0], entries[1], entries[2]
	if !run.Plan.Executed() || run.Plan.Root.Children[0].Actual.Rows != 2 || run.Plan.Root.Children[0].Filters[0] != "(val > 1)" ||
		run.Meta.Template != "Stream Aggregate(Clustered Index Scan<water>{( val > ? )})" ||
		run.Meta.OperatorCounts["Stream Aggregate"] != 1 || run.Meta.EstimatedCost != run.Plan.Root.Total || run.ResultBytes != 52 {
		t.Errorf("executed entry = %+v, meta %+v", run, run.Meta)
	}
	if explain.Plan == nil || explain.Plan.Executed() || explain.Meta.Template != run.Meta.Template || explain.Execute != 0 {
		t.Errorf("EXPLAIN entry = %+v", explain)
	}
	if hit.Cache != CacheHit || hit.Plan != nil || hit.Meta != nil || hit.Digest != run.Digest {
		t.Errorf("cache-hit entry = %+v", hit)
	}
}

// FuzzEntryLine: decoding any line never panics, and an entry decoded from
// a line re-encodes to a line that decodes to an equal entry — equal in
// what a line holds, so the second line is the first byte for byte.
func FuzzEntryLine(f *testing.F) {
	for _, l := range append(append([]string(nil), goldenLines...), planLines...) {
		f.Add([]byte(l))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		var e Entry
		if json.Unmarshal(line, &e) != nil {
			return
		}
		first, err := json.Marshal(&e)
		if err != nil {
			t.Fatalf("decoded %q, cannot re-encode: %v", line, err)
		}
		var back Entry
		if err := json.Unmarshal(first, &back); err != nil {
			t.Fatalf("re-encoded line %s does not decode: %v", first, err)
		}
		second, err := json.Marshal(&back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) || !back.Time.Equal(e.Time) || back.Cache != e.Cache || back.legacy != e.legacy ||
			(back.Plan == nil) != (e.Plan == nil) || (back.Meta == nil) != (e.Meta == nil) {
			t.Fatalf("line %q decodes to an entry that does not survive its own line:\n%s\n%s", line, first, second)
		}
	})
}
