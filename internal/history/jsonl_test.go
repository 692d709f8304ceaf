package history

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
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

// oneTreeLines are planLines in the current layout, what each of them
// re-encodes to: durations in whole nanoseconds, the actuals on the plan's
// own nodes, and no copy of the SQL in the plan document. The cache hit has
// no plan document and gives its durations in milliseconds, which is also
// the layout before the plan document, so it is written back as it was read.
var oneTreeLines = []string{
	`{"id":1,"time":"2012-01-01T00:06:00Z","user":"alice","sql":"SELECT station, COUNT(*) AS n FROM water WHERE val \u003e 1 GROUP BY station","datasets":["alice.water"],"compileNs":53520,"executeNs":21940,"runtimeNs":83944,"rowsReturned":2,"digest":"01c420d3d3f2aef9","plan":{"plan":{"physicalOp":"Stream Aggregate","logicalOp":"Aggregate","io":0,"cpu":0.00016008,"rowSize":16,"numRows":1,"total":0.00657148,"actual":{"rows":2,"executions":1,"wallNs":19057,"bytes":52,"workers":1},"children":[{"physicalOp":"Clustered Index Scan","logicalOp":"Clustered Index Scan","object":"water","io":0.00625,"cpu":0.0001614,"rowSize":26,"numRows":0.8999999999999999,"total":0.0064114,"vectorized":true,"filters":["(val \u003e 1)"],"actual":{"rows":2,"executions":1,"wallNs":7280,"bytes":52,"workers":1,"segmentsScanned":1},"children":[]}]},"tables":["water"],"columns":{"water":["station","val"]}},"resultBytes":52}`,
	`{"id":2,"time":"2012-01-01T00:07:00Z","user":"alice","sql":"EXPLAIN SELECT station, COUNT(*) AS n FROM water WHERE val \u003e 1 GROUP BY station","datasets":["alice.water"],"compileNs":17468,"executeNs":0,"runtimeNs":34249,"rowsReturned":2,"digest":"01c420d3d3f2aef9","plan":{"plan":{"physicalOp":"Stream Aggregate","logicalOp":"Aggregate","io":0,"cpu":0.00016008,"rowSize":16,"numRows":1,"total":0.00657148,"children":[{"physicalOp":"Clustered Index Scan","logicalOp":"Clustered Index Scan","object":"water","io":0.00625,"cpu":0.0001614,"rowSize":26,"numRows":0.8999999999999999,"total":0.0064114,"vectorized":true,"filters":["(val \u003e 1)"],"children":[]}]},"tables":["water"],"columns":{"water":["station","val"]}},"resultBytes":199}`,
	`{"id":3,"time":"2012-01-01T00:08:00Z","user":"alice","sql":"SELECT station, COUNT(*) AS n FROM water WHERE val \u003e 1 GROUP BY station","datasets":["alice.water"],"compileMillis":0.011573,"executeMillis":0,"runtimeMillis":0.011987,"rowsReturned":2,"digest":"01c420d3d3f2aef9","cacheHit":true,"resultBytes":52}`,
}

// longLines give a runtime of about 50 days, past 2^51 ns (about 26 days),
// where ms·1e6 can round a nanosecond away from the count the milliseconds
// were written from: one line of the layout before the plan document, and
// one with a plan document and milliseconds.
var longLines = []string{
	`{"id":1,"time":"2026-09-26T13:26:37.611579034Z","user":"alice","sql":"SELECT 1","compileMillis":0.03712,"executeMillis":0.015016,"runtimeMillis":4363869686.126352,"rowsReturned":1,"operators":{"Constant Scan":1}}`,
	`{"id":2,"time":"2012-01-01T00:07:00Z","user":"alice","sql":"EXPLAIN SELECT station FROM water","datasets":["alice.water"],"compileMillis":0.017468,"executeMillis":0,"runtimeMillis":4363869686.126352,"rowsReturned":1,"plan":{"query":"EXPLAIN SELECT station FROM water","plan":{"physicalOp":"Clustered Index Scan","logicalOp":"Clustered Index Scan","object":"water","io":0.00625,"cpu":0.0001614,"rowSize":26,"numRows":3,"total":0.0064114,"children":[]},"tables":["water"],"columns":{"water":["station"]}}}`,
}

// TestGoldenLinesRoundTrip: logs written before the plan document replay,
// and each line of that layout decodes into an entry that encodes back to
// the same bytes; a line with the trace form inside its plan document
// re-encodes in the current layout, which round-trips byte for byte and
// decodes to the same entry.
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
	current, err := ReadEntries(strings.NewReader(strings.Join(oneTreeLines, "\n") + "\n"))
	if err != nil || len(current) != len(oneTreeLines) {
		t.Fatalf("read %d entries: %v", len(current), err)
	}
	for i, e := range entries {
		got, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != oneTreeLines[i] {
			t.Errorf("plan line %d re-encodes differently:\n got %s\nwant %s", i+1, got, oneTreeLines[i])
		}
		if got, _ := json.Marshal(current[i]); string(got) != oneTreeLines[i] {
			t.Errorf("current line %d re-encodes differently:\n got %s\nwant %s", i+1, got, oneTreeLines[i])
		}
		if !reflect.DeepEqual(e, current[i]) {
			t.Errorf("plan line %d and its current line decode differently:\n%+v\n%+v", i+1, e, current[i])
		}
	}
	if strings.Contains(oneTreeLines[0], `"trace"`) || strings.Contains(oneTreeLines[0], `"query"`) {
		t.Error("a current line writes the trace form or a copy of its SQL")
	}
	run, explain, hit := entries[0], entries[1], entries[2]
	if !run.Plan.Executed() || run.Plan.Root.Children[0].Actual.Rows != 2 || run.Plan.Root.Children[0].Actual.Wall != 7280 ||
		run.Plan.Query != run.SQL || run.Runtime != 83944 || run.Plan.Root.Children[0].Filters[0] != "(val > 1)" ||
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

	// A long duration in milliseconds decodes to the count it was written
	// from, so the old line is its own re-encoding; in the current layout
	// it is written in nanoseconds.
	long, err := ReadEntries(strings.NewReader(strings.Join(longLines, "\n") + "\n"))
	if err != nil || len(long) != len(longLines) {
		t.Fatalf("read %d entries: %v", len(long), err)
	}
	for _, e := range long {
		if e.Runtime != 4363869686126352 {
			t.Errorf("entry %d runtime = %d ns, want 4363869686126352", e.ID, e.Runtime)
		}
	}
	if got, _ := json.Marshal(long[0]); string(got) != longLines[0] {
		t.Errorf("long line re-encodes differently:\n got %s\nwant %s", got, longLines[0])
	}
	if got, _ := json.Marshal(long[1]); !strings.Contains(string(got), `"runtimeNs":4363869686126352`) {
		t.Errorf("long plan line re-encodes as %s", got)
	}
}

// FuzzEntryLine: decoding any line never panics, and an entry decoded from
// a line re-encodes to a line that decodes to an equal entry — equal in
// what a line holds, so the second line is the first byte for byte.
func FuzzEntryLine(f *testing.F) {
	for _, set := range [][]string{goldenLines, planLines, oneTreeLines, longLines} {
		for _, l := range set {
			f.Add([]byte(l))
		}
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
		if !bytes.Equal(first, second) || !back.Time.Equal(e.Time) || back.Cache != e.Cache || (back.legacy == nil) != (e.legacy == nil) ||
			(back.Plan == nil) != (e.Plan == nil) || (back.Meta == nil) != (e.Meta == nil) {
			t.Fatalf("line %q decodes to an entry that does not survive its own line:\n%s\n%s", line, first, second)
		}
	})
}
