package corpusio

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"sqlshare/internal/catalog"
	"sqlshare/internal/report"
	"sqlshare/internal/synth"
	"sqlshare/internal/workload"
)

// writeGzipLine writes raw JSON-lines content as a gzip stream.
func writeGzipLine(w io.Writer, content string) {
	gz := gzip.NewWriter(w)
	_, _ = gz.Write([]byte(content + "\n"))
	_ = gz.Close()
}

// newEmptyGzip writes an empty gzip stream.
func newEmptyGzip(w io.Writer) struct{} {
	gz := gzip.NewWriter(w)
	_ = gz.Close()
	return struct{}{}
}

// TestExportImportRoundTrip: a release's query lines are history lines, so
// every entry comes back with what the log holds — sub-second time, digest,
// compile/execute split and result size — and with the plan and Phase 2
// metadata the workload analyses read.
func TestExportImportRoundTrip(t *testing.T) {
	start := time.Date(2011, 6, 1, 8, 0, 0, 123456789, time.UTC)
	corpus, _, err := synth.GenerateSQLShare(synth.SQLShareConfig{Seed: 3, Users: 10, TargetQueries: 120, Start: start})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Export(&buf, corpus); err != nil {
		t.Fatal(err)
	}
	rel, err := Import(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Header.Corpus != "SQLShare" || rel.Header.Format != FormatVersion {
		t.Errorf("header = %+v", rel.Header)
	}
	if rel.Header.Queries != len(corpus.Entries) || len(rel.Entries) != len(corpus.Entries) {
		t.Fatalf("queries: header=%d records=%d want=%d",
			rel.Header.Queries, len(rel.Entries), len(corpus.Entries))
	}
	if len(rel.Datasets) != rel.Header.Datasets || len(rel.Datasets) == 0 {
		t.Errorf("datasets: %d vs header %d", len(rel.Datasets), rel.Header.Datasets)
	}
	planned, sized := 0, 0
	for i, got := range rel.Entries {
		want := corpus.Entries[i]
		if !got.Time.Equal(want.Time) || got.Time.Nanosecond() != 123456789 {
			t.Fatalf("entry %d: time %v, want %v", i, got.Time, want.Time)
		}
		if got.ID != want.ID || got.User != want.User || got.SQL != want.SQL || got.Err != want.Err ||
			got.Digest != want.Digest || got.Compile != want.Compile || got.Execute != want.Execute ||
			got.Runtime != want.Runtime || got.RowsReturned != want.RowsReturned || got.ResultBytes != want.ResultBytes {
			t.Fatalf("entry %d:\n got %+v\nwant %+v", i, got, want)
		}
		if want.ResultBytes > 0 {
			sized++
		}
		if want.Plan == nil {
			continue
		}
		planned++
		if got.Meta.Template != want.Meta.Template || got.Meta.EstimatedCost != want.Meta.EstimatedCost ||
			!reflect.DeepEqual(got.Meta.OperatorCounts, want.Meta.OperatorCounts) ||
			len(got.Meta.ExpressionOps) != len(want.Meta.ExpressionOps) {
			t.Fatalf("entry %d: meta %+v, want %+v", i, got.Meta, want.Meta)
		}
		if got.Plan.Executed() != want.Plan.Executed() {
			t.Fatalf("entry %d: executed %v, want %v", i, got.Plan.Executed(), want.Plan.Executed())
		}
	}
	if planned == 0 || sized == 0 || corpus.Entries[0].Digest == "" {
		t.Fatalf("corpus exercises nothing: %d planned, %d sized", planned, sized)
	}
}

func TestReleaseEntriesDriveAnalyses(t *testing.T) {
	corpus, _, err := synth.GenerateSQLShare(synth.SQLShareConfig{Seed: 4, Users: 10, TargetQueries: 120})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Export(&buf, corpus); err != nil {
		t.Fatal(err)
	}
	rel, err := Import(&buf)
	if err != nil {
		t.Fatal(err)
	}
	entries := rel.Entries
	if len(entries) != len(corpus.Entries) {
		t.Fatalf("entries = %d", len(entries))
	}
	// Log-level metrics must agree between live corpus and re-imported
	// release: compare a few invariants directly.
	planned := 0
	for i, e := range entries {
		if e.Err == "" && e.Plan != nil {
			planned++
			if e.Meta.Template != corpus.Entries[i].Meta.Template {
				t.Fatalf("template drift at %d", i)
			}
			if e.Meta.DistinctOperators != corpus.Entries[i].Meta.DistinctOperators {
				t.Fatalf("distinct ops drift at %d", i)
			}
		}
	}
	if planned == 0 {
		t.Fatal("no planned queries survived")
	}
}

// TestReportRoundTrip: the paper's report computed from a corpus whose
// SQLShare log was exported and re-imported through the release format is
// byte-identical to the report of the live corpus (the catalog is kept:
// a release carries no table data). The scale is reduced so that the two
// renders stay quick; the seed-1 scale is what make report-check renders.
func TestReportRoundTrip(t *testing.T) {
	c, err := report.Build(report.Config{Seed: 1, SQLShareQueries: 400, SQLShareUsers: 20, SDSSQueries: 2000})
	if err != nil {
		t.Fatal(err)
	}
	var live, back bytes.Buffer
	c.WriteAll(&live)
	var rel bytes.Buffer
	if err := Export(&rel, c.SQLShare); err != nil {
		t.Fatal(err)
	}
	r, err := Import(&rel)
	if err != nil {
		t.Fatal(err)
	}
	c.SQLShare = &workload.Corpus{Name: c.SQLShare.Name, Catalog: c.SQLShare.Catalog, Entries: r.Entries}
	c.WriteAll(&back)
	if live.String() != back.String() {
		t.Errorf("the report moved through Export and Import:\n%s", lineDiff(live.String(), back.String()))
	}
}

// lineDiff lists the lines that differ between two renders.
func lineDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	var out strings.Builder
	for i := range max(len(al), len(bl)) {
		var x, y string
		if i < len(al) {
			x = al[i]
		}
		if i < len(bl) {
			y = bl[i]
		}
		if x != y {
			fmt.Fprintf(&out, "- %s\n+ %s\n", x, y)
		}
	}
	return out.String()
}

// TestImportVersion1: a release written before a query line was a history
// line still imports, with the plan and metadata it recorded.
func TestImportVersion1(t *testing.T) {
	var buf bytes.Buffer
	writeGzipLine(&buf, `{"format":1,"corpus":"SQLShare","exported":"2016-01-01T00:00:00Z","users":1,"datasets":1,"queries":2}
{"kind":"dataset","owner":"alice","name":"water","sql":"SELECT * FROM [alice].[water]","isWrapper":true,"public":false,"created":1306915200}
{"kind":"query","id":1,"user":"alice","sql":"SELECT station FROM water","time":1306915260,"runtimeMs":1.5,"datasets":["alice.water"],"rows":3,"plan":{"query":"SELECT station FROM water","plan":{"physicalOp":"Clustered Index Scan","object":"[alice].[water]","io":0.003,"cpu":0.0001,"rowSize":24,"numRows":3,"total":0.0031,"children":[]},"tables":["alice.water"],"columns":{"alice.water":["station"]}},"meta":{"Length":25,"NumOperators":1,"DistinctOperators":1,"OperatorCounts":{"Clustered Index Scan":1},"ExpressionOps":{},"Tables":["alice.water"],"Columns":{"alice.water":["station"]},"EstimatedCost":0.0031,"Template":"Clustered Index Scan<[alice].[water]>"}}
{"kind":"query","id":2,"user":"alice","sql":"SELECT nope","time":1306915320,"runtimeMs":0.25,"error":"unknown column","rows":0}`)
	rel, err := Import(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rel.Datasets) != 1 || len(rel.Entries) != 2 {
		t.Fatalf("datasets %d, entries %d", len(rel.Datasets), len(rel.Entries))
	}
	ok, failed := rel.Entries[0], rel.Entries[1]
	if ok.Time.Unix() != 1306915260 || ok.Runtime != 1500*time.Microsecond || ok.RowsReturned != 3 ||
		ok.Plan.Root.PhysicalOp != "Clustered Index Scan" || ok.Meta.Template != "Clustered Index Scan<[alice].[water]>" {
		t.Errorf("entry 1 = %+v", ok)
	}
	if !failed.Failed() || failed.Plan != nil || failed.Meta != nil {
		t.Errorf("entry 2 = %+v", failed)
	}
}

// TestImportTraceFormRelease: a format-2 release whose query lines carry the
// actuals in the trace form beside the plan document, with durations in
// milliseconds, still imports; each entry equals the one decoded from its
// current-layout re-encoding, tree and actuals included.
func TestImportTraceFormRelease(t *testing.T) {
	var buf bytes.Buffer
	writeGzipLine(&buf, `{"format":2,"corpus":"SQLShare","exported":"2026-10-01T00:00:00Z","users":1,"datasets":1,"queries":4}
{"kind":"dataset","owner":"alice","name":"water","sql":"SELECT * FROM [~base:alice.water]","isWrapper":true,"public":false,"created":1325376000}
{"id":1,"time":"2012-01-01T00:06:00Z","user":"alice","sql":"SELECT station, COUNT(*) AS n FROM water WHERE val \u003e 1 GROUP BY station","datasets":["alice.water"],"compileMillis":0.05352,"executeMillis":0.02194,"runtimeMillis":0.083944,"rowsReturned":2,"digest":"01c420d3d3f2aef9","plan":{"query":"SELECT station, COUNT(*) AS n FROM water WHERE val \u003e 1 GROUP BY station","plan":{"physicalOp":"Stream Aggregate","logicalOp":"Aggregate","io":0,"cpu":0.00016008,"rowSize":16,"numRows":1,"total":0.00657148,"children":[{"physicalOp":"Clustered Index Scan","logicalOp":"Clustered Index Scan","object":"water","io":0.00625,"cpu":0.0001614,"rowSize":26,"numRows":0.8999999999999999,"total":0.0064114,"vectorized":true,"filters":["(val \u003e 1)"],"children":[]}]},"tables":["water"],"columns":{"water":["station","val"]},"trace":{"physicalOp":"Stream Aggregate","logicalOp":"Aggregate","estimateRows":1,"actualRows":2,"executions":1,"wallMillis":0.019057,"actualBytes":52,"workers":1,"children":[{"physicalOp":"Clustered Index Scan","logicalOp":"Clustered Index Scan","object":"water","estimateRows":0.8999999999999999,"actualRows":2,"executions":1,"wallMillis":0.00728,"actualBytes":52,"workers":1,"vectorized":true,"segmentsScanned":1,"children":[]}]}},"resultBytes":52}
{"id":2,"time":"2012-01-01T00:07:00Z","user":"alice","sql":"EXPLAIN SELECT station, COUNT(*) AS n FROM water WHERE val \u003e 1 GROUP BY station","datasets":["alice.water"],"compileMillis":0.017468,"executeMillis":0,"runtimeMillis":0.034249,"rowsReturned":2,"digest":"01c420d3d3f2aef9","plan":{"query":"EXPLAIN SELECT station, COUNT(*) AS n FROM water WHERE val \u003e 1 GROUP BY station","plan":{"physicalOp":"Stream Aggregate","logicalOp":"Aggregate","io":0,"cpu":0.00016008,"rowSize":16,"numRows":1,"total":0.00657148,"children":[{"physicalOp":"Clustered Index Scan","logicalOp":"Clustered Index Scan","object":"water","io":0.00625,"cpu":0.0001614,"rowSize":26,"numRows":0.8999999999999999,"total":0.0064114,"vectorized":true,"filters":["(val \u003e 1)"],"children":[]}]},"tables":["water"],"columns":{"water":["station","val"]}},"resultBytes":199}
{"id":3,"time":"2012-01-01T00:08:00Z","user":"alice","sql":"SELECT station, COUNT(*) AS n FROM water WHERE val \u003e 1 GROUP BY station","datasets":["alice.water"],"compileMillis":0.011573,"executeMillis":0,"runtimeMillis":0.011987,"rowsReturned":2,"digest":"01c420d3d3f2aef9","cacheHit":true,"resultBytes":52}
{"id":4,"time":"2012-01-01T00:09:00Z","user":"alice","sql":"SELECT nope FROM water","datasets":["alice.water"],"compileMillis":0.02,"executeMillis":0,"runtimeMillis":0.03,"rowsReturned":0,"error":"engine: unknown column \"nope\""}`)
	rel, err := Import(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rel.Datasets) != 1 || len(rel.Entries) != 4 {
		t.Fatalf("datasets %d, entries %d", len(rel.Datasets), len(rel.Entries))
	}
	for _, e := range rel.Entries {
		line, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		back := &catalog.LogEntry{}
		if err := json.Unmarshal(line, back); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(e, back) {
			t.Errorf("entry %d differs from its re-encoding %s:\n got %+v\nwant %+v", e.ID, line, back, e)
		}
	}
	run := rel.Entries[0]
	if scan := run.Plan.Root.Children[0]; scan.Actual == nil || scan.Actual.Rows != 2 || scan.Actual.Wall != 7280 ||
		run.Plan.Query != run.SQL || run.Compile != 53520 || run.Meta.Template != "Stream Aggregate(Clustered Index Scan<water>{( val > ? )})" {
		t.Errorf("executed entry = %+v, plan %+v", run, run.Plan)
	}
	if line, _ := json.Marshal(run); !strings.Contains(string(line), `"compileNs":53520`) || strings.Contains(string(line), `"trace"`) {
		t.Errorf("executed entry re-encodes as %s", line)
	}
}

func TestImportErrors(t *testing.T) {
	if _, err := Import(strings.NewReader("not gzip")); err == nil {
		t.Error("non-gzip input should fail")
	}
	// Empty gzip stream → no header.
	var buf bytes.Buffer
	gz := newEmptyGzip(&buf)
	_ = gz
	if _, err := Import(&buf); err == nil {
		t.Error("empty release should fail")
	}
}

func TestImportRejectsWrongVersion(t *testing.T) {
	var buf bytes.Buffer
	writeGzipLine(&buf, `{"format":99,"corpus":"x"}`)
	if _, err := Import(&buf); err == nil || !strings.Contains(err.Error(), "unsupported format") {
		t.Errorf("want unsupported-format error, got %v", err)
	}
}

func TestImportRejectsUnknownRecordKind(t *testing.T) {
	var buf bytes.Buffer
	writeGzipLine(&buf, `{"format":1,"corpus":"x"}`+"\n"+`{"kind":"mystery"}`)
	if _, err := Import(&buf); err == nil || !strings.Contains(err.Error(), "unknown record kind") {
		t.Errorf("want unknown-kind error, got %v", err)
	}
}
