package sqlshare

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"sqlshare/internal/catalog"
	"sqlshare/internal/engine"
	"sqlshare/internal/plan"
	"sqlshare/internal/synth"
)

// corpusResultKey canonicalizes a query result for exact comparison:
// column names and every cell, in row order.
func corpusResultKey(res *engine.Result) string {
	var b strings.Builder
	b.WriteString(strings.Join(res.ColumnNames(), ","))
	b.WriteByte('\n')
	for _, row := range res.Rows {
		for _, v := range row {
			b.WriteString(v.Key())
			b.WriteByte('|')
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// corpusTraceKey canonicalizes the DOP-independent part of an executed plan
// tree: operators, objects, actual row counts and execution counts. Wall
// time and worker counts legitimately vary with parallelism and are
// excluded.
func corpusTraceKey(n *plan.Node, depth int, b *strings.Builder) {
	if n == nil || n.Actual == nil {
		return
	}
	fmt.Fprintf(b, "%s%s[%s] rows=%d execs=%d\n",
		strings.Repeat(" ", depth), n.PhysicalOp, n.Object, n.Actual.Rows, n.Actual.Executions)
	for _, c := range n.Children {
		corpusTraceKey(c, depth+1, b)
	}
}

// TestParallelCorpusDifferential replays every successful query of a
// synthetic SQLShare workload at parallelism 1, 2 and 8 and requires
// bit-identical results — columns, rows, row order — and identical
// per-operator actual row counts. Morsel tuning is lowered so the tiny
// synthetic tables genuinely exercise the parallel operators, and
// GOMAXPROCS is raised so the worker pool grants real fan-out even on a
// single-CPU host.
func TestParallelCorpusDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus replay is not short")
	}
	prevMorsel, prevMin := engine.SetParallelTuning(8, 16)
	prevProcs := runtime.GOMAXPROCS(8)
	defer func() {
		engine.SetParallelTuning(prevMorsel, prevMin)
		runtime.GOMAXPROCS(prevProcs)
	}()

	corpus, _, err := synth.GenerateSQLShare(synth.SQLShareConfig{
		Seed: 7, Users: 20, TargetQueries: 400,
	})
	if err != nil {
		t.Fatal(err)
	}
	entries := corpus.Succeeded()
	if len(entries) < 100 {
		t.Fatalf("corpus too small to be meaningful: %d successful queries", len(entries))
	}
	replayed := 0
	for _, e := range entries {
		serialRes, serialEntry, err := corpus.Catalog.QueryWithOptions(e.User, e.SQL, catalog.QueryOptions{Parallelism: 1})
		if err != nil {
			// A query can succeed at generation time yet fail on replay if
			// its datasets were later rewritten or deleted by the generator's
			// own workload; those are not differential-test material.
			continue
		}
		replayed++
		wantRes := corpusResultKey(serialRes)
		var wantTrace strings.Builder
		if serialEntry.Plan != nil {
			corpusTraceKey(serialEntry.Plan.Root, 0, &wantTrace)
		}
		for _, dop := range []int{2, 8} {
			gotRes, gotEntry, err := corpus.Catalog.QueryWithOptions(e.User, e.SQL, catalog.QueryOptions{Parallelism: dop})
			if err != nil {
				t.Errorf("query %q (user %s): failed at parallelism %d but succeeded serial: %v", e.SQL, e.User, dop, err)
				continue
			}
			if got := corpusResultKey(gotRes); got != wantRes {
				t.Errorf("query %q (user %s): parallelism %d result differs from serial\nserial:\n%s\nparallel:\n%s",
					e.SQL, e.User, dop, wantRes, got)
				continue
			}
			var gotTrace strings.Builder
			if gotEntry.Plan != nil {
				corpusTraceKey(gotEntry.Plan.Root, 0, &gotTrace)
			}
			if gotTrace.String() != wantTrace.String() {
				t.Errorf("query %q (user %s): parallelism %d trace row counts differ\nserial:\n%s\nparallel:\n%s",
					e.SQL, e.User, dop, wantTrace.String(), gotTrace.String())
			}
		}
	}
	if replayed < 100 {
		t.Fatalf("only %d queries replayed cleanly; differential coverage too thin", replayed)
	}
	t.Logf("replayed %d/%d corpus queries at parallelism 1/2/8", replayed, len(entries))
}
