package sqlshare

import (
	"flag"
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"sqlshare/internal/catalog"
	"sqlshare/internal/plan"
	"sqlshare/internal/synth"
)

var updateQError = flag.Bool("update-qerror", false, "rewrite "+qerrorFile+" from the current planner")

const qerrorFile = "testdata/qerror_seed1.txt"

// qerror is the estimate's error factor at one operator: its row estimate
// against the rows it produced per execution, both floored at 1.
func qerror(est float64, rows, execs int64) float64 {
	est = math.Max(est, 1)
	act := math.Max(float64(rows)/float64(execs), 1)
	return math.Max(est/act, act/est)
}

// percentile is the nearest-rank p-quantile of sorted.
func percentile(sorted []float64, p float64) float64 {
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}

// TestQErrorSeed1 measures the planner's row estimates against what the
// runs produced: every successful query of the seed-1 SQLShare corpus runs
// at DOP 1, and each operator that executed contributes the q-error of its
// row estimate against its actual rows per execution. The plan root and
// each physical operator report count, p50 and p90, pinned in
// testdata/qerror_seed1.txt. It measures and claims nothing: a planner
// change that moves an estimate moves this file, and
//
//	go test -run TestQErrorSeed1 -update-qerror .
//
// rewrites it.
func TestQErrorSeed1(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus replay is not short")
	}
	corpus, _, err := synth.GenerateSQLShare(synth.SQLShareConfig{Seed: 1, Users: 60, TargetQueries: 2000})
	if err != nil {
		t.Fatal(err)
	}
	var root []float64
	byOp := map[string][]float64{}
	for _, e := range corpus.Entries {
		_, entry, err := corpus.Catalog.QueryWithOptions(e.User, e.SQL, catalog.QueryOptions{Parallelism: 1, NoCache: true})
		if err != nil {
			continue
		}
		r := entry.Plan.Root
		root = append(root, qerror(r.NumRows, r.Actual.Rows, max(r.Actual.Executions, 1)))
		entry.Plan.Walk(func(n *plan.Node) {
			if n.Actual.Executions > 0 {
				byOp[n.PhysicalOp] = append(byOp[n.PhysicalOp], qerror(n.NumRows, n.Actual.Rows, n.Actual.Executions))
			}
		})
	}
	var got strings.Builder
	line := func(name string, qs []float64) {
		slices.Sort(qs)
		fmt.Fprintf(&got, "%-24s n=%-5d p50=%-8.2f p90=%.2f\n", name, len(qs), percentile(qs, 0.5), percentile(qs, 0.9))
	}
	fmt.Fprintf(&got, "queries %d\n", len(root))
	line("(root)", root)
	ops := make([]string, 0, len(byOp))
	for op := range byOp {
		ops = append(ops, op)
	}
	slices.Sort(ops)
	for _, op := range ops {
		line(op, byOp[op])
	}
	t.Logf("\n%s", got.String())
	if *updateQError {
		if err := os.WriteFile(qerrorFile, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(qerrorFile)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("q-error moved from %s:\n got\n%s\nwant\n%s", qerrorFile, got.String(), want)
	}
}
