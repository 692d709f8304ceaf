package sqlshare

import (
	"strings"
	"testing"

	"sqlshare/internal/catalog"
	"sqlshare/internal/engine"
	"sqlshare/internal/sqlparser"
	"sqlshare/internal/synth"
	"sqlshare/internal/workload"
)

// TestViewMergeCorpusDifferential replays the seed-1 synthetic SQLShare
// corpus (the one report_seed1.txt is computed from) against two copies of
// its catalog: one with the views as saved, where every select-project-
// filter view merges into the block that reads it, and one where each view
// body B is saved as `SELECT TOP 1000000 * FROM (B) AS v`, which never
// merges. Every query must return identical columns and rows in the same
// order, or fail with identical error text, at DOP 1, 2 and 8 — the view
// merge is a metamorphic relation of the corpus (ROADMAP item 6).
func TestViewMergeCorpusDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus replay is not short")
	}
	columnarTestSetup(t)
	generate := func() *workload.Corpus {
		corpus, _, err := synth.GenerateSQLShare(synth.SQLShareConfig{Seed: 1, Users: 60, TargetQueries: 2000})
		if err != nil {
			t.Fatal(err)
		}
		return corpus
	}
	corpus, ref := generate(), generate().Catalog
	merged := corpus.Catalog
	rewritten := 0
	for _, ds := range ref.Datasets(false) {
		if _, ok := ds.Query.(*sqlparser.Select); !ok || ds.IsWrapper || ds.Materialized {
			continue
		}
		if err := ref.Delete(ds.Owner, ds.Name); err != nil {
			t.Fatal(err)
		}
		if _, err := ref.SaveView(ds.Owner, ds.Name, "SELECT TOP 1000000 * FROM ("+ds.SQL+") AS v", ds.Meta); err != nil {
			t.Fatalf("reference body of %s: %v", ds.FullName(), err)
		}
		if err := ref.SetVisibility(ds.Owner, ds.Name, ds.Visibility); err != nil {
			t.Fatal(err)
		}
		for user := range ds.SharedWith {
			if err := ref.ShareWith(ds.Owner, ds.Name, user); err != nil {
				t.Fatal(err)
			}
		}
		rewritten++
	}

	queries, failing, replanned := 0, 0, 0
	for _, e := range corpus.Entries {
		if strings.Contains(strings.ToLower(e.SQL), "getdate") {
			continue // a new clock reading per execution
		}
		queries++
		if mp, err := merged.Explain(e.User, e.SQL); err == nil {
			if rp, err := ref.Explain(e.User, e.SQL); err == nil && mp.Template() != rp.Template() {
				replanned++
			}
		}
		for _, dop := range []int{1, 2, 8} {
			opts := catalog.QueryOptions{Parallelism: dop}
			got := outcomeKey(merged.QueryWithOptions(e.User, e.SQL, opts))
			want := outcomeKey(ref.QueryWithOptions(e.User, e.SQL, opts))
			if got != want {
				t.Errorf("query %q (user %s) at DOP %d:\nmerged:\n%s\nreference:\n%s", e.SQL, e.User, dop, got, want)
			}
			if dop == 1 && strings.HasPrefix(got, "error: ") {
				failing++
			}
		}
	}
	if rewritten < 100 || queries < 1000 {
		t.Fatalf("only %d views rewritten and %d queries replayed; differential too thin", rewritten, queries)
	}
	if replanned < 200 {
		t.Fatalf("only %d queries read a view the reference keeps as its own block", replanned)
	}
	t.Logf("%d views in reference form; %d queries (%d failing in both, %d planned differently) identical at DOP 1/2/8",
		rewritten, queries, failing, replanned)
}

// outcomeKey is a query's error text or its corpusResultKey.
func outcomeKey(res *engine.Result, _ *catalog.LogEntry, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return corpusResultKey(res)
}
