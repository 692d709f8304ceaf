package sqlshare

import (
	"testing"

	"sqlshare/internal/catalog"
	"sqlshare/internal/engine"
	"sqlshare/internal/obs"
	"sqlshare/internal/plan"
	"sqlshare/internal/storage"
	"sqlshare/internal/synth"
)

// TestExecutionTotalsMatchTrace: an execution's totals agree with the
// actuals its plan tree carries, so for every query of the seed-1 corpus
// run at DOP 2 the log entry's Workers is the widest fan-out on its tree (1
// when no operator ran wider), and the catalog's segment counters, summed
// from the engine's accumulators, move by the tree's summed segment counts. Morsels and
// segments are shrunk so the small synthetic tables fan out and prune.
func TestExecutionTotalsMatchTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus replay is not short")
	}
	prevSeg := storage.SetSegmentRows(64)
	prevMorsel, prevMin := engine.SetParallelTuning(8, 16)
	defer func() {
		storage.SetSegmentRows(prevSeg)
		engine.SetParallelTuning(prevMorsel, prevMin)
	}()
	corpus, _, err := synth.GenerateSQLShare(synth.SQLShareConfig{Seed: 1, Users: 60, TargetQueries: 2000})
	if err != nil {
		t.Fatal(err)
	}
	m := obs.NewPlatformMetrics(obs.NewRegistry())
	corpus.Catalog.SetMetrics(m)
	traced, parallel := 0, 0
	var scannedAll, skippedAll int64
	for _, e := range corpus.Entries {
		scanned0, skipped0 := m.SegmentsScanned.Value(), m.SegmentsSkipped.Value()
		_, entry, _ := corpus.Catalog.QueryWithOptions(e.User, e.SQL, catalog.QueryOptions{Parallelism: 2, NoCache: true})
		workers, scanned, skipped := int64(1), int64(0), int64(0)
		if entry.Plan.Executed() {
			traced++
			entry.Plan.Walk(func(n *plan.Node) {
				workers = max(workers, n.Actual.Workers)
				scanned += n.Actual.SegmentsScanned
				skipped += n.Actual.SegmentsSkipped
			})
			if workers > 1 {
				parallel++
			}
			scannedAll, skippedAll = scannedAll+scanned, skippedAll+skipped
			if int64(entry.Workers) != workers {
				t.Errorf("%s: entry.Workers = %d, trace's widest fan-out %d", e.SQL, entry.Workers, workers)
			}
		}
		if got := m.SegmentsScanned.Value() - scanned0; got != scanned {
			t.Errorf("%s: sqlshare_segments_scanned_total moved %d, trace sums %d", e.SQL, got, scanned)
		}
		if got := m.SegmentsSkipped.Value() - skipped0; got != skipped {
			t.Errorf("%s: sqlshare_segments_skipped_total moved %d, trace sums %d", e.SQL, got, skipped)
		}
	}
	t.Logf("%d of %d queries traced, %d ran parallel; %d segments scanned, %d skipped",
		traced, len(corpus.Entries), parallel, scannedAll, skippedAll)
	if traced < len(corpus.Entries)/2 || parallel == 0 || skippedAll == 0 {
		t.Fatal("the replay must trace most queries, run some parallel and prune some segments")
	}
}
