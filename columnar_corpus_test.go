package sqlshare

import (
	"runtime"
	"strings"
	"testing"

	"sqlshare/internal/catalog"
	"sqlshare/internal/engine"
	"sqlshare/internal/qcache"
	"sqlshare/internal/storage"
	"sqlshare/internal/synth"
)

// columnarTestSetup shrinks segments so the synthetic corpus tables span
// many segments (making zone maps, dictionary encoding and segment-chunked
// parallelism all real), raises the parallel fan-out the way the parallel
// corpus test does, and restores everything — including the vectorized
// toggle — on cleanup.
func columnarTestSetup(t testing.TB) {
	t.Helper()
	prevSeg := storage.SetSegmentRows(64)
	prevMorsel, prevMin := engine.SetParallelTuning(8, 16)
	prevProcs := runtime.GOMAXPROCS(8)
	prevVec := engine.SetVectorizedEnabled(true)
	t.Cleanup(func() {
		storage.SetSegmentRows(prevSeg)
		engine.SetParallelTuning(prevMorsel, prevMin)
		runtime.GOMAXPROCS(prevProcs)
		engine.SetVectorizedEnabled(prevVec)
	})
}

// TestColumnarCorpusDifferential replays every successful query of a
// synthetic SQLShare workload twice per degree of parallelism: once with
// the vectorized columnar path disabled (the pure row engine — ground
// truth) and once enabled, at DOP 1, 2 and 8. Results must be
// byte-identical in every combination: the columnar path emits survivor
// rows by reference from the canonical row view and mirrors the row
// engine's comparison and fold semantics exactly, which is the invariant
// the version-fenced result cache depends on.
func TestColumnarCorpusDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus replay is not short")
	}
	columnarTestSetup(t)

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
		engine.SetVectorizedEnabled(false)
		rowRes, _, err := corpus.Catalog.QueryWithOptions(e.User, e.SQL, catalog.QueryOptions{Parallelism: 1})
		engine.SetVectorizedEnabled(true)
		if err != nil {
			// Succeeded at generation time but its datasets were later
			// rewritten or deleted by the generator's own workload.
			continue
		}
		replayed++
		want := corpusResultKey(rowRes)
		for _, dop := range []int{1, 2, 8} {
			vecRes, _, err := corpus.Catalog.QueryWithOptions(e.User, e.SQL, catalog.QueryOptions{Parallelism: dop})
			if err != nil {
				t.Errorf("query %q (user %s): vectorized run failed at parallelism %d but row path succeeded: %v",
					e.SQL, e.User, dop, err)
				continue
			}
			if got := corpusResultKey(vecRes); got != want {
				t.Errorf("query %q (user %s): vectorized result at parallelism %d differs from row path\nrow:\n%s\nvectorized:\n%s",
					e.SQL, e.User, dop, want, got)
			}
		}
	}
	if replayed < 100 {
		t.Fatalf("only %d queries replayed cleanly; differential coverage too thin", replayed)
	}
	t.Logf("replayed %d/%d corpus queries, vectorized vs row path at parallelism 1/2/8", replayed, len(entries))
}

// TestColumnarCacheComposition proves the columnar path composes with the
// PR 5 version-fenced result cache: vectorized executions fill the cache,
// row-path executions are answered from those entries byte-identically,
// and after real mutations (Append) the fenced re-execution — again
// vectorized — still agrees with a fresh row-path run. Any divergence
// between the two execution strategies would surface here as a "stale"
// cache read.
func TestColumnarCacheComposition(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus replay is not short")
	}
	columnarTestSetup(t)

	corpus, _, err := synth.GenerateSQLShare(synth.SQLShareConfig{
		Seed: 7, Users: 20, TargetQueries: 400,
	})
	if err != nil {
		t.Fatal(err)
	}
	qc := qcache.New(256 << 20)
	corpus.Catalog.SetQueryCache(qc)

	entries := corpus.Succeeded()
	nondeterministic := func(sql string) bool {
		return strings.Contains(strings.ToLower(sql), "getdate")
	}

	type replayedEntry struct{ user, sql string }
	var replayed []replayedEntry
	for _, e := range entries {
		if nondeterministic(e.SQL) {
			continue
		}
		// Vectorized execution fills the cache.
		coldRes, coldEntry, err := corpus.Catalog.QueryWithOptions(e.User, e.SQL, catalog.QueryOptions{})
		if err != nil {
			continue
		}
		// Row-path ground truth, bypassing the cache.
		engine.SetVectorizedEnabled(false)
		baseRes, _, baseErr := corpus.Catalog.QueryWithOptions(e.User, e.SQL, catalog.QueryOptions{NoCache: true})
		// Warm probe with the row path active: a hit serves the bytes the
		// vectorized run stored; a miss would execute on the row path. Both
		// must agree with ground truth.
		warmRes, warmEntry, warmErr := corpus.Catalog.QueryWithOptions(e.User, e.SQL, catalog.QueryOptions{})
		engine.SetVectorizedEnabled(true)
		if baseErr != nil || warmErr != nil {
			t.Errorf("query %q (user %s): replay errs diverge: base=%v warm=%v", e.SQL, e.User, baseErr, warmErr)
			continue
		}
		want := corpusResultKey(baseRes)
		if got := corpusResultKey(coldRes); got != want {
			t.Errorf("query %q (user %s): vectorized result differs from row path\nrow:\n%s\nvectorized:\n%s",
				e.SQL, e.User, want, got)
			continue
		}
		if got := corpusResultKey(warmRes); got != want {
			t.Errorf("query %q (user %s): cache round-trip of vectorized result differs from row path\nrow:\n%s\ncached:\n%s",
				e.SQL, e.User, want, got)
			continue
		}
		if coldEntry.Cache == catalog.CacheMiss && warmEntry.Cache != catalog.CacheHit {
			t.Errorf("query %q (user %s): vectorized fill not served back (warm=%q)", e.SQL, e.User, warmEntry.Cache)
		}
		replayed = append(replayed, replayedEntry{user: e.User, sql: e.SQL})
	}
	if len(replayed) < 100 {
		t.Fatalf("only %d queries replayed cleanly; differential coverage too thin", len(replayed))
	}

	// Mutate a batch of datasets with real rows (same scheme as the cache
	// corpus test), then replay: the fenced re-executions run vectorized
	// and must agree with fresh row-path runs.
	all := corpus.Catalog.Datasets(false)
	touched := 0
	for _, ds := range all {
		if touched >= 15 {
			break
		}
		for _, src := range all {
			if !src.IsWrapper || src.Owner != ds.Owner || src.FullName() == ds.FullName() {
				continue
			}
			if err := corpus.Catalog.Append(ds.Owner, ds.Name, src.Name); err == nil {
				touched++
				break
			}
		}
	}
	if touched == 0 {
		t.Fatal("mutation phase appended nothing; corpus shape changed?")
	}

	for _, e := range replayed {
		gotRes, _, gotErr := corpus.Catalog.QueryWithOptions(e.user, e.sql, catalog.QueryOptions{})
		engine.SetVectorizedEnabled(false)
		baseRes, _, baseErr := corpus.Catalog.QueryWithOptions(e.user, e.sql, catalog.QueryOptions{NoCache: true})
		engine.SetVectorizedEnabled(true)
		if (gotErr == nil) != (baseErr == nil) {
			t.Errorf("query %q (user %s): post-mutation outcome diverges: vectorized err=%v, row err=%v",
				e.sql, e.user, gotErr, baseErr)
			continue
		}
		if gotErr != nil {
			continue // both fail identically (e.g. the append broke a type)
		}
		if want, got := corpusResultKey(baseRes), corpusResultKey(gotRes); got != want {
			t.Errorf("query %q (user %s): post-mutation vectorized/cached result differs from row path\nrow:\n%s\ngot:\n%s",
				e.sql, e.user, want, got)
		}
	}
	st := qc.Stats()
	t.Logf("replayed %d queries through cache with %d mutated datasets; cache stats %+v", len(replayed), touched, st)
	if st.ResultHits == 0 {
		t.Error("no cache hit occurred; composition untested")
	}
}
