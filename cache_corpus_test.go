package sqlshare

import (
	"strings"
	"testing"

	"sqlshare/internal/catalog"
	"sqlshare/internal/qcache"
	"sqlshare/internal/sqlparser"
	"sqlshare/internal/synth"
)

// cacheClosureTouched mirrors the catalog's version-closure walk from the
// outside: it resolves every referenced dataset with the querying user at
// every depth (exactly like execution does) and reports whether the
// transitive closure intersects the touched set. ok is false when the
// closure cannot be fully resolved — such queries bypass the cache, so no
// fencing assertion applies to them.
func cacheClosureTouched(c *catalog.Catalog, user string, q sqlparser.QueryExpr,
	touched map[string]bool, seen map[string]bool) (hit bool, ok bool) {
	for _, name := range sqlparser.ReferencedTables(q) {
		if strings.HasPrefix(name, "~base:") {
			continue
		}
		ds, err := c.Dataset(user, name)
		if err != nil {
			return false, false
		}
		full := ds.FullName()
		if seen[full] {
			continue
		}
		seen[full] = true
		if touched[full] {
			hit = true
		}
		if ds.Query != nil {
			sub, subOK := cacheClosureTouched(c, user, ds.Query, touched, seen)
			if !subOK {
				return false, false
			}
			hit = hit || sub
		}
	}
	return hit, true
}

// TestCacheCorpusDifferential replays a synthetic SQLShare workload through
// the version-fenced result cache and requires byte-identical answers at
// every step: each query uncached (ground truth), cold (fills the cache)
// and warm (must hit when the cold run stored); then, after appending real
// rows to a batch of datasets, every query again — post-mutation runs must
// agree with fresh uncached execution, queries whose dependency closure
// contains a mutated dataset must miss, and untouched queries keep hitting.
func TestCacheCorpusDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus replay is not short")
	}
	corpus, _, err := synth.GenerateSQLShare(synth.SQLShareConfig{
		Seed: 7, Users: 20, TargetQueries: 400,
	})
	if err != nil {
		t.Fatal(err)
	}
	qc := qcache.New(256 << 20)
	corpus.Catalog.SetQueryCache(qc)

	entries := corpus.Succeeded()
	if len(entries) < 100 {
		t.Fatalf("corpus too small to be meaningful: %d successful queries", len(entries))
	}

	nondeterministic := func(sql string) bool {
		return strings.Contains(strings.ToLower(sql), "getdate")
	}

	type replayedEntry struct {
		user, sql string
		warmHit   bool
	}
	var replayed []replayedEntry
	for _, e := range entries {
		baseRes, _, err := corpus.Catalog.QueryWithOptions(e.User, e.SQL, catalog.QueryOptions{NoCache: true})
		if err != nil {
			// Succeeded at generation time but its datasets were later
			// rewritten or deleted by the generator's own workload.
			continue
		}
		coldRes, coldEntry, err := corpus.Catalog.QueryWithOptions(e.User, e.SQL, catalog.QueryOptions{})
		if err != nil {
			t.Errorf("query %q (user %s): cacheable run failed but uncached succeeded: %v", e.SQL, e.User, err)
			continue
		}
		warmRes, warmEntry, err := corpus.Catalog.QueryWithOptions(e.User, e.SQL, catalog.QueryOptions{})
		if err != nil {
			t.Errorf("query %q (user %s): warm run failed: %v", e.SQL, e.User, err)
			continue
		}
		if !nondeterministic(e.SQL) {
			want := corpusResultKey(baseRes)
			if got := corpusResultKey(coldRes); got != want {
				t.Errorf("query %q (user %s): cold cached result differs from uncached\nuncached:\n%s\ncold:\n%s",
					e.SQL, e.User, want, got)
				continue
			}
			if got := corpusResultKey(warmRes); got != want {
				t.Errorf("query %q (user %s): warm cached result differs from uncached\nuncached:\n%s\nwarm:\n%s",
					e.SQL, e.User, want, got)
				continue
			}
			// A deterministic query whose cold run missed must be served
			// from cache on the immediately following warm run.
			if coldEntry.Cache == catalog.CacheMiss && warmEntry.Cache != catalog.CacheHit {
				t.Errorf("query %q (user %s): cold run missed but warm run reported %q, want hit",
					e.SQL, e.User, warmEntry.Cache)
			}
		} else if warmEntry.Cache == catalog.CacheHit {
			t.Errorf("query %q (user %s): nondeterministic query served from cache", e.SQL, e.User)
		}
		replayed = append(replayed, replayedEntry{user: e.User, sql: e.SQL, warmHit: warmEntry.Cache == catalog.CacheHit})
	}
	if len(replayed) < 100 {
		t.Fatalf("only %d queries replayed cleanly; differential coverage too thin", len(replayed))
	}

	// Upstream mutation: append an unrelated upload of matching arity to a
	// batch of datasets. Appending only wrapper (upload) sources keeps the
	// dependency graph acyclic. Real rows change, so a stale cache entry
	// would be caught by the ground-truth comparison below.
	all := corpus.Catalog.Datasets(false)
	touched := map[string]bool{}
	for _, ds := range all {
		if len(touched) >= 25 {
			break
		}
		for _, src := range all {
			if !src.IsWrapper || src.Owner != ds.Owner || src.FullName() == ds.FullName() {
				continue
			}
			if err := corpus.Catalog.Append(ds.Owner, ds.Name, src.Name); err == nil {
				touched[ds.FullName()] = true
				break
			}
		}
	}
	if len(touched) == 0 {
		t.Fatal("mutation phase appended nothing; corpus shape changed?")
	}
	t.Logf("mutated %d datasets", len(touched))

	var affectedMisses, unaffectedHits int
	for _, e := range replayed {
		gotRes, gotEntry, gotErr := corpus.Catalog.QueryWithOptions(e.user, e.sql, catalog.QueryOptions{})
		baseRes, _, baseErr := corpus.Catalog.QueryWithOptions(e.user, e.sql, catalog.QueryOptions{NoCache: true})
		if (gotErr == nil) != (baseErr == nil) {
			t.Errorf("query %q (user %s): post-mutation outcome diverges: cached err=%v, uncached err=%v",
				e.sql, e.user, gotErr, baseErr)
			continue
		}
		if gotErr != nil {
			continue // both fail identically (e.g. the append broke a type)
		}
		if !nondeterministic(e.sql) {
			if want, got := corpusResultKey(baseRes), corpusResultKey(gotRes); got != want {
				t.Errorf("query %q (user %s): STALE post-mutation result\nuncached:\n%s\ncached:\n%s",
					e.sql, e.user, want, got)
				continue
			}
		}
		q, err := sqlparser.Parse(e.sql)
		if err != nil {
			continue
		}
		affected, known := cacheClosureTouched(corpus.Catalog, e.user, q, touched, map[string]bool{})
		if !known {
			continue
		}
		if affected {
			// The first post-mutation probe of an affected query must not
			// be answered by a pre-mutation entry.
			if gotEntry.Cache == catalog.CacheHit {
				t.Errorf("query %q (user %s): served from cache although its dependency closure was mutated",
					e.sql, e.user)
			} else {
				affectedMisses++
			}
		} else if e.warmHit && gotEntry.Cache == catalog.CacheHit {
			unaffectedHits++
		}
	}
	if affectedMisses == 0 {
		t.Error("no query was fenced out by the mutations; fencing untested")
	}
	if unaffectedHits == 0 {
		t.Error("no untouched query kept its cache entry; fence granularity too coarse")
	}
	st := qc.Stats()
	t.Logf("replayed %d queries; post-mutation: %d fenced misses, %d surviving hits; cache stats %+v",
		len(replayed), affectedMisses, unaffectedHits, st)
	if st.ResultHits == 0 || st.ResultMisses == 0 {
		t.Errorf("implausible cache stats: %+v", st)
	}
}
