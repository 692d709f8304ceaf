package history

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"sqlshare/internal/obs"
)

// usageMeter drives an analyzer's usage accounts one resource delta at a
// time: each Record is one Fold of an entry carrying exactly those deltas
// (cpuSeconds as its compile time).
type usageMeter struct{ *Analyzer }

func newUsageMeter() usageMeter { return usageMeter{NewAnalyzer(0, 0)} }

func (u usageMeter) Record(user, digest string, cpuSeconds float64, rows, bytes int64, failed, cacheHit bool) {
	e := &Entry{
		User: user, Digest: digest, Compile: time.Duration(cpuSeconds * float64(time.Second)),
		RowsReturned: int(rows), ResultBytes: bytes,
	}
	if failed {
		e.Err = "failed"
	}
	if cacheHit {
		e.Cache = CacheHit
	}
	u.Fold(e)
}

// User returns one user's account (zero value if never seen).
func (u usageMeter) User(name string) UsageStats {
	for _, s := range u.Usage().Users {
		if s.User == name {
			return s.UsageStats
		}
	}
	return UsageStats{}
}

func TestUsageMeterAccumulatesPerUser(t *testing.T) {
	u := newUsageMeter()
	u.Record("alice", "d1", 0.5, 100, 4096, false, false)
	u.Record("alice", "d1", 0.25, 50, 2048, false, true)
	u.Record("alice", "d2", 0, 0, 0, true, false)
	u.Record("bob", "d1", 1.5, 7, 512, false, false)

	a := u.User("alice")
	if a.Queries != 3 || a.Failed != 1 || a.CacheHits != 1 {
		t.Fatalf("alice counters: %+v", a)
	}
	if a.Rows != 150 || a.Bytes != 6144 || math.Abs(a.CPUSeconds-0.75) > 1e-9 {
		t.Fatalf("alice totals: %+v", a)
	}
	if b := u.User("bob"); b.Queries != 1 || b.Rows != 7 {
		t.Fatalf("bob totals: %+v", b)
	}
	if ghost := u.User("nobody"); ghost != (UsageStats{}) {
		t.Fatalf("unknown user returned %+v", ghost)
	}
}

func TestUsageMeterIgnoresInvalidRecords(t *testing.T) {
	u := newUsageMeter()
	u.Record("", "d1", 1, 1, 1, false, false) // anonymous: no user account
	u.Record("alice", "", math.NaN(), 1, 1, false, false)
	u.Record("alice", "", -5, 1, 1, false, false)
	if len(u.Usage().Users) != 1 {
		t.Fatalf("snapshot users: %+v", u.Usage().Users)
	}
	if a := u.User("alice"); a.CPUSeconds != 0 || a.Queries != 2 {
		t.Fatalf("NaN/negative CPU must clamp to zero: %+v", a)
	}
}

func TestUsageSnapshotAggregatesTemplates(t *testing.T) {
	u := newUsageMeter()
	u.Record("alice", "shared-digest", 0.1, 10, 100, false, false)
	u.Record("bob", "shared-digest", 0.2, 20, 200, false, false)
	snap := u.Usage()
	if len(snap.Users) != 2 {
		t.Fatalf("users: %+v", snap.Users)
	}
	var tmpl *DigestUsage
	for i := range snap.Templates {
		if snap.Templates[i].Digest == "shared-digest" {
			tmpl = &snap.Templates[i]
		}
	}
	if tmpl == nil {
		t.Fatalf("shared digest missing from templates: %+v", snap.Templates)
	}
	// Template rows aggregate across users — the cross-user query-template
	// sharing the paper measures.
	if tmpl.Queries != 2 || tmpl.Rows != 30 {
		t.Fatalf("template totals: %+v", tmpl)
	}
	if snap.Since.IsZero() {
		t.Fatal("snapshot missing since timestamp")
	}
}

func TestUsageMeterExportsMetrics(t *testing.T) {
	r := obs.NewRegistry()
	u := newUsageMeter()
	ExportUsage(r, func() *Analyzer { return u.Analyzer })
	u.Record("alice", "d1", 1.25, 10, 100, true, false)
	rw := httptest.NewRecorder()
	r.Handler().ServeHTTP(rw, httptest.NewRequest("GET", "/metrics", nil))
	body := rw.Body.String()
	for _, want := range []string{
		`sqlshare_user_cpu_seconds_total{user="alice"} 1.25`,
		`sqlshare_user_rows_total{user="alice"} 10`,
		`sqlshare_user_bytes_total{user="alice"} 100`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}

func TestUsageMeterConcurrentRecord(t *testing.T) {
	u := newUsageMeter()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			user := fmt.Sprintf("user-%d", g%4)
			for i := 0; i < 200; i++ {
				u.Record(user, "digest", 0.001, 1, 8, i%10 == 0, i%5 == 0)
				_ = u.User(user)
				if i%50 == 0 {
					_ = u.Usage()
				}
			}
		}(g)
	}
	wg.Wait()
	var queries, rows int64
	for _, usr := range u.Usage().Users {
		queries += usr.Queries
		rows += usr.Rows
	}
	if queries != 1600 || rows != 1600 {
		t.Fatalf("lost updates under concurrency: queries=%d rows=%d", queries, rows)
	}
}

func TestUsageMeterStartsEmpty(t *testing.T) {
	u := newUsageMeter()
	if u.User("alice") != (UsageStats{}) {
		t.Fatal("empty accounts returned stats")
	}
	if snap := u.Usage(); len(snap.Users) != 0 || len(snap.Templates) != 0 {
		t.Fatal("empty accounts returned users or templates")
	}
}

// TestUsageTemplatesMatchFullSort: the templates Usage selects while it
// iterates are, byte for byte, the first maxTemplateRows of every account
// sorted in full by CPU descending, then digest — over 1,500 templates, whose
// CPU (a sum of a few quarter seconds) ties in long runs, and the untemplated
// account "none".
func TestUsageTemplatesMatchFullSort(t *testing.T) {
	u := newUsageMeter()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 3000; i++ {
		digest := fmt.Sprintf("digest-%d", i%1500)
		if i >= 1500 {
			digest = fmt.Sprintf("digest-%d", rng.Intn(1500))
		}
		u.Record("alice", digest, float64(rng.Intn(10))/4, 1, 1, false, false)
	}
	u.Record("bob", "", 2.5, 1, 1, false, false)
	u.mu.Lock()
	var all []DigestUsage
	for d, tm := range u.templates {
		all = append(all, DigestUsage{Digest: d, UsageStats: tm.UsageStats})
	}
	all = append(all, DigestUsage{Digest: "none", UsageStats: u.untemplated})
	u.mu.Unlock()
	if len(all) != 1501 {
		t.Fatalf("%d templates, want 1,500 and none", len(all))
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].CPUSeconds != all[j].CPUSeconds {
			return all[i].CPUSeconds > all[j].CPUSeconds
		}
		return all[i].Digest < all[j].Digest
	})
	want, err := json.Marshal(all[:maxTemplateRows])
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(u.Usage().Templates)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("selected templates differ from the full sort's first %d:\n got %.300s\nwant %.300s", maxTemplateRows, got, want)
	}
}
