package history

// Per-user and per-plan-template resource accounting. The paper's central
// observation — many users, short heterogeneous queries — means aggregate
// histograms hide who is actually consuming the platform; fair scheduling
// and admission control need a metered account per principal. The
// analyzer's per-user and per-template accounts carry each finished query's
// resource deltas (estimated CPU seconds, result rows, result bytes), and
// this file reads them three ways: the GET /api/insights/usage JSON
// (Analyzer.Usage), the Prometheus series
// sqlshare_user_{cpu_seconds,rows,bytes}_total{user=...} (ExportUsage), and
// offline via workload-report, which replays the log through the same Fold.

import (
	"sort"
	"time"

	"sqlshare/internal/obs"
)

// UsageStats is one account's cumulative consumption.
type UsageStats struct {
	Queries    int64   `json:"queries"`
	Failed     int64   `json:"failed"`
	CacheHits  int64   `json:"cacheHits"`
	CPUSeconds float64 `json:"cpuSeconds"`
	Rows       int64   `json:"rows"`
	Bytes      int64   `json:"bytes"`
}

// add charges one entry, whose CPU estimate is cpu, to the account.
func (s *UsageStats) add(e *Entry, cpu float64) {
	s.Queries++
	s.CPUSeconds += cpu
	s.Rows += int64(e.RowsReturned)
	s.Bytes += e.ResultBytes
	if e.Failed() {
		s.Failed++
	}
	if e.Cache == CacheHit {
		s.CacheHits++
	}
}

// UserUsage is UsageStats keyed by user.
type UserUsage struct {
	User string `json:"user"`
	UsageStats
}

// DigestUsage is UsageStats keyed by plan-template digest.
type DigestUsage struct {
	Digest string `json:"digest"`
	UsageStats
}

// UsageSnapshot is the point-in-time census served by /api/insights/usage.
type UsageSnapshot struct {
	Users []UserUsage `json:"users"`
	// Templates is capped to the top consumers by CPU (the digest space is
	// unbounded; the user space is not, which is why only user series are
	// exported as Prometheus labels).
	Templates []DigestUsage `json:"templates"`
	Since     time.Time     `json:"since"`
}

// maxTemplateRows bounds the per-template table in snapshots.
const maxTemplateRows = 100

// Usage returns the accounts' census: every named user (sorted by CPU
// descending, then name) and the top templates by CPU, the statements
// without a plan digest accounted as template "none".
func (a *Analyzer) Usage() UsageSnapshot {
	a.mu.Lock()
	snap := UsageSnapshot{Users: a.userUsage(), Templates: a.topTemplates(), Since: a.since}
	a.mu.Unlock()
	sort.Slice(snap.Users, func(i, j int) bool {
		if snap.Users[i].CPUSeconds != snap.Users[j].CPUSeconds {
			return snap.Users[i].CPUSeconds > snap.Users[j].CPUSeconds
		}
		return snap.Users[i].User < snap.Users[j].User
	})
	return snap
}

// topTemplates returns the maxTemplateRows template accounts that come first
// by CPU descending, then digest, in that order. It selects while iterating,
// keeping the leaders sorted, and copies only an account that enters them.
// The caller holds a.mu.
func (a *Analyzer) topTemplates() []DigestUsage {
	var top []DigestUsage
	offer := func(digest string, s *UsageStats) {
		// at is the number of leaders that come before the offered account.
		at := sort.Search(len(top), func(i int) bool {
			u := &top[i]
			return s.CPUSeconds > u.CPUSeconds || (s.CPUSeconds == u.CPUSeconds && digest < u.Digest)
		})
		if at == maxTemplateRows {
			return
		}
		if len(top) < maxTemplateRows {
			top = append(top, DigestUsage{})
		}
		copy(top[at+1:], top[at:])
		top[at] = DigestUsage{Digest: digest, UsageStats: *s}
	}
	for d, t := range a.templates {
		offer(d, &t.UsageStats)
	}
	if a.untemplated.Queries > 0 {
		offer("none", &a.untemplated)
	}
	return top
}

// userUsage returns the named users' accounts, in no particular order (nil
// when there are none). The caller holds a.mu.
func (a *Analyzer) userUsage() []UserUsage {
	var out []UserUsage
	for name, u := range a.users {
		if name != "" {
			out = append(out, UserUsage{User: name, UsageStats: u.UsageStats})
		}
	}
	return out
}

// ExportUsage registers the per-user account series on r —
// sqlshare_user_{cpu_seconds,rows,bytes}_total{user=...} — read at scrape
// time from the analyzer current returns, so they follow a history swap and
// keep no copy of the accounts.
func ExportUsage(r *obs.Registry, current func() *Analyzer) {
	for _, series := range []struct {
		name, help string
		value      func(*UsageStats) float64
	}{
		{"sqlshare_user_cpu_seconds_total", "Estimated CPU seconds consumed per user (compile + execute wall time).",
			func(s *UsageStats) float64 { return s.CPUSeconds }},
		{"sqlshare_user_rows_total", "Result rows returned per user.",
			func(s *UsageStats) float64 { return float64(s.Rows) }},
		{"sqlshare_user_bytes_total", "Estimated result bytes returned per user.",
			func(s *UsageStats) float64 { return float64(s.Bytes) }},
	} {
		r.NewCounterFuncVec(series.name, series.help, "user", func() map[string]float64 {
			a := current()
			a.mu.Lock()
			users := a.userUsage()
			a.mu.Unlock()
			out := make(map[string]float64, len(users))
			for i := range users {
				out[users[i].User] = series.value(&users[i].UsageStats)
			}
			return out
		})
	}
}
