package obs

// Per-user and per-plan-template resource accounting. The paper's central
// observation — many users, short heterogeneous queries — means aggregate
// histograms hide who is actually consuming the platform; fair scheduling
// and admission control (ROADMAP item 4) need a metered account per
// principal. The UsageMeter folds every finished query's resource deltas
// (estimated CPU seconds, result rows, result bytes) into per-user and
// per-plan-digest accumulators, surfaced three ways: the
// GET /api/insights/usage JSON, the Prometheus series
// sqlshare_user_{cpu_seconds,rows,bytes}_total{user=...}, and offline via
// workload-report. Its one caller is history.Analyzer.Fold, live and on
// replay alike, so live and post-hoc accounting cannot diverge.

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"
)

// UsageStats is one principal's cumulative consumption.
type UsageStats struct {
	Queries    int64   `json:"queries"`
	Failed     int64   `json:"failed"`
	CacheHits  int64   `json:"cacheHits"`
	CPUSeconds float64 `json:"cpuSeconds"`
	Rows       int64   `json:"rows"`
	Bytes      int64   `json:"bytes"`
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

// UsageMeter accumulates per-user and per-digest resource usage. All
// methods are safe for concurrent use; a nil meter is inert.
type UsageMeter struct {
	mu      sync.Mutex
	users   map[string]*UsageStats
	digests map[string]*UsageStats
	since   time.Time
}

// maxTemplateRows bounds the per-digest table in snapshots.
const maxTemplateRows = 100

// NewUsageMeter creates a meter and registers its user-labeled series on r.
// Like every registry constructor it is idempotent: a second call on the
// same registry returns the meter already bound to it.
func NewUsageMeter(r *Registry) *UsageMeter {
	u := &UsageMeter{
		users:   map[string]*UsageStats{},
		digests: map[string]*UsageStats{},
		since:   time.Now(),
	}
	first := &usageCollector{
		name:  "sqlshare_user_cpu_seconds_total",
		help:  "Estimated CPU seconds consumed per user (compile + execute wall time).",
		meter: u,
		value: func(s *UsageStats) string { return formatFloat(s.CPUSeconds) },
		num:   func(s *UsageStats) float64 { return s.CPUSeconds },
	}
	if got := r.register(first).(*usageCollector); got != first {
		return got.meter // registry already carries a meter; rebind to it
	}
	r.register(&usageCollector{
		name:  "sqlshare_user_rows_total",
		help:  "Result rows returned per user.",
		meter: u,
		value: func(s *UsageStats) string { return fmt.Sprintf("%d", s.Rows) },
		num:   func(s *UsageStats) float64 { return float64(s.Rows) },
	})
	r.register(&usageCollector{
		name:  "sqlshare_user_bytes_total",
		help:  "Estimated result bytes returned per user.",
		meter: u,
		value: func(s *UsageStats) string { return fmt.Sprintf("%d", s.Bytes) },
		num:   func(s *UsageStats) float64 { return float64(s.Bytes) },
	})
	return u
}

// Record folds one finished query into the meter. cpuSeconds is the
// caller's CPU estimate (the analyzer uses compile+execute wall time);
// digest may be empty (accounted under "none").
func (u *UsageMeter) Record(user, digest string, cpuSeconds float64, rows, bytes int64, failed, cacheHit bool) {
	if u == nil || user == "" {
		return
	}
	if cpuSeconds < 0 || math.IsNaN(cpuSeconds) {
		cpuSeconds = 0
	}
	if digest == "" {
		digest = "none"
	}
	u.mu.Lock()
	defer u.mu.Unlock()
	for _, acc := range []*UsageStats{u.acc(u.users, user), u.acc(u.digests, digest)} {
		acc.Queries++
		acc.CPUSeconds += cpuSeconds
		acc.Rows += rows
		acc.Bytes += bytes
		if failed {
			acc.Failed++
		}
		if cacheHit {
			acc.CacheHits++
		}
	}
}

func (u *UsageMeter) acc(m map[string]*UsageStats, key string) *UsageStats {
	s := m[key]
	if s == nil {
		s = &UsageStats{}
		m[key] = s
	}
	return s
}

// User returns one user's stats (zero value if never seen).
func (u *UsageMeter) User(name string) UsageStats {
	if u == nil {
		return UsageStats{}
	}
	u.mu.Lock()
	defer u.mu.Unlock()
	if s := u.users[name]; s != nil {
		return *s
	}
	return UsageStats{}
}

// Snapshot returns the full census: every user (sorted by CPU descending,
// then name) and the top templates by CPU.
func (u *UsageMeter) Snapshot() UsageSnapshot {
	if u == nil {
		return UsageSnapshot{}
	}
	u.mu.Lock()
	snap := UsageSnapshot{Since: u.since}
	for name, s := range u.users {
		snap.Users = append(snap.Users, UserUsage{User: name, UsageStats: *s})
	}
	for d, s := range u.digests {
		snap.Templates = append(snap.Templates, DigestUsage{Digest: d, UsageStats: *s})
	}
	u.mu.Unlock()
	sort.Slice(snap.Users, func(i, j int) bool {
		if snap.Users[i].CPUSeconds != snap.Users[j].CPUSeconds {
			return snap.Users[i].CPUSeconds > snap.Users[j].CPUSeconds
		}
		return snap.Users[i].User < snap.Users[j].User
	})
	sort.Slice(snap.Templates, func(i, j int) bool {
		if snap.Templates[i].CPUSeconds != snap.Templates[j].CPUSeconds {
			return snap.Templates[i].CPUSeconds > snap.Templates[j].CPUSeconds
		}
		return snap.Templates[i].Digest < snap.Templates[j].Digest
	})
	if len(snap.Templates) > maxTemplateRows {
		snap.Templates = snap.Templates[:maxTemplateRows]
	}
	return snap
}

// sortedUsers returns user names in lexical order (stable scrape output).
func (u *UsageMeter) sortedUsers() []string {
	names := make([]string, 0, len(u.users))
	for n := range u.users {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// usageCollector adapts one dimension of the meter into a registry metric:
// samples are rendered from the live accumulator table at scrape time, so
// there is no double bookkeeping between the JSON and Prometheus views.
type usageCollector struct {
	name, help string
	meter      *UsageMeter
	value      func(*UsageStats) string
	num        func(*UsageStats) float64
}

func (c *usageCollector) metricName() string { return c.name }
func (c *usageCollector) metricHelp() string { return c.help }
func (c *usageCollector) metricType() string { return "counter" }

func (c *usageCollector) writeSamples(b *strings.Builder) {
	c.meter.mu.Lock()
	defer c.meter.mu.Unlock()
	for _, name := range c.meter.sortedUsers() {
		fmt.Fprintf(b, "%s{user=%q} %s\n", c.name, name, c.value(c.meter.users[name]))
	}
}

func (c *usageCollector) expvarValue() any {
	c.meter.mu.Lock()
	defer c.meter.mu.Unlock()
	out := map[string]float64{}
	for _, name := range c.meter.sortedUsers() {
		out[name] = c.num(c.meter.users[name])
	}
	return out
}
