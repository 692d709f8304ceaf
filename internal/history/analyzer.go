package history

import (
	"sort"
	"sync"
	"time"

	"sqlshare/internal/obs"
)

// DefLengthBuckets are the query-length buckets (ASCII characters) of the
// live length distribution, spanning the range of Figure 7.
var DefLengthBuckets = []float64{16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192}

// maxSlowKept bounds the recent-slow-statements ring.
const maxSlowKept = 256

// maxClosedSessions bounds the recent-closed-sessions ring.
const maxClosedSessions = 512

// Analyzer folds entries into the live §4-style aggregates incrementally,
// so the running server can answer the questions the paper asked of its
// multi-year log without replaying it. It keeps one account per user and
// one per plan template, and the per-user resource accounting (usage.go)
// reads the same two. All methods are safe for concurrent use.
type Analyzer struct {
	mu sync.Mutex

	slowThreshold time.Duration
	// since is when the accounts began: the usage snapshot's window start.
	since time.Time

	first, last time.Time
	queries     int
	failed      int
	cacheHits   int
	rows        int64
	runtime     time.Duration

	// latency and lengths reuse the obs histogram machinery (lock-free
	// observation, Prometheus-compatible quantiles), unregistered: the
	// analyzer reads their quantiles itself.
	latency *obs.Histogram
	lengths *obs.Histogram

	operators map[string]int
	tables    map[string]*tableAgg
	templates map[string]*templateAgg // by plan digest
	users     map[string]*userAgg
	// untemplated is the account of the statements that never reached a
	// plan (no digest): the usage snapshot's "none" template.
	untemplated UsageStats

	sessions       *Sessionizer
	sessionsClosed int
	closedSessions []Session // ring, most recent last
	slow           []*Entry  // ring, most recent last
}

type tableAgg struct {
	touches int
	columns map[string]int
}

// templateAgg is one plan template's account: how often it ran and what it
// consumed, and its latency histogram, which feeds the per-template p99
// overload signal. The histograms are capped at maxTemplateLat (first-come)
// so an adversarial workload cannot grow them without bound; past the cap
// lat is nil.
type templateAgg struct {
	UsageStats
	lat *obs.Histogram
}

// userAgg is one user's account: the census of §6.2 and the resource usage.
// The usage snapshot leaves out the anonymous user "", whom no account
// names.
type userAgg struct {
	UsageStats
	runtime  time.Duration
	distinct map[uint64]struct{} // TextHash of the SQL text; at most maxDistinctPerUser
	// atLeast is set once a new hash was dropped at the cap: len(distinct)
	// is then a lower bound.
	atLeast  bool
	first    time.Time
	lastSeen time.Time
	closed   int // sessions; the user's open one is not counted
}

// NewAnalyzer creates an empty analyzer. gap <= 0 uses DefaultSessionGap;
// slowThreshold <= 0 marks no statement slow.
func NewAnalyzer(gap, slowThreshold time.Duration) *Analyzer {
	return &Analyzer{
		slowThreshold: slowThreshold,
		since:         time.Now(),
		sessions:      NewSessionizer(gap),
		latency:       obs.NewHistogram(nil),
		lengths:       obs.NewHistogram(DefLengthBuckets),
		operators:     map[string]int{},
		tables:        map[string]*tableAgg{},
		templates:     map[string]*templateAgg{},
		users:         map[string]*userAgg{},
	}
}

// maxTemplateLat bounds the per-template latency histogram map.
const maxTemplateLat = 1024

// maxDistinctPerUser bounds userAgg.distinct (≈ 0.5 MiB of hashes per user):
// SQLShare statements are written once, so without a cap the set grows with
// every query a user ever ran. Past it the census reports "at least".
const maxDistinctPerUser = 1 << 16

// Fold incorporates one entry and reports whether it was slow: at or above
// the slow threshold, the one place that threshold is compared.
func (a *Analyzer) Fold(e *Entry) (slow bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.queries++
	if e.Failed() {
		a.failed++
	}
	if e.Cache == CacheHit {
		a.cacheHits++
	}
	a.rows += int64(e.RowsReturned)
	a.runtime += e.Runtime
	a.latency.Observe(e.Runtime.Seconds())
	a.lengths.Observe(float64(len(e.SQL)))
	if a.first.IsZero() || e.Time.Before(a.first) {
		a.first = e.Time
	}
	if e.Time.After(a.last) {
		a.last = e.Time
	}
	for _, ds := range e.Datasets {
		a.tableAgg(ds).touches++
	}
	if m := e.executed(); m != nil {
		for op, n := range m.OperatorCounts {
			a.operators[op] += n
		}
		for tbl, cols := range m.Columns {
			// The plan's column map is keyed by the table name as written in
			// the query; fold it onto the matching dataset full name so the
			// census counts each dataset once.
			t := a.tableAgg(qualifyTable(tbl, e.Datasets))
			for _, col := range cols {
				t.columns[col]++
			}
		}
	}
	cpu := cpuSeconds(e)
	if e.Digest == "" {
		a.untemplated.add(e, cpu)
	} else {
		t := a.templates[e.Digest]
		if t == nil {
			t = &templateAgg{}
			if len(a.templates) < maxTemplateLat {
				t.lat = obs.NewHistogram(nil)
			}
			a.templates[e.Digest] = t
		}
		t.add(e, cpu)
		if t.lat != nil {
			t.lat.Observe(e.Runtime.Seconds())
		}
	}
	a.foldUser(e, cpu)
	slow = a.slowThreshold > 0 && e.Runtime >= a.slowThreshold
	if slow {
		a.slow = append(a.slow, e)
		if len(a.slow) > maxSlowKept {
			a.slow = a.slow[len(a.slow)-maxSlowKept:]
		}
	}
	return slow
}

// cpuSeconds is the entry's CPU estimate: compile+execute wall time — honest
// for this engine's mostly-serial phases; parallel operators under-report
// slightly, which keeps the estimate conservative for admission control. A
// replayed log line can carry negative times; they count as none.
func cpuSeconds(e *Entry) float64 { return max((e.Compile + e.Execute).Seconds(), 0) }

// qualifyTable maps a bare table reference onto the dataset full name
// that ends with it ("water" → "alice.water"); names matching no dataset
// (CTEs, aliases the plan kept) pass through unchanged.
func qualifyTable(name string, datasets []string) string {
	for _, full := range datasets {
		if full == name {
			return full
		}
		if len(full) > len(name) && full[len(full)-len(name)-1] == '.' &&
			full[len(full)-len(name):] == name {
			return full
		}
	}
	return name
}

// tableAgg returns (creating if needed) the aggregate for one table; must
// be called with the lock held. The touch count follows direct references
// (Datasets) only — column attributions land on the same aggregate but do
// not inflate it.
func (a *Analyzer) tableAgg(name string) *tableAgg {
	t := a.tables[name]
	if t == nil {
		t = &tableAgg{columns: map[string]int{}}
		a.tables[name] = t
	}
	return t
}

func (a *Analyzer) foldUser(e *Entry, cpu float64) {
	u := a.users[e.User]
	if u == nil {
		u = &userAgg{distinct: map[uint64]struct{}{}, first: e.Time}
		a.users[e.User] = u
	}
	u.add(e, cpu)
	u.runtime += e.Runtime
	if h := TextHash(e.SQL); len(u.distinct) < maxDistinctPerUser {
		u.distinct[h] = struct{}{}
	} else if _, seen := u.distinct[h]; !seen {
		u.atLeast = true
	}
	if e.Time.After(u.lastSeen) {
		u.lastSeen = e.Time
	}
	if closed, ok := a.sessions.Add(e.User, e.Time, e.Datasets); ok {
		u.closed++
		a.sessionsClosed++
		a.closedSessions = append(a.closedSessions, closed)
		if len(a.closedSessions) > maxClosedSessions {
			a.closedSessions = a.closedSessions[len(a.closedSessions)-maxClosedSessions:]
		}
	}
}

// TextHash hashes SQL text with runs of whitespace collapsed and nothing
// else changed — the paper's weakest query-equivalence metric (exact string
// match, §6.2), shared by the live distinct-queries-per-user census and the
// batch string-distinct tiers of Table 3 and the reuse estimator. It streams
// the normalization through FNV-1a byte by byte: this runs on every
// statement, and building the intermediate strings costs more than the
// statement's own fold.
func TextHash(sql string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	var h uint64 = offset64
	pendingSpace := false
	started := false
	for i := 0; i < len(sql); i++ {
		c := sql[i]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\v' || c == '\f' {
			pendingSpace = started
			continue
		}
		if pendingSpace {
			h = (h ^ ' ') * prime64
			pendingSpace = false
		}
		h = (h ^ uint64(c)) * prime64
		started = true
	}
	return h
}

// ---------------------------------------------------------------- views

// Summary is the headline aggregate served at /api/insights/summary.
type Summary struct {
	Since         time.Time `json:"since"`
	LastStatement time.Time `json:"lastStatement"`
	Queries       int       `json:"queries"`
	Failed        int       `json:"failed"`
	// CacheHits counts statements answered from the result cache (their
	// operator stats are excluded from the operator aggregates).
	CacheHits    int   `json:"cacheHits"`
	RowsReturned int64 `json:"rowsReturned"`
	Users        int   `json:"users"`
	// DistinctTemplates counts distinct plan digests — the paper's
	// strongest equivalence metric, live (§6.2).
	DistinctTemplates int `json:"distinctTemplates"`
	// DistinctOperators counts distinct physical operators seen.
	DistinctOperators int     `json:"distinctOperators"`
	MeanRuntimeMs     float64 `json:"meanRuntimeMs"`
	P50Ms             float64 `json:"p50Ms"`
	P90Ms             float64 `json:"p90Ms"`
	P99Ms             float64 `json:"p99Ms"`
	MeanLengthChars   float64 `json:"meanLengthChars"`
	Sessions          int     `json:"sessions"` // closed + open
	SlowStatements    int     `json:"slowStatements"`
}

// Summarize renders the headline aggregate.
func (a *Analyzer) Summarize() Summary {
	a.mu.Lock()
	defer a.mu.Unlock()
	s := Summary{
		Since:             a.first,
		LastStatement:     a.last,
		Queries:           a.queries,
		Failed:            a.failed,
		CacheHits:         a.cacheHits,
		RowsReturned:      a.rows,
		Users:             len(a.users),
		DistinctTemplates: len(a.templates),
		DistinctOperators: len(a.operators),
		Sessions:          a.sessionsClosed + len(a.users), // every user seen has one open
		SlowStatements:    len(a.slow),
	}
	if a.queries > 0 {
		s.MeanRuntimeMs = float64(a.runtime.Nanoseconds()) / 1e6 / float64(a.queries)
		s.MeanLengthChars = a.lengths.Sum() / float64(a.queries)
	}
	s.P50Ms = a.latency.Quantile(0.50) * 1000
	s.P90Ms = a.latency.Quantile(0.90) * 1000
	s.P99Ms = a.latency.Quantile(0.99) * 1000
	return s
}

// OperatorFreq is one row of the live operator-frequency mix (Fig 9).
type OperatorFreq struct {
	Operator string  `json:"operator"`
	Count    int     `json:"count"`
	Fraction float64 `json:"fraction"`
}

// OperatorMix returns the operator-frequency mix, most frequent first.
func (a *Analyzer) OperatorMix() []OperatorFreq {
	a.mu.Lock()
	defer a.mu.Unlock()
	total := 0
	for _, n := range a.operators {
		total += n
	}
	out := make([]OperatorFreq, 0, len(a.operators))
	for op, n := range a.operators {
		f := OperatorFreq{Operator: op, Count: n}
		if total > 0 {
			f.Fraction = float64(n) / float64(total)
		}
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Operator < out[j].Operator
	})
	return out
}

// TableTouch is one row of the live table/column touch census (Fig 4).
type TableTouch struct {
	Table   string         `json:"table"`
	Touches int            `json:"touches"`
	Columns map[string]int `json:"columns,omitempty"`
}

// TableTouches returns per-table touch counts, most touched first.
func (a *Analyzer) TableTouches() []TableTouch {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]TableTouch, 0, len(a.tables))
	for name, t := range a.tables {
		cols := make(map[string]int, len(t.columns))
		for c, n := range t.columns {
			cols[c] = n
		}
		out = append(out, TableTouch{Table: name, Touches: t.touches, Columns: cols})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Touches != out[j].Touches {
			return out[i].Touches > out[j].Touches
		}
		return out[i].Table < out[j].Table
	})
	return out
}

// UserInsight is one row of the live per-user census: query volume,
// distinct statements (§6.2's distinct-queries-per-user), and sessions.
type UserInsight struct {
	User            string    `json:"user"`
	Queries         int       `json:"queries"`
	Failed          int       `json:"failed"`
	DistinctQueries int       `json:"distinctQueries"`
	Sessions        int       `json:"sessions"` // closed + open
	MeanRuntimeMs   float64   `json:"meanRuntimeMs"`
	FirstSeen       time.Time `json:"firstSeen"`
	LastSeen        time.Time `json:"lastSeen"`

	// DistinctQueriesAtLeast marks a DistinctQueries that stopped counting at
	// maxDistinctPerUser: the user ran at least that many distinct statements.
	DistinctQueriesAtLeast bool `json:"distinctQueriesAtLeast,omitempty"`
}

// UserInsights returns the per-user census, most active first.
func (a *Analyzer) UserInsights() []UserInsight {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]UserInsight, 0, len(a.users))
	for name, u := range a.users {
		ui := UserInsight{
			User:                   name,
			Queries:                int(u.Queries),
			Failed:                 int(u.Failed),
			DistinctQueries:        len(u.distinct),
			DistinctQueriesAtLeast: u.atLeast,
			Sessions:               u.closed + 1,
			FirstSeen:              u.first,
			LastSeen:               u.lastSeen,
		}
		if u.Queries > 0 {
			ui.MeanRuntimeMs = float64(u.runtime.Nanoseconds()) / 1e6 / float64(u.Queries)
		}
		out = append(out, ui)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Queries != out[j].Queries {
			return out[i].Queries > out[j].Queries
		}
		return out[i].User < out[j].User
	})
	return out
}

// Sessions returns recently closed sessions plus every open one, in start
// order.
func (a *Analyzer) Sessions() []Session {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := append(a.sessions.Open(), a.closedSessions...)
	SortSessions(out)
	return out
}

// SlowStatements returns the retained slow statements, newest first.
func (a *Analyzer) SlowStatements() []*Entry {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]*Entry, len(a.slow))
	for i, e := range a.slow {
		out[len(a.slow)-1-i] = e
	}
	return out
}

// LengthHistogram exposes the query-length distribution (bounds in
// characters, per-bucket counts, final bucket +Inf).
func (a *Analyzer) LengthHistogram() (bounds []float64, counts []int64) {
	return a.lengths.Snapshot()
}

// LatencyHistogram exposes the runtime distribution (bounds in seconds,
// per-bucket counts, final bucket +Inf).
func (a *Analyzer) LatencyHistogram() (bounds []float64, counts []int64) {
	return a.latency.Snapshot()
}

// TemplateP99 is one plan template's tail latency, for the overload view.
type TemplateP99 struct {
	Digest string  `json:"digest"`
	Count  int64   `json:"count"`
	P99Ms  float64 `json:"p99Ms"`
}

// TemplateP99s returns the tracked templates' p99 runtimes, slowest first
// (ties broken by digest for determinism).
func (a *Analyzer) TemplateP99s() []TemplateP99 {
	a.mu.Lock()
	hists := make(map[string]*obs.Histogram, min(len(a.templates), maxTemplateLat))
	for d, t := range a.templates {
		if t.lat != nil {
			hists[d] = t.lat
		}
	}
	a.mu.Unlock()
	out := make([]TemplateP99, 0, len(hists))
	for d, h := range hists {
		out = append(out, TemplateP99{Digest: d, Count: h.Count(), P99Ms: h.Quantile(0.99) * 1000})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].P99Ms != out[j].P99Ms {
			return out[i].P99Ms > out[j].P99Ms
		}
		return out[i].Digest < out[j].Digest
	})
	return out
}

// WorstTemplateP99 returns the largest per-template p99 runtime in seconds
// (0 when nothing is tracked) — the sqlshare_overload_template_p99_seconds
// gauge value.
func (a *Analyzer) WorstTemplateP99() float64 {
	a.mu.Lock()
	hists := make([]*obs.Histogram, 0, min(len(a.templates), maxTemplateLat))
	for _, t := range a.templates {
		if t.lat != nil {
			hists = append(hists, t.lat)
		}
	}
	a.mu.Unlock()
	var worst float64
	for _, h := range hists {
		if q := h.Quantile(0.99); q > worst {
			worst = q
		}
	}
	return worst
}

// Replay folds a recorded history (e.g. read back from the JSONL log with
// ReadLog) into a fresh analyzer — the offline path of cmd/workload-report.
// Live and offline are the same Fold over the same entries, so every
// aggregate, the usage accounts included, reconciles.
func Replay(entries []*Entry, gap, slowThreshold time.Duration) *Analyzer {
	a := NewAnalyzer(gap, slowThreshold)
	for _, e := range entries {
		a.Fold(e)
	}
	return a
}
