// Package history is the query log and the continuous workload-insights
// subsystem: it turns the paper's retrospective query-log study (§4–§6)
// into an always-on service over the live log. Every finished query is one
// Entry — SQL text, user, datasets, timings, row counts, error, plan, plan
// digest and the per-operator execution trace — and History.Record is the
// one call that folds it: into a bounded in-memory ring (the only in-memory
// query log there is), into an incremental analyzer, into the platform's
// per-query metrics, and, optionally, into an append-only JSONL log with
// size-based rotation. The analyzer maintains the operator-frequency mix
// (Fig 9), table/column touch counts (Fig 4), latency and query-length
// distributions (Fig 7), distinct queries per user (§6.2), user sessions
// grouped by idle gaps (§7) and one account per user and per plan template
// (the resource usage, usage.go), and answers the REST insights endpoints;
// the JSONL log is a server's full corpus and lets cmd/workload-report
// reproduce the same aggregates offline after the server process is gone.
package history

import (
	"log/slog"
	"strings"
	"sync"
	"time"

	"sqlshare/internal/obs"
	"sqlshare/internal/plan"
)

// Config tunes a History instance. The zero value is usable: a 1024-entry
// ring, no persistence, no slow-query log, no metrics, the conventional
// 30-minute session gap. There is no usage meter to attach: the usage
// accounts are the analyzer's, and start with the history.
type Config struct {
	// RingSize bounds the in-memory ring (default 1024).
	RingSize int
	// LogPath enables JSONL persistence when non-empty.
	LogPath string
	// LogMaxBytes triggers rotation (default 64 MiB); LogKeep is how many
	// rotated generations survive (default 3).
	LogMaxBytes int64
	LogKeep     int
	// SlowThreshold marks statements at or above this runtime as slow:
	// they are logged through Logger with their plan digest and counted in
	// the slow-query metric. Zero disables the slow-query log.
	SlowThreshold time.Duration
	// SessionGap is the idle threshold separating user sessions (default
	// DefaultSessionGap).
	SessionGap time.Duration
	// Logger receives slow-query and log-rotation records (default
	// slog.Default()).
	Logger *slog.Logger
	// Metrics, when set, is the platform bundle every recorded statement is
	// observed into: the query counters and latency histograms, the cache
	// hit/miss counts, history records, and slow statements by plan digest.
	Metrics *obs.PlatformMetrics
}

// History is the query log — ID sequence, ring, live aggregates, JSONL.
// All methods are safe for concurrent use.
type History struct {
	cfg      Config
	analyzer *Analyzer
	log      *LogWriter // nil when persistence is off

	// mu makes an entry's ID, its ring slot and its fold into the analyzer
	// one step, so ring order, fold order and ID order are the same order.
	mu     sync.Mutex
	issued int      // entries recorded so far; the newest entry's ID
	held   int      // of which the ring still holds the newest this many
	ring   []*Entry // entry with ID n sits at ring[(n-1) % len(ring)]
}

// New builds a History from cfg. It opens (and appends to) the JSONL log
// when cfg.LogPath is set, and fails only if that fails.
func New(cfg Config) (*History, error) {
	if cfg.RingSize <= 0 {
		cfg.RingSize = 1024
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	h := &History{
		cfg:      cfg,
		ring:     make([]*Entry, cfg.RingSize),
		analyzer: NewAnalyzer(cfg.SessionGap, cfg.SlowThreshold),
	}
	if cfg.LogPath != "" {
		lw, err := NewLogWriter(cfg.LogPath, cfg.LogMaxBytes, cfg.LogKeep)
		if err != nil {
			return nil, err
		}
		lw.onRotate = func(gen string) {
			cfg.Logger.Info("history log rotated", "path", cfg.LogPath, "rotatedTo", gen)
		}
		h.log = lw
	}
	return h, nil
}

// Record gives a finished query its ID and folds it into the history: the
// ring and the live aggregates and accounts, then — outside the lock — the
// metrics, the slow-query log past the threshold, and the JSONL log. It is
// the only call the query path makes with a finished entry, and the only
// place a finished query is accounted.
func (h *History) Record(e *Entry) {
	h.mu.Lock()
	h.issued++
	e.ID = h.issued
	h.put(e)
	slow := h.analyzer.Fold(e)
	h.mu.Unlock()
	digest := e.Digest
	if digest == "" {
		digest = "none"
	}
	if m := h.cfg.Metrics; m != nil {
		observe(m, e)
		if slow {
			m.SlowQueries.With(digest).Inc()
		}
	}
	if slow {
		h.cfg.Logger.Warn("slow query",
			"user", e.User,
			"digest", digest,
			"traceId", e.TraceID,
			"runtimeMs", millis(e.Runtime),
			"rows", e.RowsReturned,
			"error", e.Err,
			"sql", truncateSQL(e.SQL, 400),
		)
	}
	if h.log != nil {
		if err := h.log.Append(e); err != nil {
			h.cfg.Logger.Error("history log append failed", "path", h.cfg.LogPath, "error", err)
		}
	}
}

// observe reports one finished statement to the platform's per-query
// instruments. The cache-hit histogram wants the full round trip (Runtime),
// not the phase split.
func observe(m *obs.PlatformMetrics, e *Entry) {
	m.HistoryRecords.Inc()
	m.QueriesTotal.Inc()
	switch e.Cache {
	case CacheHit:
		m.CacheHits.Inc()
		m.CacheHitSeconds.Observe(e.Runtime.Seconds())
	case CacheMiss:
		m.CacheMisses.Inc()
	}
	m.CompileSeconds.Observe(e.Compile.Seconds())
	if e.Plan != nil && e.Cache != CacheHit {
		// The run compiled its own plan (a hit borrows the fill run's).
		m.ExecSeconds.Observe(e.Execute.Seconds())
	}
	if e.Workers > 1 {
		m.ParallelQueries.Inc()
	}
	if e.Failed() {
		m.QueriesFailed.Inc()
		if e.Aborted {
			m.QueriesAborted.Inc()
		}
	} else {
		m.RowsReturned.Add(int64(e.RowsReturned))
	}
	if e.Plan.Executed() {
		var scanned int64
		e.Plan.Walk(func(n *plan.Node) {
			if n.Object != "" {
				scanned += n.Actual.Rows
			}
		})
		m.RowsScanned.Add(scanned)
	}
}

// Continue makes h carry on where prev stopped: h takes over prev's ID
// sequence and as much of prev's window as its own ring holds, so swapping a
// catalog's history keeps IDs dense and Log() continuous. The aggregates
// start empty. Call before h records anything.
func (h *History) Continue(prev *History) {
	window := prev.Log()
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, e := range window {
		h.issued = e.ID
		h.put(e)
	}
}

// put stores the newest entry in the ring; the caller holds mu.
func (h *History) put(e *Entry) {
	h.ring[(e.ID-1)%len(h.ring)] = e
	h.held = min(h.held+1, len(h.ring))
}

// Analyzer exposes the live aggregates for the insights endpoints.
func (h *History) Analyzer() *Analyzer { return h.analyzer }

// Log returns the ring's window of the query log, oldest first.
func (h *History) Log() []*Entry {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]*Entry, 0, h.held)
	for id := h.issued - h.held + 1; id <= h.issued; id++ {
		out = append(out, h.ring[(id-1)%len(h.ring)])
	}
	return out
}

// Recent returns up to n of the most recent entries, newest first.
func (h *History) Recent(n int) []*Entry {
	log := h.Log()
	n = min(max(n, 0), len(log))
	out := make([]*Entry, n)
	for i := range out {
		out[i] = log[len(log)-1-i]
	}
	return out
}

// Size returns the number of entries currently held in the ring.
func (h *History) Size() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.held
}

// Issued returns the number of entries recorded since the log began.
func (h *History) Issued() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.issued
}

// SlowThreshold returns the configured slow-query threshold (0 = off).
func (h *History) SlowThreshold() time.Duration { return h.cfg.SlowThreshold }

// LogPath returns the JSONL log path ("" when persistence is off).
func (h *History) LogPath() string { return h.cfg.LogPath }

// Close flushes and closes the JSONL log, if any.
func (h *History) Close() error {
	if h.log == nil {
		return nil
	}
	return h.log.Close()
}

// truncateSQL bounds the statement text in slow-query log records.
func truncateSQL(sql string, max int) string {
	sql = strings.Join(strings.Fields(sql), " ")
	if len(sql) <= max {
		return sql
	}
	return sql[:max] + "..."
}
