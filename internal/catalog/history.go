package catalog

import (
	"sync/atomic"

	"sqlshare/internal/history"
	"sqlshare/internal/plan"
)

// historyRef holds the optional continuous-insights recorder. Like the
// metrics bundle, it lives in an atomic pointer so SetHistory is safe
// while queries run.
type historyRef struct {
	h atomic.Pointer[history.History]
}

// SetHistory attaches a query-history recorder; every statement executed
// through the query path is recorded from then on. Passing nil detaches.
func (c *Catalog) SetHistory(h *history.History) { c.history.h.Store(h) }

// History returns the attached recorder, or nil.
func (c *Catalog) History() *history.History { return c.history.h.Load() }

// ensureDigest lazily fills the entry's plan-template digest. Extract
// already rendered the template into Meta; hashing it directly avoids a
// second template render per statement. Idempotent; a no-op when the entry
// carries no plan artifacts (e.g. a parse failure).
func ensureDigest(entry *LogEntry) {
	if entry.Digest != "" {
		return
	}
	if entry.Meta != nil && entry.Meta.Template != "" {
		entry.Digest = plan.DigestTemplate(entry.Meta.Template)
	} else if entry.Plan != nil {
		entry.Digest = entry.Plan.Digest()
	}
}

// recordHistory converts a finished log entry into a history record and
// hands it to the recorder, if one is attached. Called outside the
// catalog lock, after the entry got its ID and timestamp.
func (c *Catalog) recordHistory(entry *LogEntry) {
	h := c.history.h.Load()
	if h == nil {
		return
	}
	ensureDigest(entry)
	rec := &history.Record{
		ID:            entry.ID,
		Time:          entry.Time,
		User:          entry.User,
		SQL:           entry.SQL,
		Datasets:      entry.Datasets,
		CompileMillis: float64(entry.Compile.Nanoseconds()) / 1e6,
		ExecuteMillis: float64(entry.Execute.Nanoseconds()) / 1e6,
		RuntimeMillis: float64(entry.Runtime.Nanoseconds()) / 1e6,
		RowsReturned:  entry.RowsReturned,
		Err:           entry.Err,
		Digest:        entry.Digest,
		CacheHit:      entry.Cache == CacheHit,
		TraceID:       entry.TraceID,
		ResultBytes:   entry.ResultBytes,
	}
	if entry.Meta != nil && !rec.CacheHit {
		// Cache hits skip execution, so folding their operator and column
		// counts again would double-count the work the fill run already
		// reported. The hit itself is still recorded (digest, latency, row
		// count) so per-template frequency analyses stay complete.
		rec.Operators = entry.Meta.OperatorCounts
		rec.Columns = entry.Meta.Columns
	}
	if entry.Plan != nil {
		rec.Trace = entry.Plan.Trace
	}
	h.Record(rec)
}
