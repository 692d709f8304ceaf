package catalog

import "sqlshare/internal/history"

// LogEntry is one finished query; the query log is a history's ring of them.
type LogEntry = history.Entry

// SetHistory swaps the catalog's query log and insights recorder for h,
// which carries on the old one's ID sequence and window. Like the metrics
// bundle it lives in an atomic pointer, but a query that finishes during the
// swap may still record into the old history: call before serving traffic.
func (c *Catalog) SetHistory(h *history.History) {
	h.Continue(c.history.Load())
	c.history.Store(h)
}

// History returns the catalog's query log and insights recorder.
func (c *Catalog) History() *history.History { return c.history.Load() }

// Log returns the query log in execution order: the most recent entries, as
// many as the history's ring holds. A server's full corpus is its JSONL log.
func (c *Catalog) Log() []*LogEntry { return c.History().Log() }

// LogSize returns the number of queries logged since the catalog was
// created, which is also the newest entry's ID.
func (c *Catalog) LogSize() int { return c.History().Issued() }
