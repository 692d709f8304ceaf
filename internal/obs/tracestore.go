package obs

// The in-process trace store with tail-based retention. The paper's
// workload is dominated by short exploratory queries; recording a full span
// tree for every one of them buys nothing and costs memory, while the
// interesting requests — the slow tail, the errors, the cache bypasses —
// are exactly the ones an operator needs post-mortem. So the store keeps a
// lightweight head sample (a summary line) for *every* finished trace, and
// retains the full span tree only when the finished trace turns out to be
// interesting: tail-based sampling, decided after the fact, when the
// outcome is known.

import (
	"context"
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// DefaultTraceSlow is the default duration past which a finished trace is
// retained in full.
const DefaultTraceSlow = 250 * time.Millisecond

// TraceConfig tunes a TraceStore. The zero value is usable: 512 summaries,
// 128 retained trees, retain-everything (Slow == 0), no head sampling.
type TraceConfig struct {
	// Summaries bounds the head-sample ring (default 512). Every finished
	// trace leaves a summary here regardless of retention.
	Summaries int
	// Retain bounds how many full span trees are kept (default 128, FIFO).
	Retain int
	// Slow retains the full tree of any trace at least this long. Zero
	// retains every trace (sampling off — the development default);
	// production servers pass DefaultTraceSlow or their -slow-query value.
	Slow time.Duration
	// HeadEvery additionally retains every Nth trace in full regardless of
	// outcome (0 = off), so there is always a baseline of normal requests
	// to diff a slow one against.
	HeadEvery int
}

// TraceSummary is the head-sample record kept for every finished trace.
type TraceSummary struct {
	ID         string    `json:"traceId"`
	Name       string    `json:"name"`
	User       string    `json:"user,omitempty"`
	Start      time.Time `json:"start"`
	DurationMs float64   `json:"durationMs"`
	Status     string    `json:"status"`
	Spans      int       `json:"spans"`
	Retained   bool      `json:"retained"`
	// Reason says why the full tree was kept: "slow", "error", "bypass",
	// "head", "forced" or "all" (sampling off). Empty when not retained.
	Reason string `json:"reason,omitempty"`
}

// Trace is one finished request's full span tree.
type Trace struct {
	ID         string    `json:"traceId"`
	Name       string    `json:"name"`
	User       string    `json:"user,omitempty"`
	Start      time.Time `json:"start"`
	DurationMs float64   `json:"durationMs"`
	Status     string    `json:"status"`
	// Cache is the result-cache disposition observed on the trace's spans
	// (hit, miss or bypass), when a query ran inside it.
	Cache        string     `json:"cache,omitempty"`
	DroppedSpans int        `json:"droppedSpans,omitempty"`
	Spans        []SpanData `json:"spans"`
}

// TraceStoreStats is the census served beside the trace list.
type TraceStoreStats struct {
	Finished  int64   `json:"finished"`
	Retained  int64   `json:"retained"`
	Held      int     `json:"held"`
	SlowMs    float64 `json:"slowThresholdMs"`
	HeadEvery int     `json:"headEvery"`
}

// TraceStore collects finished traces with tail-based retention. All
// methods are safe for concurrent use; a nil store is inert (StartTrace
// returns the context unchanged).
type TraceStore struct {
	cfg TraceConfig

	mu        sync.Mutex
	summaries []TraceSummary // ring, by value: no allocation per finished trace
	next      int
	wrapped   bool
	full      map[string]*Trace
	order     []string // retention order, oldest first
	finished  int64
	kept      int64

	total    *Counter    // optional: sqlshare_traces_total
	retained *CounterVec // optional: sqlshare_traces_retained_total{reason}
}

// NewTraceStore builds a store from cfg (zero fields take defaults; see
// TraceConfig).
func NewTraceStore(cfg TraceConfig) *TraceStore {
	if cfg.Summaries <= 0 {
		cfg.Summaries = 512
	}
	if cfg.Retain <= 0 {
		cfg.Retain = 128
	}
	return &TraceStore{
		cfg:       cfg,
		summaries: make([]TraceSummary, cfg.Summaries),
		full:      map[string]*Trace{},
	}
}

// SetMetrics attaches the finished/retained counters (both optional).
func (st *TraceStore) SetMetrics(total *Counter, retained *CounterVec) {
	if st == nil {
		return
	}
	st.mu.Lock()
	st.total, st.retained = total, retained
	st.mu.Unlock()
}

// Config returns the store's effective configuration.
func (st *TraceStore) Config() TraceConfig { return st.cfg }

// StartTrace opens a new trace rooted at a span named name and returns the
// derived context carrying it plus the root span. remote, when valid, links
// the new root under the caller's span (W3C traceparent propagation): the
// trace keeps the caller's trace ID so cross-process span trees join up.
// Nil-safe: a nil store returns (ctx, nil).
func (st *TraceStore) StartTrace(ctx context.Context, name string, remote SpanContext) (context.Context, *Span) {
	if st == nil {
		return ctx, nil
	}
	tb := newTraceBuilder(st, remote, time.Now())
	var parentID uint64
	if remote.Valid() {
		parentID = parseSpanID(remote.SpanID)
	}
	tb.hold()
	root := tb.newSpan(name, parentID, tb.start)
	tb.tc = traceCtx{Context: ctx, tb: tb, sp: root}
	return &tb.tc, root
}

// finish files one finished trace: always a summary line, and — only when
// the tail-sampling rules say the trace turned out interesting — the full
// export span tree. Assembling the tree (hex IDs, attribute copies, the
// SpanData slice) is the expensive part of finalization, so the sampled-out
// fast path never pays for it.
func (st *TraceStore) finish(tb *TraceBuilder) {
	info := tb.summarize()
	reason := ""
	switch {
	case info.forced:
		reason = "forced"
	case info.status == "error":
		reason = "error"
	case st.cfg.Slow <= 0:
		reason = "all"
	case info.duration >= st.cfg.Slow:
		reason = "slow"
	case info.cache == "bypass":
		reason = "bypass"
	}

	st.mu.Lock()
	st.finished++
	if reason == "" && st.cfg.HeadEvery > 0 && st.finished%int64(st.cfg.HeadEvery) == 0 {
		reason = "head"
	}
	if reason != "" {
		st.kept++
		// Assembling runs the builder's deferred instrumentation, which may
		// add spans — the summary below reports the final count.
		t := tb.assemble(info)
		info.spans = len(t.Spans)
		// Duplicate IDs (a retried traceparent) overwrite rather than
		// double-retain; the order slice may then briefly hold a dead ID,
		// which eviction skips naturally.
		if _, exists := st.full[t.ID]; !exists {
			st.order = append(st.order, t.ID)
		}
		st.full[t.ID] = t
		for len(st.full) > st.cfg.Retain && len(st.order) > 0 {
			evict := st.order[0]
			st.order = st.order[1:]
			delete(st.full, evict)
		}
	}
	st.summaries[st.next] = TraceSummary{
		ID: tb.id, Name: info.name, User: info.user, Start: tb.start,
		DurationMs: float64(info.duration.Nanoseconds()) / 1e6,
		Status:     info.status, Spans: info.spans,
		Retained: reason != "", Reason: reason,
	}
	st.next++
	if st.next == len(st.summaries) {
		st.next = 0
		st.wrapped = true
	}
	total, retained := st.total, st.retained
	st.mu.Unlock()

	if total != nil {
		total.Inc()
	}
	if retained != nil && reason != "" {
		retained.With(reason).Inc()
	}
}

// Summaries returns up to n head-sample records, newest first (n <= 0
// returns everything in the ring).
func (st *TraceStore) Summaries(n int) []*TraceSummary {
	if st == nil {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	total := st.next
	if st.wrapped {
		total = len(st.summaries)
	}
	if n <= 0 || n > total {
		n = total
	}
	out := make([]*TraceSummary, 0, n)
	for i := 1; i <= n; i++ {
		idx := st.next - i
		if idx < 0 {
			idx += len(st.summaries)
		}
		s := st.summaries[idx]
		out = append(out, &s)
	}
	return out
}

// Get returns the retained full trace for id. seen reports whether the
// store ever finished a trace with this ID (still in the summary ring) —
// the difference between "sampled out" and "never existed".
func (st *TraceStore) Get(id string) (t *Trace, seen bool) {
	if st == nil {
		return nil, false
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if t, ok := st.full[id]; ok {
		return t, true
	}
	for i := range st.summaries {
		if st.summaries[i].ID == id {
			return nil, true
		}
	}
	return nil, false
}

// Stats reports the store census.
func (st *TraceStore) Stats() TraceStoreStats {
	if st == nil {
		return TraceStoreStats{}
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return TraceStoreStats{
		Finished:  st.finished,
		Retained:  st.kept,
		Held:      len(st.full),
		SlowMs:    float64(st.cfg.Slow.Nanoseconds()) / 1e6,
		HeadEvery: st.cfg.HeadEvery,
	}
}

// Dump writes every currently retained trace to w as JSONL, oldest first —
// the graceful-drain flush that lets post-mortem traces survive a restart.
// It returns how many traces were written.
func (st *TraceStore) Dump(w io.Writer) (int, error) {
	if st == nil {
		return 0, nil
	}
	st.mu.Lock()
	traces := make([]*Trace, 0, len(st.full))
	for _, id := range st.order {
		if t, ok := st.full[id]; ok {
			traces = append(traces, t)
		}
	}
	st.mu.Unlock()
	sort.SliceStable(traces, func(i, j int) bool { return traces[i].Start.Before(traces[j].Start) })
	enc := json.NewEncoder(w)
	for i, t := range traces {
		if err := enc.Encode(t); err != nil {
			return i, err
		}
	}
	return len(traces), nil
}
