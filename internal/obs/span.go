package obs

// Span-based request tracing. Where the PR-1 operator tracer answers "what
// did the *engine* do inside one query", spans answer "what did the *whole
// platform* do for one request": HTTP handler, auth, parse, plan, cache
// probe, execution (with the operator tree bridged in as child spans), WAL
// append and response write, causally linked by parent IDs under one trace
// ID. Trace context rides on context.Context; a request that arrives with a
// W3C `traceparent` header joins the caller's trace.
//
// Every API here is nil-safe: with no active trace in the context,
// StartSpan returns a nil *Span and every method on it is a no-op, keeping
// the untraced fast path at the cost of one context lookup.

import (
	"context"
	"encoding/binary"
	"encoding/hex"
	mrand "math/rand/v2"
	"strings"
	"sync"
	"time"
)

// maxSpansPerTrace bounds one trace's memory: past it, new spans are
// counted but not recorded (the root span gets a droppedSpans attribute).
const maxSpansPerTrace = 512

// SpanContext identifies a position in a distributed trace: the trace and
// the span that caused the current work. The zero value means "no context".
type SpanContext struct {
	TraceID string
	SpanID  string
}

// Valid reports whether the context names a trace.
func (sc SpanContext) Valid() bool { return sc.TraceID != "" && sc.SpanID != "" }

// ParseTraceparent decodes a W3C trace-context `traceparent` header
// (version 00: "00-<32 hex trace id>-<16 hex span id>-<2 hex flags>").
// Malformed or all-zero values return the zero SpanContext. This runs on
// every request, traced or not, so it parses at fixed offsets without
// allocating.
func ParseTraceparent(h string) SpanContext {
	h = strings.TrimSpace(h)
	// "00-" + 32 + "-" + 16 + "-" + 2 = 55 bytes.
	if len(h) != 55 || h[0] != '0' || h[1] != '0' || h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return SpanContext{}
	}
	traceID, spanID := h[3:35], h[36:52]
	if !isHex(traceID) || !isHex(spanID) || !isHex(h[53:]) {
		return SpanContext{}
	}
	if traceID == "00000000000000000000000000000000" || spanID == "0000000000000000" {
		return SpanContext{}
	}
	return SpanContext{TraceID: traceID, SpanID: spanID}
}

func isHex(s string) bool {
	for _, c := range s {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Span is one timed operation inside a trace. Fields are written through
// the methods below (which are safe for concurrent use and nil-safe); the
// struct itself is assembled into the immutable SpanData export shape when
// the trace finalizes.
type Span struct {
	tb       *TraceBuilder
	spanID   uint64 // hex-encoded only at export; zero parentID means root
	parentID uint64
	name     string
	start    time.Time

	mu       sync.Mutex
	duration time.Duration
	ended    bool
	err      string
	attrs    []attrKV // few per span; the export map is built at assemble
	rows     int64
	bytes    int64
}

// attrKV keeps span attributes as an append-only pair list: spans carry at
// most a handful, so a linear scan beats a map allocation per span.
type attrKV struct{ k, v string }

// SpanData is the immutable export shape of one finished span, as served by
// GET /api/traces/{id}. StartUs is relative to the trace start so a client
// can render a waterfall without absolute clocks.
type SpanData struct {
	SpanID     string            `json:"spanId"`
	ParentID   string            `json:"parentId,omitempty"`
	Name       string            `json:"name"`
	StartUs    int64             `json:"startUs"`
	DurationMs float64           `json:"durationMs"`
	Rows       int64             `json:"rows,omitempty"`
	Bytes      int64             `json:"bytes,omitempty"`
	Err        string            `json:"error,omitempty"`
	Attrs      map[string]string `json:"attrs,omitempty"`
}

// TraceID returns the span's 32-hex trace ID without allocating. Nil-safe.
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.tb.id
}

// spanIDString renders a span ID in its W3C wire form (16 lowercase hex).
func spanIDString(id uint64) string {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], id)
	var dst [16]byte
	hex.Encode(dst[:], b[:])
	return string(dst[:])
}

// parseSpanID decodes a 16-hex-char span ID; malformed input returns 0
// (no parent).
func parseSpanID(s string) uint64 {
	if len(s) != 16 || !isHex(s) {
		return 0
	}
	b, err := hex.DecodeString(s)
	if err != nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// SetAttr attaches a string attribute. Nil-safe.
func (s *Span) SetAttr(k, v string) {
	if s == nil || v == "" {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].k == k {
			s.attrs[i].v = v
			return
		}
	}
	if cap(s.attrs) == 0 {
		// Spans carry a handful of attributes; one right-sized allocation
		// beats append's doubling for the common case.
		s.attrs = make([]attrKV, 0, 4)
	}
	s.attrs = append(s.attrs, attrKV{k, v})
}

// attrLocked returns the attribute value for k, or "". Caller holds s.mu.
func (s *Span) attrLocked(k string) string {
	for i := range s.attrs {
		if s.attrs[i].k == k {
			return s.attrs[i].v
		}
	}
	return ""
}

// AddRows credits rows to the span's resource delta. Nil-safe.
func (s *Span) AddRows(n int64) {
	if s == nil || n == 0 {
		return
	}
	s.mu.Lock()
	s.rows += n
	s.mu.Unlock()
}

// AddBytes credits bytes to the span's resource delta. Nil-safe.
func (s *Span) AddBytes(n int64) {
	if s == nil || n == 0 {
		return
	}
	s.mu.Lock()
	s.bytes += n
	s.mu.Unlock()
}

// Fail records an error on the span without ending it. Nil-safe.
func (s *Span) Fail(err error) {
	if s == nil || err == nil {
		return
	}
	s.mu.Lock()
	s.err = err.Error()
	s.mu.Unlock()
}

// End closes the span, fixing its duration. Idempotent and nil-safe.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.ended = true
		s.duration = time.Since(s.start)
	}
	s.mu.Unlock()
}

// EndErr records err (if any) and ends the span. Nil-safe.
func (s *Span) EndErr(err error) {
	s.Fail(err)
	s.End()
}

// Defer schedules fn to run only if the trace is retained, immediately
// before the export tree is assembled. This is the tail-sampling cost model
// applied to instrumentation itself: detail that is worthless for a
// sampled-out trace — the catalog's phase and operator spans, rendered from
// the query's log entry — costs one closure on the fast path and is paid
// for only when the trace turns out interesting. fn runs on the finalizing
// goroutine and may create spans (via Child); it must not touch the trace
// store. No-op on a nil span or a finished trace.
func (s *Span) Defer(fn func()) {
	if s == nil {
		return
	}
	tb := s.tb
	tb.mu.Lock()
	if !tb.done {
		tb.deferred = append(tb.deferred, fn)
	}
	tb.mu.Unlock()
}

// Child records an already-measured operation as a completed child span —
// how the catalog's phase timings and the engine's per-operator statistics
// (measured once, on the log entry, not by spans) enter the span tree.
// Nil-safe; returns the new span so the caller can attach attributes and
// deltas.
func (s *Span) Child(name string, start time.Time, d time.Duration) *Span {
	if s == nil {
		return nil
	}
	c := s.tb.newSpan(name, s.spanID, start)
	if c == nil {
		return nil
	}
	c.mu.Lock()
	c.ended = true
	c.duration = d
	c.mu.Unlock()
	return c
}

func (s *Span) data(traceStart time.Time) SpanData {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ended {
		// A span left open at finalize (async work that outlived its holds)
		// is closed at the trace boundary rather than lost.
		s.ended = true
		s.duration = time.Since(s.start)
	}
	var attrs map[string]string
	if len(s.attrs) > 0 {
		attrs = make(map[string]string, len(s.attrs))
		for _, kv := range s.attrs {
			attrs[kv.k] = kv.v
		}
	}
	parent := ""
	if s.parentID != 0 {
		parent = spanIDString(s.parentID)
	}
	return SpanData{
		SpanID:     spanIDString(s.spanID),
		ParentID:   parent,
		Name:       s.name,
		StartUs:    s.start.Sub(traceStart).Microseconds(),
		DurationMs: float64(s.duration.Nanoseconds()) / 1e6,
		Rows:       s.rows,
		Bytes:      s.bytes,
		Err:        s.err,
		Attrs:      attrs,
	}
}

// TraceBuilder accumulates the spans of one request and finalizes into the
// owning TraceStore when every hold is released. The middleware owns one
// hold for the HTTP request; asynchronous work (the job runner) takes an
// extra hold so the trace stays open until the query actually finishes.
type TraceBuilder struct {
	store *TraceStore
	id    string
	start time.Time

	mu       sync.Mutex
	rng      uint64 // splitmix64 state for span IDs (guarded by mu)
	spans    []*Span
	dropped  int
	holds    int
	forced   bool
	done     bool
	deferred []func() // retained-only instrumentation; see Span.Defer
	// assembling re-opens newSpan for the deferred callbacks, which run
	// after done is set but may still add spans to the export tree.
	assembling bool

	// Span storage: the builder allocation itself carries the first few
	// spans (enough for a simple request), and deeper traces take chunked
	// overflow blocks — span tracing is always-on, so span creation must
	// not cost one heap allocation per span.
	inline [4]Span
	used   int    // spans taken from inline
	chunk  []Span // current overflow block

	// tc is the root context carrier handed out by StartTrace, inlined here
	// so opening a trace doesn't heap-allocate it.
	tc traceCtx
}

// spanChunkSize is the overflow block size once a trace outgrows the
// builder's inline span storage.
const spanChunkSize = 8

// newTraceBuilder allocates the builder of one trace; it is ordinary
// garbage once the trace finalizes, so a context or span that outlives the
// request still refers to its own trace. Trace IDs and the seed of the
// per-span ID stream come from math/rand/v2's runtime-seeded ChaCha8
// generator: span tracing is always-on, so ID generation must not cost a
// syscall per request, and trace IDs need collision resistance, not
// secrecy.
func newTraceBuilder(store *TraceStore, remote SpanContext, start time.Time) *TraceBuilder {
	tb := &TraceBuilder{store: store, start: start, rng: mrand.Uint64()}
	if remote.Valid() {
		tb.id = remote.TraceID
	} else {
		var raw [16]byte
		binary.BigEndian.PutUint64(raw[:8], mrand.Uint64())
		binary.BigEndian.PutUint64(raw[8:], mrand.Uint64())
		var dst [32]byte
		hex.Encode(dst[:], raw[:])
		tb.id = string(dst[:])
	}
	return tb
}

// nextID derives the next span ID from the builder's splitmix64 stream;
// span IDs need uniqueness within the trace, not cryptographic strength.
// Caller holds tb.mu.
func (tb *TraceBuilder) nextID() uint64 {
	tb.rng += 0x9e3779b97f4a7c15
	z := tb.rng
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1 // the all-zero span ID is invalid in W3C trace context
	}
	return z
}

func (tb *TraceBuilder) newSpan(name string, parentID uint64, start time.Time) *Span {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	if tb.done && !tb.assembling {
		return nil
	}
	if len(tb.spans) >= maxSpansPerTrace {
		tb.dropped++
		return nil
	}
	var sp *Span
	switch {
	case tb.used < len(tb.inline):
		sp = &tb.inline[tb.used]
		tb.used++
	default:
		if len(tb.chunk) == 0 {
			tb.chunk = make([]Span, spanChunkSize)
		}
		sp = &tb.chunk[0]
		tb.chunk = tb.chunk[1:]
	}
	*sp = Span{tb: tb, spanID: tb.nextID(), parentID: parentID, name: name, start: start}
	tb.spans = append(tb.spans, sp)
	return sp
}

func (tb *TraceBuilder) hold() {
	tb.mu.Lock()
	tb.holds++
	tb.mu.Unlock()
}

func (tb *TraceBuilder) release() {
	tb.mu.Lock()
	tb.holds--
	finalize := tb.holds <= 0 && !tb.done
	if finalize {
		tb.done = true
	}
	tb.mu.Unlock()
	if finalize {
		tb.store.finish(tb)
	}
}

// summaryInfo is the cheap census of a finished trace: everything the
// tail-sampling decision and the summary ring need, computed in one scan
// without building the export span tree. On the common path — a fast,
// successful request that sampling keeps only a summary of — this is all
// the work finalization does.
type summaryInfo struct {
	name     string
	user     string
	cache    string
	status   string
	duration time.Duration
	spans    int
	dropped  int
	forced   bool
}

// summarize closes any spans left open (async work that outlived its
// holds) and scans the frozen span slice. Called once, after done is set.
func (tb *TraceBuilder) summarize() summaryInfo {
	tb.mu.Lock()
	spans := tb.spans
	info := summaryInfo{status: "ok", spans: len(spans), dropped: tb.dropped, forced: tb.forced}
	tb.mu.Unlock()

	end := tb.start
	for i, sp := range spans {
		sp.mu.Lock()
		if !sp.ended {
			sp.ended = true
			sp.duration = time.Since(sp.start)
		}
		if i == 0 {
			info.name = sp.name
			info.user = sp.attrLocked("user")
		}
		if sp.err != "" {
			info.status = "error"
		}
		// The catalog tags the disposition on whichever span it ran under
		// (the job's, not the request root); bypass wins, because that is
		// the one the tail sampler retains for.
		if c := sp.attrLocked("cache"); c != "" && info.cache != "bypass" {
			info.cache = c
		}
		if e := sp.start.Add(sp.duration); e.After(end) {
			end = e
		}
		sp.mu.Unlock()
	}
	info.duration = end.Sub(tb.start)
	return info
}

// assemble builds the export Trace from an already-computed summary —
// invoked only for traces the tail sampler decided to retain, so the hex
// IDs, attribute copies, deferred instrumentation and SpanData slice are
// never paid for on the sampled-out fast path.
func (tb *TraceBuilder) assemble(info summaryInfo) *Trace {
	tb.mu.Lock()
	deferred := tb.deferred
	tb.deferred = nil
	tb.assembling = true
	tb.mu.Unlock()
	for _, fn := range deferred {
		fn()
	}
	tb.mu.Lock()
	tb.assembling = false
	spans := append([]*Span(nil), tb.spans...)
	tb.mu.Unlock()

	t := &Trace{
		ID: tb.id, Name: info.name, User: info.user, Start: tb.start,
		DurationMs: float64(info.duration.Nanoseconds()) / 1e6,
		Status:     info.status, Cache: info.cache, DroppedSpans: info.dropped,
		Spans: make([]SpanData, 0, len(spans)),
	}
	for _, sp := range spans {
		t.Spans = append(t.Spans, sp.data(tb.start))
	}
	return t
}

// ---------------------------------------------------------------- context

type ctxKey int

const (
	builderKey ctxKey = iota
	spanKey
)

// traceCtx carries both the builder and the current span in one context
// wrapper — every traced request derives at least one context, so halving
// the wrapper allocations matters on the always-on path.
type traceCtx struct {
	context.Context
	tb *TraceBuilder
	sp *Span
}

func (tc *traceCtx) Value(key any) any {
	switch key {
	case builderKey:
		return tc.tb
	case spanKey:
		return tc.sp
	}
	return tc.Context.Value(key)
}

// StartSpan opens a child span of the current span in ctx (or a root-level
// span if none) and returns the derived context carrying it. With no active
// trace in ctx it returns (ctx, nil): every method on a nil span is a
// no-op, so instrumentation sites need no conditionals.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	sp := ChildSpan(ctx, name)
	if sp == nil {
		return ctx, nil
	}
	return &traceCtx{Context: ctx, tb: sp.tb, sp: sp}, sp
}

// ChildSpan opens a child of the current span in ctx without deriving a new
// context — for straight-line phases recorded as siblings (parse, plan,
// cache probe, ...), where StartSpan's per-call context allocation buys
// nothing. Nil-safe like StartSpan.
func ChildSpan(ctx context.Context, name string) *Span {
	tb, _ := ctx.Value(builderKey).(*TraceBuilder)
	if tb == nil {
		return nil
	}
	var parentID uint64
	if parent, _ := ctx.Value(spanKey).(*Span); parent != nil {
		parentID = parent.spanID
	}
	return tb.newSpan(name, parentID, time.Now())
}

// SpanFromContext returns the current span, or nil.
func SpanFromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanKey).(*Span)
	return sp
}

// TraceIDFromContext returns the active trace ID, or "".
func TraceIDFromContext(ctx context.Context) string {
	if tb, _ := ctx.Value(builderKey).(*TraceBuilder); tb != nil {
		return tb.id
	}
	return ""
}

// RetainTrace takes an extra hold on the active trace so it stays open
// across asynchronous work; the returned function releases it (call exactly
// once, from any goroutine). With no active trace it returns a no-op.
func RetainTrace(ctx context.Context) func() {
	tb, _ := ctx.Value(builderKey).(*TraceBuilder)
	if tb == nil {
		return func() {}
	}
	tb.hold()
	var once sync.Once
	return func() { once.Do(tb.release) }
}

// ForceRetain marks the active trace for full retention regardless of the
// tail-sampling thresholds (used by the shutdown span, and by anything an
// operator explicitly wants kept). No-op without an active trace.
func ForceRetain(ctx context.Context) {
	if tb, _ := ctx.Value(builderKey).(*TraceBuilder); tb != nil {
		tb.mu.Lock()
		tb.forced = true
		tb.mu.Unlock()
	}
}

// FinishTrace releases the initial hold taken by TraceStore.StartTrace;
// when it is the last hold, the trace finalizes into the store. No-op
// without an active trace.
func FinishTrace(ctx context.Context) {
	if tb, _ := ctx.Value(builderKey).(*TraceBuilder); tb != nil {
		tb.release()
	}
}
