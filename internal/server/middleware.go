package server

import (
	"net/http"
	"strconv"
	"time"

	"sqlshare/internal/obs"
)

// lightTraceEvery is the ingest head-sampling rate for light routes: one
// request in this many starts a span trace (metrics and the access log are
// unconditional). Polls dominate request volume by an order of magnitude,
// so this keeps the summary ring representative of queries, not polling.
const lightTraceEvery = 16

// traceHeader is the response header carrying the trace ID, spelled in
// textproto canonical form so it can be map-assigned without Set()'s
// per-call canonicalization. Header names are case-insensitive on the
// wire; docs write it X-SQLShare-Trace.
const traceHeader = "X-Sqlshare-Trace"

// statusWriter captures the response status and body size for logging and
// metrics. The zero status means the handler never called WriteHeader,
// which net/http treats as 200.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.status == 0 {
		sw.status = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(p []byte) (int, error) {
	if sw.status == 0 {
		sw.WriteHeader(http.StatusOK)
	}
	n, err := sw.ResponseWriter.Write(p)
	sw.bytes += int64(n)
	return n, err
}

// withObservability wraps the mux in structured request logging, HTTP
// metrics and span tracing: every request emits one slog record (method,
// route pattern, user, status, duration, bytes), increments the http
// request counter/histogram family, and — unless it is a light route's
// request that head sampling skips — runs inside a root span named for its
// route, whose children are opened by the layers below (auth, parse, plan,
// cache, execution, WAL). The route
// pattern — not the raw URL — is the metrics label and span name suffix, so
// /api/queries/q-1 and /api/queries/q-2 aggregate into one series.
//
// W3C trace-context propagation: an incoming `traceparent` header joins the
// caller's trace; every traced response carries the trace ID in `X-SQLShare-Trace`
// so a client can fetch the span tree from GET /api/traces/{id}.
// (`traceparent` itself is a request-propagation header — echoing it on
// responses would cost a header nobody consumes on the always-on path.)
func (s *Server) withObservability(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		_, pattern := s.mux.Handler(r)
		if pattern == "" {
			pattern = "unmatched"
		}
		remote := obs.ParseTraceparent(r.Header.Get("traceparent"))
		ctx := r.Context()
		var root *obs.Span
		// Sampling happens at both ends of a trace's life: light routes
		// (status polls, scrapes) are head-sampled here at ingest — 1 in
		// lightTraceEvery starts a trace at all — and everything traced is
		// tail-sampled at retention. An explicit traceparent from the
		// caller always wins: a propagated trace is never sampled out at
		// ingest, so cross-process trees stay whole.
		if c := s.lightTrace[pattern]; c == nil || remote.Valid() || c.Add(1)%lightTraceEvery == 1 {
			ctx, root = s.traces.StartTrace(ctx, pattern, remote)
		}
		if root != nil {
			root.SetAttr("method", r.Method)
			root.SetAttr("route", pattern)
			root.SetAttr("user", r.Header.Get(userHeader))
			// Direct map assignment with the pre-canonicalized key: Set()
			// would re-canonicalize "X-SQLShare-Trace" (allocating) on
			// every response of the always-on path.
			w.Header()[traceHeader] = []string{root.TraceID()}
			r = r.WithContext(ctx)
		}
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		elapsed := time.Since(start)
		if root != nil {
			root.SetAttr("status", strconv.Itoa(sw.status))
			root.AddBytes(sw.bytes)
			root.End()
			obs.FinishTrace(ctx)
		}
		s.metrics.HTTPRequests.With(pattern, strconv.Itoa(sw.status)).Inc()
		s.metrics.HTTPSeconds.Observe(elapsed.Seconds())
		s.metrics.HTTPBytesOut.Add(sw.bytes)
		s.log.Info("request",
			"method", r.Method,
			"route", pattern,
			"path", r.URL.Path,
			"user", r.Header.Get(userHeader),
			"status", sw.status,
			"durationMs", float64(elapsed.Nanoseconds())/1e6,
			"bytes", sw.bytes,
		)
	})
}
