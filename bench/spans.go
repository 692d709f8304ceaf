package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Spans of one op share its Op number; Parent names the span that
// caused this one.
type span struct {
	Workload string `json:"workload"`
	// Path says which replay the span belongs to: "rest" (loopback, against
	// the server process), "serve_http" (in-process through the handler) or
	// "catalog" (in-process, straight into the catalog).
	Path    string `json:"path"`
	Op      int    `json:"op"`
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	StartNS int64  `json:"startNs"` // since the tracer was created
	EndNS   int64  `json:"endNs"`
}

// tracer keeps spans in memory until the benchmark ends.
type tracer struct {
	mu       sync.Mutex
	origin   time.Time
	workload string
	spans    []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// add records a finished span. A nil tracer records nothing, so untraced
// runs pay one nil check.
func (t *tracer) add(path string, op int, name, parent string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{
		Workload: t.workload, Path: path, Op: op, Name: name, Parent: parent,
		StartNS: start.Sub(t.origin).Nanoseconds(), EndNS: end.Sub(t.origin).Nanoseconds(),
	})
	t.mu.Unlock()
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns, for every span of the given path and name, its
// duration minus the part of it its direct children cover, in ms, keyed by
// op. Children are taken not to overlap one another: each is one
// sequential step of its parent.
func (t *tracer) selfTimes(path, name string) map[int]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[int]float64{}
	for _, s := range t.spans {
		if s.Workload == t.workload && s.Path == path && s.Name == name {
			out[s.Op] += float64(s.EndNS-s.StartNS) / 1e6
		}
	}
	for _, s := range t.spans {
		if s.Workload == t.workload && s.Path == path && s.Parent == name {
			if _, ok := out[s.Op]; ok {
				out[s.Op] -= float64(s.EndNS-s.StartNS) / 1e6
			}
		}
	}
	return out
}

// handlerTransport is an http.RoundTripper that calls a handler directly,
// so the REST client can drive an in-process server with no socket between
// them.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

func newInProcessClient(h http.Handler) *restClient {
	return &restClient{base: "http://in-process", http: &http.Client{Transport: handlerTransport{h}}}
}
