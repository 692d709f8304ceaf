package obs

import (
	"context"
	"strings"
	"testing"
	"time"
)

func TestParseTraceparentRoundTrip(t *testing.T) {
	h := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	sc := ParseTraceparent(h)
	if !sc.Valid() {
		t.Fatalf("valid header rejected: %q", h)
	}
	if sc.TraceID != "4bf92f3577b34da6a3ce929d0e0e4736" || sc.SpanID != "00f067aa0ba902b7" {
		t.Fatalf("parsed %+v", sc)
	}
	if got := "00-" + sc.TraceID + "-" + sc.SpanID + "-01"; ParseTraceparent(got) != sc {
		t.Fatalf("format/parse not a round trip: %q", got)
	}
}

func TestParseTraceparentRejectsMalformed(t *testing.T) {
	bad := []string{
		"",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",     // missing flags
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-011", // too long
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",  // unknown version
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01",  // uppercase hex
		"00-4bf92f3577b34da6a3ce929d0e0e473z-00f067aa0ba902b7-01",  // non-hex
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",  // zero trace id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",  // zero span id
		"00x4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",  // bad separator
	}
	for _, h := range bad {
		if ParseTraceparent(h).Valid() {
			t.Errorf("accepted malformed traceparent %q", h)
		}
	}
}

// TestSelfIssuedTraceIDParses: a trace ID the store issues is a valid W3C
// trace ID, so a client can propagate it back in a traceparent header.
func TestSelfIssuedTraceIDParses(t *testing.T) {
	st := NewTraceStore(0)
	ctx, root := st.StartTrace(context.Background(), "t", SpanContext{})
	defer FinishTrace(ctx)
	defer root.End()
	h := "00-" + root.TraceID() + "-00f067aa0ba902b7-01"
	if sc := ParseTraceparent(h); sc.TraceID != root.TraceID() {
		t.Fatalf("self-issued trace ID does not parse: %q", h)
	}
}

// TestNilSafety exercises the no-conditionals contract: every span
// operation must be a no-op on a nil span (a head-sampled request, or a
// library call, runs without one), and the context helpers must be no-ops
// without an active trace.
func TestNilSafety(t *testing.T) {
	var sp *Span
	sp.SetAttr("k", "v")
	sp.AddRows(1)
	sp.AddBytes(1)
	sp.Fail(nil)
	sp.End()
	sp.EndErr(nil)
	sp.Defer(func() { t.Fatal("deferred fn ran on nil span") })
	sp.Child("c", time.Now(), time.Second)
	if sp.TraceID() != "" {
		t.Fatal("nil span leaked identity")
	}

	ctx := context.Background()
	if _, sp := StartSpan(ctx, "x"); sp != nil || ChildSpan(ctx, "y") != nil {
		t.Fatal("a context without a trace opened a span")
	}
	RetainTrace(ctx)()
	ForceRetain(ctx)
	FinishTrace(ctx) // must not panic
}

func TestRemoteTraceparentJoinsTrace(t *testing.T) {
	st := NewTraceStore(0)
	remote := SpanContext{TraceID: strings.Repeat("ab", 16), SpanID: "00f067aa0ba902b7"}
	ctx, root := st.StartTrace(context.Background(), "joined", remote)
	if root.TraceID() != remote.TraceID {
		t.Fatalf("trace did not adopt remote trace ID: %s", root.TraceID())
	}
	root.End()
	FinishTrace(ctx)
	tr, _ := st.Get(remote.TraceID)
	if tr == nil {
		t.Fatal("joined trace not retained")
	}
	if tr.Spans[0].ParentID != remote.SpanID {
		t.Fatalf("root parent = %q, want caller span %q", tr.Spans[0].ParentID, remote.SpanID)
	}
}

func TestChildSpanParentage(t *testing.T) {
	st := NewTraceStore(0)
	ctx, root := st.StartTrace(context.Background(), "req", SpanContext{})
	id := root.TraceID()
	jctx, job := StartSpan(ctx, "job")
	phase := ChildSpan(jctx, "phase")
	phase.End()
	job.End()
	root.End()
	FinishTrace(ctx)

	tr, _ := st.Get(id)
	if tr == nil {
		t.Fatal("trace not retained")
	}
	byName := map[string]SpanData{}
	for _, s := range tr.Spans {
		byName[s.Name] = s
	}
	if byName["job"].ParentID != byName["req"].SpanID {
		t.Fatal("job span not parented under root")
	}
	if byName["phase"].ParentID != byName["job"].SpanID {
		t.Fatal("phase span not parented under job")
	}
	if byName["req"].ParentID != "" {
		t.Fatalf("root has parent %q", byName["req"].ParentID)
	}
}

// TestDeferRetainedOnly: deferred instrumentation runs at assembly for
// retained traces and never runs for sampled-out ones.
func TestDeferRetainedOnly(t *testing.T) {
	st := NewTraceStore(time.Hour) // nothing is slow
	var ran bool
	ctx, root := st.StartTrace(context.Background(), "fast", SpanContext{})
	root.Defer(func() { ran = true })
	root.End()
	FinishTrace(ctx)
	if ran {
		t.Fatal("deferred fn ran for a sampled-out trace")
	}

	ctx, root = st.StartTrace(context.Background(), "kept", SpanContext{})
	id := root.TraceID()
	ForceRetain(ctx)
	root.Defer(func() {
		ran = true
		root.Child("late", root.start, time.Millisecond).SetAttr("from", "defer")
	})
	root.End()
	FinishTrace(ctx)
	if !ran {
		t.Fatal("deferred fn did not run for a retained trace")
	}
	tr, _ := st.Get(id)
	if tr == nil || len(tr.Spans) != 2 {
		t.Fatalf("deferred span missing from export: %+v", tr)
	}
	if s := st.Summaries(1); len(s) != 1 || s[0].Spans != 2 {
		t.Fatalf("summary span count should include deferred spans: %+v", s)
	}
}

func TestHoldKeepsTraceOpenAcrossAsyncWork(t *testing.T) {
	st := NewTraceStore(0)
	ctx, root := st.StartTrace(context.Background(), "req", SpanContext{})
	id := root.TraceID()
	release := RetainTrace(ctx)
	root.End()
	FinishTrace(ctx) // middleware's release: held, so not finalized yet
	if _, seen := st.Get(id); seen {
		t.Fatal("trace finalized while still held")
	}
	sp := ChildSpan(ctx, "async")
	if sp == nil {
		t.Fatal("held trace refused a span")
	}
	sp.End()
	release()
	release() // idempotent
	tr, _ := st.Get(id)
	if tr == nil || len(tr.Spans) != 2 {
		t.Fatalf("async span lost: %+v", tr)
	}
}
