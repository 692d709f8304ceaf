package obs

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// finishOne drives a minimal trace through st and returns its ID. mutate
// runs between start and finish to shape the outcome (error, attrs, ...).
func finishOne(t *testing.T, st *TraceStore, name string, mutate func(ctx context.Context, root *Span)) string {
	t.Helper()
	ctx, root := st.StartTrace(context.Background(), name, SpanContext{})
	id := root.TraceID()
	if mutate != nil {
		mutate(ctx, root)
	}
	root.End()
	FinishTrace(ctx)
	return id
}

func retentionReason(t *testing.T, st *TraceStore, id string) string {
	t.Helper()
	for _, s := range st.Summaries(0) {
		if s.ID == id {
			return s.Reason
		}
	}
	t.Fatalf("trace %s missing from summary ring", id)
	return ""
}

func TestRetentionReasonPrecedence(t *testing.T) {
	st := NewTraceStore(time.Hour)

	fast := finishOne(t, st, "fast", nil)
	if r := retentionReason(t, st, fast); r != "" {
		t.Fatalf("fast ok trace retained as %q", r)
	}
	if tr, seen := st.Get(fast); tr != nil || !seen {
		t.Fatalf("sampled-out trace: tr=%v seen=%v, want nil/true", tr, seen)
	}

	failed := finishOne(t, st, "failed", func(_ context.Context, root *Span) {
		root.Fail(errors.New("boom"))
	})
	if r := retentionReason(t, st, failed); r != "error" {
		t.Fatalf("error trace retained as %q", r)
	}

	bypass := finishOne(t, st, "bypass", func(_ context.Context, root *Span) {
		root.SetAttr("cache", "bypass")
	})
	if r := retentionReason(t, st, bypass); r != "bypass" {
		t.Fatalf("bypass trace retained as %q", r)
	}

	// forced wins over error.
	forced := finishOne(t, st, "forced", func(ctx context.Context, root *Span) {
		ForceRetain(ctx)
		root.Fail(errors.New("boom"))
	})
	if r := retentionReason(t, st, forced); r != "forced" {
		t.Fatalf("forced trace retained as %q", r)
	}

	for _, id := range []string{failed, bypass, forced} {
		if tr, _ := st.Get(id); tr == nil {
			t.Errorf("retained trace %s has no full tree", id)
		}
	}

	stats := st.Stats()
	if stats.Finished != 4 || stats.Retained != 3 {
		t.Fatalf("stats = %+v, want 4 finished / 3 retained", stats)
	}
}

func TestRetentionSlowThreshold(t *testing.T) {
	st := NewTraceStore(time.Nanosecond)
	id := finishOne(t, st, "slow", func(_ context.Context, _ *Span) {
		time.Sleep(time.Millisecond)
	})
	if r := retentionReason(t, st, id); r != "slow" {
		t.Fatalf("slow trace retained as %q", r)
	}
}

func TestRetentionAllWhenSamplingOff(t *testing.T) {
	st := NewTraceStore(0) // retain all: the development default
	id := finishOne(t, st, "any", nil)
	if r := retentionReason(t, st, id); r != "all" {
		t.Fatalf("with sampling off, trace retained as %q", r)
	}
}

func TestGetDistinguishesSampledOutFromUnknown(t *testing.T) {
	st := NewTraceStore(time.Hour)
	id := finishOne(t, st, "fast", nil)
	if tr, seen := st.Get(id); tr != nil || !seen {
		t.Fatalf("sampled-out: tr=%v seen=%v, want nil/true", tr, seen)
	}
	if tr, seen := st.Get(strings.Repeat("f", 32)); tr != nil || seen {
		t.Fatalf("unknown: tr=%v seen=%v, want nil/false", tr, seen)
	}
}

func TestSummariesNewestFirstAndRingWrap(t *testing.T) {
	st := NewTraceStore(time.Hour)
	var ids []string
	for i := 0; i < traceSummaries+2; i++ {
		ids = append(ids, finishOne(t, st, fmt.Sprintf("t%d", i), nil))
	}
	got := st.Summaries(0)
	if len(got) != traceSummaries {
		t.Fatalf("ring of %d returned %d summaries", traceSummaries, len(got))
	}
	// Newest first — t0/t1 evicted by the wrap.
	last := len(ids) - 1
	for i, s := range got {
		if want := ids[last-i]; s.ID != want {
			t.Fatalf("summary[%d] = %s (%s), want %s", i, s.ID, s.Name, want)
		}
	}
	if limited := st.Summaries(2); len(limited) != 2 || limited[0].ID != ids[last] {
		t.Fatalf("Summaries(2) = %v", limited)
	}
	if _, seen := st.Get(ids[2]); !seen {
		t.Fatal("oldest summary still in the ring not visible")
	}
	// Evicted IDs are gone entirely: not retained, not seen.
	if _, seen := st.Get(ids[0]); seen {
		t.Fatal("wrapped-over summary still visible")
	}
}

func TestRetainedTreeEviction(t *testing.T) {
	st := NewTraceStore(0) // retain everything, up to the cap
	var ids []string
	for i := 0; i <= traceRetain; i++ {
		ids = append(ids, finishOne(t, st, fmt.Sprintf("t%d", i), nil))
	}
	if tr, _ := st.Get(ids[0]); tr != nil {
		t.Fatal("oldest tree not evicted at the retention cap")
	}
	for _, id := range ids[1:] {
		if tr, _ := st.Get(id); tr == nil {
			t.Errorf("tree %s evicted too early", id)
		}
	}
	if held := st.Stats().Held; held != traceRetain {
		t.Fatalf("held = %d, want %d", held, traceRetain)
	}
}

func TestDumpWritesRetainedTracesAsJSONL(t *testing.T) {
	st := NewTraceStore(time.Hour)
	finishOne(t, st, "fast", nil) // sampled out: must not appear
	kept := finishOne(t, st, "kept", func(_ context.Context, root *Span) {
		root.Fail(errors.New("boom"))
	})

	var buf strings.Builder
	n, err := st.Dump(&buf)
	if err != nil || n != 1 {
		t.Fatalf("Dump = %d, %v", n, err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 1 {
		t.Fatalf("JSONL lines = %d, want 1: %q", len(lines), buf.String())
	}
	if !strings.Contains(lines[0], kept) || !strings.Contains(lines[0], `"status":"error"`) {
		t.Fatalf("dumped line missing trace: %s", lines[0])
	}
}

// TestConcurrentTracing exercises the builder lifecycle from many
// goroutines at once, retained (every 7th fails) and sampled-out traces
// alike — most valuable under -race (make race).
func TestConcurrentTracing(t *testing.T) {
	st := NewTraceStore(time.Hour)
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 50; i++ {
				ctx, root := st.StartTrace(context.Background(), "req", SpanContext{})
				sctx, sp := StartSpan(ctx, "work")
				ChildSpan(sctx, "leaf").End()
				if i%7 == 0 {
					sp.Fail(errors.New("boom"))
				}
				sp.End()
				root.End()
				FinishTrace(ctx)
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	// i = 0, 7, ..., 49 fail: 8 retained traces per goroutine.
	if stats := st.Stats(); stats.Finished != 400 || stats.Retained != 64 {
		t.Fatalf("stats = %+v, want 400 finished / 64 retained", stats)
	}
}
