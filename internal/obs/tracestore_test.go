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
	st := NewTraceStore(TraceConfig{Slow: time.Hour, HeadEvery: 4})

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

	// 4th finished trace: head sampling retains it despite being ordinary.
	head := finishOne(t, st, "head", nil)
	if r := retentionReason(t, st, head); r != "head" {
		t.Fatalf("4th trace (HeadEvery=4) retained as %q", r)
	}

	// forced wins over error.
	forced := finishOne(t, st, "forced", func(ctx context.Context, root *Span) {
		ForceRetain(ctx)
		root.Fail(errors.New("boom"))
	})
	if r := retentionReason(t, st, forced); r != "forced" {
		t.Fatalf("forced trace retained as %q", r)
	}

	for _, id := range []string{failed, bypass, head, forced} {
		if tr, _ := st.Get(id); tr == nil {
			t.Errorf("retained trace %s has no full tree", id)
		}
	}

	stats := st.Stats()
	if stats.Finished != 5 || stats.Retained != 4 {
		t.Fatalf("stats = %+v, want 5 finished / 4 retained", stats)
	}
}

func TestRetentionSlowThreshold(t *testing.T) {
	st := NewTraceStore(TraceConfig{Slow: time.Nanosecond})
	id := finishOne(t, st, "slow", func(_ context.Context, _ *Span) {
		time.Sleep(time.Millisecond)
	})
	if r := retentionReason(t, st, id); r != "slow" {
		t.Fatalf("slow trace retained as %q", r)
	}
}

func TestRetentionAllWhenSamplingOff(t *testing.T) {
	st := NewTraceStore(TraceConfig{}) // Slow == 0: development default
	id := finishOne(t, st, "any", nil)
	if r := retentionReason(t, st, id); r != "all" {
		t.Fatalf("with sampling off, trace retained as %q", r)
	}
}

func TestGetDistinguishesSampledOutFromUnknown(t *testing.T) {
	st := NewTraceStore(TraceConfig{Slow: time.Hour})
	id := finishOne(t, st, "fast", nil)
	if tr, seen := st.Get(id); tr != nil || !seen {
		t.Fatalf("sampled-out: tr=%v seen=%v, want nil/true", tr, seen)
	}
	if tr, seen := st.Get(strings.Repeat("f", 32)); tr != nil || seen {
		t.Fatalf("unknown: tr=%v seen=%v, want nil/false", tr, seen)
	}
}

func TestSummariesNewestFirstAndRingWrap(t *testing.T) {
	st := NewTraceStore(TraceConfig{Summaries: 4, Slow: time.Hour})
	var ids []string
	for i := 0; i < 6; i++ {
		ids = append(ids, finishOne(t, st, fmt.Sprintf("t%d", i), nil))
	}
	got := st.Summaries(0)
	if len(got) != 4 {
		t.Fatalf("ring of 4 returned %d summaries", len(got))
	}
	// Newest first: t5, t4, t3, t2 — t0/t1 evicted by the wrap.
	for i, s := range got {
		if want := ids[5-i]; s.ID != want {
			t.Fatalf("summary[%d] = %s (%s), want %s", i, s.ID, s.Name, want)
		}
	}
	if limited := st.Summaries(2); len(limited) != 2 || limited[0].ID != ids[5] {
		t.Fatalf("Summaries(2) = %v", limited)
	}
	// Evicted IDs are gone entirely: not retained, not seen.
	if _, seen := st.Get(ids[0]); seen {
		t.Fatal("wrapped-over summary still visible")
	}
}

func TestRetainedTreeEviction(t *testing.T) {
	st := NewTraceStore(TraceConfig{Retain: 2}) // retain-everything, cap 2
	a := finishOne(t, st, "a", nil)
	b := finishOne(t, st, "b", nil)
	c := finishOne(t, st, "c", nil)
	if tr, _ := st.Get(a); tr != nil {
		t.Fatal("oldest tree not evicted at the retention cap")
	}
	for _, id := range []string{b, c} {
		if tr, _ := st.Get(id); tr == nil {
			t.Errorf("tree %s evicted too early", id)
		}
	}
}

func TestDumpWritesRetainedTracesAsJSONL(t *testing.T) {
	st := NewTraceStore(TraceConfig{Slow: time.Hour})
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

// TestConcurrentTracing exercises the pooled-builder lifecycle from many
// goroutines at once — most valuable under -race (make race).
func TestConcurrentTracing(t *testing.T) {
	st := NewTraceStore(TraceConfig{Slow: time.Hour, HeadEvery: 3})
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
	if got := st.Stats().Finished; got != 400 {
		t.Fatalf("finished = %d, want 400", got)
	}
}
