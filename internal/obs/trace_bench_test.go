package obs

import (
	"context"
	"testing"
)

// BenchmarkTraceLifecycle prices one full span-trace lifecycle — start,
// five phase spans, finish — under tail sampling that discards the trace
// (the common case). This is the fixed cost the always-on span layer adds
// to every traced request; allocs/op is the number to watch, since on a
// small-heap single-CPU deployment GC pacing amplifies every allocation.
func BenchmarkTraceLifecycle(b *testing.B) {
	st := NewTraceStore(DefaultTraceSlow)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ctx, root := st.StartTrace(context.Background(), "bench", SpanContext{})
		for _, n := range []string{"sql.parse", "authorize", "cache.probe", "plan.compile", "execute"} {
			_, sp := StartSpan(ctx, n)
			sp.End()
		}
		root.End()
		FinishTrace(ctx)
	}
}

// BenchmarkTraceLifecycleRetained is the same lifecycle when every trace is
// retained (Slow == 0): the assembly cost tail sampling exists to avoid.
func BenchmarkTraceLifecycleRetained(b *testing.B) {
	st := NewTraceStore(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ctx, root := st.StartTrace(context.Background(), "bench", SpanContext{})
		_, sp := StartSpan(ctx, "execute")
		sp.End()
		root.End()
		FinishTrace(ctx)
	}
}
