package catalog

import (
	"context"
	"testing"
	"time"

	"sqlshare/internal/history"
	"sqlshare/internal/obs"
	"sqlshare/internal/qcache"
)

// runTraced runs one query as the server's job path does — under a
// query.job span of a trace the store retains — and returns the log entry
// beside the phase spans rendered from it, in pipeline order.
func runTraced(t *testing.T, c *Catalog, user, sql string) (*LogEntry, []obs.SpanData) {
	t.Helper()
	st := obs.NewTraceStore(0) // a zero slow threshold retains everything
	ctx, root := st.StartTrace(context.Background(), "req", obs.SpanContext{})
	jctx, job := obs.StartSpan(ctx, "query.job")
	_, entry, err := c.QueryWithOptions(user, sql, QueryOptions{Context: jctx})
	job.EndErr(err)
	root.End()
	obs.FinishTrace(ctx)
	tr, _ := st.Get(root.TraceID())
	if tr == nil {
		t.Fatalf("trace of %q not retained", sql)
	}
	var phases []obs.SpanData
	for _, sp := range tr.Spans {
		for _, name := range phaseSpanNames {
			if sp.Name == name {
				phases = append(phases, sp)
			}
		}
	}
	return entry, phases
}

func millis(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// TestPhasesReconcile: a finished query is timed once, on its entry. The
// phase spans of a retained trace, Compile/Execute, and the history record
// are that one measurement; an untraced run fills the same slots.
func TestPhasesReconcile(t *testing.T) {
	c := newTestCatalog(t)
	h, err := history.New(history.Config{})
	if err != nil {
		t.Fatal(err)
	}
	c.SetHistory(h)
	const sql = "SELECT station FROM water WHERE val > 1"

	entry, spans := runTraced(t, c, "alice", sql)
	if len(spans) != len(phaseSpanNames) || entry.Phases.Last != history.PhaseExecute {
		t.Fatalf("%d phase spans, last phase %v; want all five", len(spans), entry.Phases.Last)
	}
	var sum time.Duration
	for i, sp := range spans {
		slot := entry.Phases.Slot[i]
		if sp.Name != phaseSpanNames[i] || sp.DurationMs != millis(slot.Dur) {
			t.Errorf("span %d = %s %vms, want %s %vms (the entry's slot)",
				i, sp.Name, sp.DurationMs, phaseSpanNames[i], millis(slot.Dur))
		}
		if slot.Start.IsZero() {
			t.Errorf("slot %s has no start", phaseSpanNames[i])
		}
		sum += slot.Dur
	}
	if sum != entry.Compile+entry.Execute {
		t.Errorf("slots sum to %v, Compile+Execute = %v", sum, entry.Compile+entry.Execute)
	}
	if entry.Execute != entry.Phases.Of(history.PhaseExecute).Dur {
		t.Errorf("Execute = %v, execute slot = %v", entry.Execute, entry.Phases.Of(history.PhaseExecute).Dur)
	}
	if rec := h.Recent(1)[0]; rec != entry {
		t.Errorf("history holds entry %d, not the entry the query returned (%d)", rec.ID, entry.ID)
	}

	_, plain, err := c.Query("alice", sql)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Phases.Last != history.PhaseExecute {
		t.Fatalf("untraced run ended in %v", plain.Phases.Last)
	}
	for i, slot := range plain.Phases.Slot {
		if slot.Start.IsZero() {
			t.Errorf("untraced run recorded no %s phase", phaseSpanNames[i])
		}
	}
}

// TestPhasesEndOnTheFailingSlot: a run that stops early ends on the phase
// that stopped it, with the error on that phase's span and nothing after.
func TestPhasesEndOnTheFailingSlot(t *testing.T) {
	c := newTestCatalog(t)
	c.SetQueryCache(qcache.New(1 << 20))
	const hit = "SELECT station FROM water"
	if _, _, err := c.Query("alice", hit); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, user, sql string
		last            history.Phase
		fails           bool
	}{
		{"parse error", "alice", "SELEC 1", history.PhaseParse, true},
		{"access denied", "bob", "SELECT * FROM [alice.water]", history.PhaseAuthorize, true},
		{"compile error", "alice", "SELECT nope FROM water", history.PhasePlanCompile, true},
		{"cache hit", "alice", hit, history.PhaseCacheProbe, false},
	} {
		entry, spans := runTraced(t, c, tc.user, tc.sql)
		if entry.Phases.Last != tc.last {
			t.Errorf("%s: ended in %v, want %v", tc.name, entry.Phases.Last, tc.last)
			continue
		}
		for p := tc.last + 1; p <= history.PhaseExecute; p++ {
			if *entry.Phases.Of(p) != (PhaseTiming{}) {
				t.Errorf("%s: phase %v was never entered but has a timing", tc.name, p)
			}
		}
		if len(spans) != int(tc.last) || spans[len(spans)-1].Name != phaseSpanNames[tc.last-history.PhaseParse] {
			t.Errorf("%s: %d phase spans, want them to end on %v", tc.name, len(spans), tc.last)
			continue
		}
		for i, sp := range spans {
			wantErr := ""
			if tc.fails && i == len(spans)-1 {
				wantErr = entry.Err
			}
			if sp.Err != wantErr {
				t.Errorf("%s: span %s error = %q, want %q", tc.name, sp.Name, sp.Err, wantErr)
			}
		}
		if (entry.Err != "") != tc.fails {
			t.Errorf("%s: entry error = %q", tc.name, entry.Err)
		}
	}
}
