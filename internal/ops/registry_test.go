package ops

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"sqlshare/internal/engine"
	"sqlshare/internal/plan"
	"sqlshare/internal/sqlparser"
	"sqlshare/internal/sqltypes"
	"sqlshare/internal/storage"
)

func TestRegisterSnapshotFinish(t *testing.T) {
	r := NewRegistry()
	e, ctx := r.Register(context.Background(), "", "alice", "SELECT 1", 4)
	if e.ID() != "op-1" {
		t.Fatalf("id = %q, want op-1", e.ID())
	}
	if ctx.Err() != nil {
		t.Fatal("fresh context already canceled")
	}
	e.SetPhase(PhaseExecute)
	e.SetPlan("SELECT ? FROM t", 100)
	e.Progress().Rows.Add(50)
	snap := r.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("snapshot len = %d", len(snap))
	}
	q := snap[0]
	// The digest is derived lazily at snapshot time from the plan template.
	if q.User != "alice" || q.Phase != "execute" || q.DOP != 4 {
		t.Fatalf("snapshot = %+v", q)
	}
	if q.Digest != plan.DigestTemplate("SELECT ? FROM t") {
		t.Fatalf("digest = %q, want DigestTemplate of the template", q.Digest)
	}
	if q.Progress < 0.49 || q.Progress > 0.51 {
		t.Fatalf("progress = %v, want ~0.5", q.Progress)
	}
	e.Finish()
	if len(r.Snapshot()) != 0 {
		t.Fatal("entry still listed after Finish")
	}
	st := r.Stats()
	if st.Started != 1 || st.Finished != 1 || st.InFlight != 0 {
		t.Fatalf("stats = %+v", st)
	}
	// Finish is idempotent.
	e.Finish()
	if st := r.Stats(); st.Finished != 1 {
		t.Fatalf("double Finish counted twice: %+v", st)
	}
}

func TestExplicitIDAndTruncation(t *testing.T) {
	r := NewRegistry()
	long := strings.Repeat("SELECT ", 100)
	e, _ := r.Register(context.Background(), "q-7", "bob", long, 1)
	defer e.Finish()
	snap := r.Snapshot()
	if snap[0].ID != "q-7" {
		t.Fatalf("id = %q, want q-7", snap[0].ID)
	}
	if len(snap[0].SQL) > 410 {
		t.Fatalf("SQL not truncated: %d chars", len(snap[0].SQL))
	}
	if snap[0].Progress != -1 {
		t.Fatalf("progress without plan = %v, want -1", snap[0].Progress)
	}
}

func TestKillUnknownID(t *testing.T) {
	r := NewRegistry()
	if err := r.Kill("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestKillCancelsWithCause(t *testing.T) {
	r := NewRegistry()
	e, ctx := r.Register(context.Background(), "", "u", "SELECT 1", 1)
	if err := r.Kill(e.ID()); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ctx.Done():
	case <-time.After(time.Second):
		t.Fatal("context not canceled by Kill")
	}
	if cause := context.Cause(ctx); !errors.Is(cause, ErrKilled) {
		t.Fatalf("cause = %v, want ErrKilled", cause)
	}
	snap := r.Snapshot()
	if len(snap) != 1 || !snap[0].Killed {
		t.Fatalf("killed query should stay listed until it unwinds: %+v", snap)
	}
	e.Finish()
	st := r.Stats()
	if st.Killed != 1 {
		t.Fatalf("killed count = %d", st.Killed)
	}
}

func TestNilEntrySafe(t *testing.T) {
	var e *Entry
	e.SetPhase(PhaseParse)
	e.SetPlan("d", 1)
	e.Finish()
	if e.Progress() != nil || e.ID() != "" {
		t.Fatal("nil entry accessors should return zero values")
	}
}

// TestKillDrainsParallelQuery is the kill-vs-parallelism test: a DOP>1
// query over a large table is killed mid-flight; the execution must return
// promptly with the ErrKilled cause, the worker pool must drain, and no
// goroutines may leak. Run under -race via `make race`.
func TestKillDrainsParallelQuery(t *testing.T) {
	tbl := storage.NewTable("big", storage.Schema{
		{Name: "id", Type: sqltypes.Int},
		{Name: "grp", Type: sqltypes.Int},
	})
	const n = 60000
	rows := make([]storage.Row, n)
	for i := range rows {
		rows[i] = storage.Row{sqltypes.NewInt(int64(i)), sqltypes.NewInt(int64(i % 199))}
	}
	if err := tbl.Insert(rows); err != nil {
		t.Fatal(err)
	}
	res := engine.MapResolver{Tables: map[string]*storage.Table{"big": tbl}}
	q, err := sqlparser.Parse("SELECT a.grp, COUNT(*) FROM big a JOIN big b ON a.grp = b.grp GROUP BY a.grp")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := engine.Compile(q, res)
	if err != nil {
		t.Fatal(err)
	}

	before := runtime.NumGoroutine()
	r := NewRegistry()
	e, ctx := r.Register(context.Background(), "", "u", "big join", 4)
	e.SetPhase(PhaseExecute)

	errCh := make(chan error, 1)
	go func() {
		_, err := plan.Execute(&engine.ExecContext{
			Ctx:      ctx,
			DOP:      4,
			Progress: e.Progress(),
		})
		e.Finish()
		errCh <- err
	}()

	// Wait until the execution is demonstrably in flight, then kill it.
	deadline := time.Now().Add(5 * time.Second)
	for e.Progress().Ops.Load() == 0 && e.Progress().Rows.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
	}
	if err := r.Kill(e.ID()); err != nil {
		t.Fatal(err)
	}

	select {
	case err := <-errCh:
		if err == nil {
			// The query may legitimately win the race and finish first on a
			// fast machine; that is not a kill failure, but the interesting
			// assertions below still hold.
			t.Log("query completed before the kill landed")
		} else if !errors.Is(err, ErrKilled) {
			t.Fatalf("execution error = %v, want ErrKilled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("killed query did not return within 10s")
	}

	// The pool must drain: no extra workers remain checked out.
	drainDeadline := time.Now().Add(5 * time.Second)
	for engine.PoolBusy() != 0 && time.Now().Before(drainDeadline) {
		time.Sleep(time.Millisecond)
	}
	if busy := engine.PoolBusy(); busy != 0 {
		t.Fatalf("worker pool not drained: %d workers still busy", busy)
	}

	// No goroutine leaks: counts settle back to the baseline.
	leakDeadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(leakDeadline) {
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before+2 {
		t.Fatalf("goroutine leak: %d before, %d after", before, after)
	}

	if len(r.Snapshot()) != 0 {
		t.Fatal("registry not empty after the execution unwound")
	}
}
