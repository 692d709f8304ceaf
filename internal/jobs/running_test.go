package jobs

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"sqlshare/internal/engine"
	"sqlshare/internal/history"
	"sqlshare/internal/sqlparser"
	"sqlshare/internal/sqltypes"
	"sqlshare/internal/storage"
)

func TestCreateRunningFinish(t *testing.T) {
	r := &Table{}
	e := r.Create(context.Background(), "alice", "SELECT 1", 4, "")
	if e.ID != "q-1" {
		t.Fatalf("id = %q, want q-1", e.ID)
	}
	ctx := e.Context()
	if ctx.Err() != nil {
		t.Fatal("fresh context already canceled")
	}
	if snap := r.Running(); len(snap) != 1 || snap[0].Phase != "queued" {
		t.Fatalf("a created job lists as %+v, want one queued entry", snap)
	}
	e.SetPhase(history.PhaseExecute)
	e.SetPlan("0123456789abcdef", 100)
	e.Progress().Rows.Add(50)
	snap := r.Running()
	if len(snap) != 1 {
		t.Fatalf("snapshot len = %d", len(snap))
	}
	q := snap[0]
	if q.User != "alice" || q.Phase != "execute" || q.DOP != 4 {
		t.Fatalf("snapshot = %+v", q)
	}
	if q.Digest != "0123456789abcdef" {
		t.Fatalf("digest = %q, want the one SetPlan recorded", q.Digest)
	}
	if q.Progress < 0.49 || q.Progress > 0.51 {
		t.Fatalf("progress = %v, want ~0.5", q.Progress)
	}
	e.Finish(oneCell("x"))
	if len(r.Running()) != 0 {
		t.Fatal("job still listed after Finish")
	}
	if ctx.Err() == nil {
		t.Fatal("a retired job's context is not released")
	}
	st := r.Stats()
	if st.Started != 1 || st.Finished != 1 || st.InFlight != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRunningTruncatesSQL(t *testing.T) {
	r := &Table{}
	long := strings.Repeat("SELECT ", 100)
	e := r.Create(context.Background(), "bob", long, 1, "")
	defer e.Fail(errors.New("test over"))
	snap := r.Running()
	if snap[0].ID != e.ID {
		t.Fatalf("id = %q, want %s", snap[0].ID, e.ID)
	}
	if len(snap[0].SQL) > 410 {
		t.Fatalf("SQL not truncated: %d chars", len(snap[0].SQL))
	}
	if snap[0].Progress != -1 {
		t.Fatalf("progress without plan = %v, want -1", snap[0].Progress)
	}
}

// TestRunningTruncatesOnRuneBoundary: a multi-byte character straddling the
// cut is dropped whole, not split into invalid UTF-8.
func TestRunningTruncatesOnRuneBoundary(t *testing.T) {
	r := &Table{}
	sql := strings.Repeat("x", maxSQLSnippet-1) + "é" + strings.Repeat("y", 10)
	e := r.Create(context.Background(), "bob", sql, 1, "")
	defer e.Fail(errors.New("test over"))
	got := r.Running()[0].SQL
	if want := strings.Repeat("x", maxSQLSnippet-1) + "…"; got != want {
		t.Fatalf("truncated SQL = %q…%q (%d bytes), want the 399 ASCII bytes and an ellipsis",
			got[:10], got[len(got)-8:], len(got))
	}
	if !utf8.ValidString(got) {
		t.Fatal("truncated SQL is not valid UTF-8")
	}
}

// TestRunningOrder: the listing is ordered by start time, then by sequence
// number — not by the RFC 3339 text of the start, which trims trailing
// zeros, and not by the id text, where q-10 sorts before q-9.
func TestRunningOrder(t *testing.T) {
	r := &Table{}
	var js []*Job
	for i := 0; i < 10; i++ {
		js = append(js, r.Create(context.Background(), "alice", "SELECT 1", 1, ""))
	}
	for _, j := range js[:7] {
		j.Finish(oneCell("x"))
	}
	sec := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	ids := func() string {
		var out []string
		for _, q := range r.Running() {
			out = append(out, q.ID)
		}
		return strings.Join(out, " ")
	}
	// q-8 on the whole second ("…05Z"), q-9 150 ms past it ("…05.15Z"),
	// q-10 100 ms past it ("…05.1Z").
	js[7].live.start, js[8].live.start, js[9].live.start = sec, sec.Add(150*time.Millisecond), sec.Add(100*time.Millisecond)
	if got := ids(); got != "q-8 q-10 q-9" {
		t.Fatalf("order by start = %s, want q-8 q-10 q-9", got)
	}
	js[7].live.start, js[8].live.start, js[9].live.start = sec, sec, sec
	if got := ids(); got != "q-8 q-9 q-10" {
		t.Fatalf("order on equal starts = %s, want q-8 q-9 q-10", got)
	}
	for _, j := range js[7:] {
		j.Finish(oneCell("x"))
	}
}

func TestKillUnknownID(t *testing.T) {
	r := &Table{}
	if err := r.Kill("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestKillCancelsWithCause(t *testing.T) {
	r := &Table{}
	e := r.Create(context.Background(), "u", "SELECT 1", 1, "")
	ctx := e.Context()
	if err := r.Kill(e.ID); err != nil {
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
	snap := r.Running()
	if len(snap) != 1 || !snap[0].Killed {
		t.Fatalf("killed query should stay listed until it unwinds: %+v", snap)
	}
	e.Fail(context.Cause(ctx))
	st := r.Stats()
	if st.Killed != 1 {
		t.Fatalf("killed count = %d", st.Killed)
	}
	if err := r.Kill(e.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("kill after the job ended: %v, want ErrNotFound", err)
	}
}

// TestKilledJobDoesNotFinish: a kill that lands after the execution's last
// cancellation check still ends the job killed, not done.
func TestKilledJobDoesNotFinish(t *testing.T) {
	r := &Table{}
	e := r.Create(context.Background(), "u", "SELECT 1", 1, "")
	if err := r.Kill(e.ID); err != nil {
		t.Fatal(err)
	}
	e.Finish(oneCell("late"))
	if code, body := poll(t, r, context.Background(), e.ID, "u", ""); code != 200 || body["status"] != Killed {
		t.Fatalf("killed job that finished: %d %v, want killed", code, body)
	}
}

func TestNilJobSafe(t *testing.T) {
	var e *Job
	e.SetPhase(history.PhaseParse)
	e.SetPlan("d", 1)
	if e.Progress() != nil {
		t.Fatal("nil job accessors should return zero values")
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
	r := &Table{}
	e := r.Create(context.Background(), "u", "big join", 4, "")
	e.SetPhase(history.PhaseExecute)

	errCh := make(chan error, 1)
	go func() {
		_, err := plan.Execute(&engine.ExecContext{
			Ctx:      e.Context(),
			DOP:      4,
			Progress: e.Progress(),
		})
		if err != nil {
			e.Fail(err)
		} else {
			e.Finish(&engine.Result{})
		}
		errCh <- err
	}()

	// Wait until the execution is demonstrably in flight, then kill it.
	deadline := time.Now().Add(5 * time.Second)
	for e.Progress().Rows.Load() == 0 && e.Progress().Bytes.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
	}
	if err := r.Kill(e.ID); err != nil {
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

	if len(r.Running()) != 0 {
		t.Fatal("table lists a job after the execution unwound")
	}
}

func BenchmarkCreateFinish(b *testing.B) {
	r := &Table{}
	res := oneCell("x")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := r.Create(context.Background(), "u", "SELECT 1", 1, "")
		e.SetPhase(history.PhaseParse)
		e.SetPhase(history.PhaseAuthorize)
		e.SetPhase(history.PhaseCacheProbe)
		e.SetPhase(history.PhasePlanCompile)
		e.SetPlan("0123456789abcdef", 10)
		e.SetPhase(history.PhaseExecute)
		e.Finish(res)
	}
}
