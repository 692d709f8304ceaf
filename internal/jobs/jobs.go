// Package jobs is the one table of submitted queries behind the
// asynchronous query protocol (paper §3.3: a submitted query gets an
// identifier at once, runs in the background, and the client polls the
// identifier for status and results). A query has one record here from
// submit to retire: while it runs, the record is what /api/queries/running
// lists, what DELETE /api/queries/{id}/kill cancels and what the overload
// gauges count; once it ends, it holds the rendered result the status poll
// answers with. The lifecycle — create, phase and progress, kill, finish,
// fail, the ?wait= long-poll, the status answer and its owner check —
// lives here once, outside engine and catalog.
//
// Only the server creates records. A library caller of catalog.Query runs
// without one: it is not listed, counted or killable, and its memory is
// accounted only against an explicit MaxBytes.
//
// A finished query is kept once, by its record: the result is rendered to
// JSON when the execution ends, and the catalog's log entry of the run
// rides on the record. Finished records are dropped oldest-first past fixed
// bounds; running ones never.
package jobs

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"

	"sqlshare/internal/engine"
	"sqlshare/internal/history"
)

// Retention bounds on finished jobs, per table: past either, the oldest are
// dropped and their ids answer 410 query_expired. The newest is always kept,
// so even a result over the whole byte budget can be polled.
const (
	maxFinished    = 4096
	maxResultBytes = 128 << 20
)

// maxWait caps the ?wait= long-poll, so a client cannot pin a handler
// goroutine indefinitely. A variable only so the test can tighten it.
var maxWait = 30 * time.Second

// ErrKilled is the cancellation cause Table.Kill sets. It surfaces as the
// execution error of the killed query (the engine propagates context
// causes), so a kill is told apart from an ordinary failure with errors.Is.
// Its text is part of a killed job's status answer.
var ErrKilled = errors.New("jobs: query killed")

// ErrNotFound is returned by Kill for an id that is not running.
var ErrNotFound = errors.New("jobs: query not running")

// Job states, as they appear in the status answer. Killed is a job canceled
// through Kill (its execution error carries ErrKilled) rather than failing
// on its own.
const (
	Running = "running"
	Done    = "done"
	Failed  = "failed"
	Killed  = "killed"
)

// Job is one submitted query, from submit to retire.
type Job struct {
	// ID, User, SQL and TraceID are fixed at Create. TraceID, when
	// non-empty, is reported as "traceId" in every status answer.
	ID, User, SQL, TraceID string
	// Record is the catalog's log entry of the run (nil for a job killed
	// while queued); its Cache is the disposition shown once the job has
	// ended. It is the executor's until Finish or Fail, then read-only.
	Record *history.Entry

	t    *Table
	n    int // the id's sequence number
	done chan struct{}
	size int64 // rendered result bytes; guarded by t.mu
	// live is the running query's state; retire drops it (under t.mu), so
	// a retained job pins neither the submitting request's context, its
	// trace among its values, nor the plan the counters point into.
	live *live

	mu      sync.Mutex
	state   string
	err     error
	columns json.RawMessage
	rows    json.RawMessage
}

// live is what a job holds only while it runs: the context the query runs
// under and its kill switch, and what the running-queries listing shows.
type live struct {
	ctx    context.Context
	cancel context.CancelCauseFunc
	start  time.Time
	dop    int
	// The running query publishes into these on its hot path, so they take
	// no lock.
	phase atomic.Int32
	prog  engine.Progress
	// killed is set by Kill; guarded by the table's mu.
	killed bool
	// digest and estRows are set once the plan compiles; guarded by the
	// job's mu.
	digest  string
	estRows float64
}

// Context is the context the query runs under: Kill cancels it with an
// ErrKilled cause. It is the executor's until it calls Finish or Fail.
func (j *Job) Context() context.Context { return j.live.ctx }

// Done is closed when the job has finished, failed or been killed.
func (j *Job) Done() <-chan struct{} { return j.done }

// Progress returns the job's live counters for the engine to publish into
// (nil on a nil job: the execution then counts into its own).
func (j *Job) Progress() *engine.Progress {
	if j == nil {
		return nil
	}
	return &j.live.prog
}

// SetPhase records the phase the query is in: a single atomic store, since
// phase changes happen several times inside a sub-20µs point lookup. No-op
// on a nil job.
func (j *Job) SetPhase(p history.Phase) {
	if j == nil {
		return
	}
	j.live.phase.Store(int32(p))
}

// SetPlan records what compilation learned: the plan digest (the
// workload-analysis clustering key) and the total estimated rows across all
// operators, the denominator of the progress estimate. No-op on a nil job.
func (j *Job) SetPlan(digest string, estRows float64) {
	if j == nil {
		return
	}
	j.mu.Lock()
	j.live.digest, j.live.estRows = digest, estRows
	j.mu.Unlock()
}

// Finish records a successful execution. The result is rendered here, once;
// every later poll writes the same bytes. A job whose context ended first —
// killed after its last operator boundary, say — fails with the cause
// instead: a kill that was answered is never followed by a result.
func (j *Job) Finish(res *engine.Result) {
	if err := context.Cause(j.live.ctx); err != nil {
		j.Fail(err)
		return
	}
	// Marshaling strings cannot fail.
	columns, _ := json.Marshal(res.ColumnNames())
	rows, _ := json.Marshal(res.TextRows(len(res.Rows)))
	j.mu.Lock()
	j.state, j.columns, j.rows = Done, columns, rows
	j.mu.Unlock()
	j.t.retire(j, int64(len(columns)+len(rows)))
}

// Fail records a failed execution; an error carrying ErrKilled makes the
// job killed instead.
func (j *Job) Fail(err error) {
	j.mu.Lock()
	j.state = Failed
	if errors.Is(err, ErrKilled) {
		j.state = Killed
	}
	j.err = err
	j.mu.Unlock()
	j.t.retire(j, 0)
}

// answer is the status response: HTTP status and body.
func (j *Job) answer() (int, map[string]any) {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := map[string]any{"id": j.ID, "status": j.state}
	if j.TraceID != "" {
		out["traceId"] = j.TraceID
	}
	if j.state == Running {
		return http.StatusOK, out
	}
	if j.Record != nil && j.Record.Cache != "" {
		out["cache"] = j.Record.Cache
	}
	if j.state == Done {
		out["columns"], out["rows"] = j.columns, j.rows
		return http.StatusOK, out
	}
	out["error"] = j.err.Error()
	if errors.Is(j.err, engine.ErrRowLimit) || errors.Is(j.err, engine.ErrMemLimit) {
		// A resource-limit abort is the client's to fix (tighten the query),
		// not a server failure.
		return http.StatusUnprocessableEntity, out
	}
	return http.StatusOK, out
}

// idPrefix begins every job id: q-1, q-2, ….
const idPrefix = "q-"

// Table is a set of jobs with ids idPrefix+1, idPrefix+2, …. The zero value
// is ready to use. One mutex guards the ids, the running index, the
// finished queue and the counters.
type Table struct {
	mu       sync.Mutex
	seq      int
	jobs     map[int]*Job // running and retained finished jobs
	running  map[int]*Job
	finished []*Job // retained finished jobs, oldest first
	bytes    int64  // sum of finished[i].size

	// Lifetime counts, for /api/health.
	started, ended, killed int64

	// keepJobs and keepBytes, when set, replace the retention bounds
	// maxFinished and maxResultBytes; tests tighten them.
	keepJobs  int
	keepBytes int64
}

// Create registers a running job: user's sql at dop workers, traced under
// traceID. The job's context derives from ctx and is what Kill cancels, so
// the query is listed, counted and killable from the moment Create returns;
// its phase reads queued until the executor publishes another. The executor
// runs the query under Context and ends the job with Finish or Fail.
func (t *Table) Create(ctx context.Context, user, sql string, dop int, traceID string) *Job {
	cctx, cancel := context.WithCancelCause(ctx)
	j := &Job{
		User:    user,
		SQL:     sql,
		TraceID: traceID,
		t:       t,
		live:    &live{ctx: cctx, cancel: cancel, start: time.Now(), dop: dop},
		done:    make(chan struct{}),
		state:   Running,
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.jobs == nil {
		t.jobs, t.running = map[int]*Job{}, map[int]*Job{}
	}
	t.seq++
	j.n, j.ID = t.seq, idPrefix+strconv.Itoa(t.seq)
	t.jobs[j.n] = j
	t.running[j.n] = j
	t.started++
	return j
}

// retire moves an ended job from the running index to the retained-finished
// queue, drops the oldest finished jobs past the bounds, releases the job's
// context and wakes its waiters.
func (t *Table) retire(j *Job, size int64) {
	t.mu.Lock()
	delete(t.running, j.n)
	cancel := j.live.cancel
	j.live = nil
	t.ended++
	j.size = size
	t.finished = append(t.finished, j)
	t.bytes += size
	keepJobs, keepBytes := maxFinished, int64(maxResultBytes)
	if t.keepJobs > 0 {
		keepJobs, keepBytes = t.keepJobs, t.keepBytes
	}
	for len(t.finished) > 1 && (len(t.finished) > keepJobs || t.bytes > keepBytes) {
		old := t.finished[0]
		t.finished[0] = nil
		t.finished = t.finished[1:]
		t.bytes -= old.size
		delete(t.jobs, old.n)
	}
	t.mu.Unlock()
	cancel(nil)
	close(j.done)
}

// seqOf parses a canonical job id into its sequence number (0 if id is not
// one this table could have issued).
func seqOf(id string) int {
	n, err := strconv.Atoi(strings.TrimPrefix(id, idPrefix))
	if err != nil || n < 1 || idPrefix+strconv.Itoa(n) != id {
		return 0
	}
	return n
}

// Kill cancels the running job id with an ErrKilled cause. The execution
// observes the cancellation at its next operator or morsel boundary (a job
// still queued, before it starts) and ends killed; the job stays listed,
// marked killed, until then. An id that is not running is ErrNotFound.
func (t *Table) Kill(id string) error {
	t.mu.Lock()
	j := t.running[seqOf(id)]
	if j == nil {
		t.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	if !j.live.killed {
		j.live.killed = true
		t.killed++
	}
	cancel := j.live.cancel
	t.mu.Unlock()
	cancel(fmt.Errorf("%w (id %s)", ErrKilled, id))
	return nil
}

// Error is a failed lookup, shaped for the HTTP answer.
type Error struct {
	Status int    // HTTP status
	Code   string // machine-readable: query_unknown, query_expired, query_forbidden
	Msg    string
}

func (e *Error) Error() string { return e.Msg }

// Find resolves id for a request made by user: 404 for an id this table
// never issued, 410 for one whose job aged out, 403 for another user's job.
// Expiry is decided from the sequence number alone, before ownership: there
// is no job left to own.
func (t *Table) Find(id, user string) (*Job, *Error) {
	n := seqOf(id)
	t.mu.Lock()
	j, issued := t.jobs[n], n >= 1 && n <= t.seq
	t.mu.Unlock()
	switch {
	case j == nil && issued:
		return nil, &Error{http.StatusGone, "query_expired",
			fmt.Sprintf("query %q finished and is no longer retained", id)}
	case j == nil:
		return nil, &Error{http.StatusNotFound, "query_unknown", fmt.Sprintf("query %q not found", id)}
	case j.User != user:
		return nil, &Error{http.StatusForbidden, "query_forbidden",
			fmt.Sprintf("query %q belongs to another user", id)}
	}
	return j, nil
}

// ServeStatus answers a status poll for id made by user: running jobs
// report their state, ended jobs their result or error. ?wait=<dur> first
// blocks until the job ends, the bounded wait elapses or the client goes
// away, so one long-poll replaces a polling loop with the same answer.
func (t *Table) ServeStatus(w http.ResponseWriter, r *http.Request, id, user string) {
	j, jerr := t.Find(id, user)
	if jerr != nil {
		writeJSON(w, jerr.Status, map[string]string{"error": jerr.Msg, "code": jerr.Code})
		return
	}
	if ws := r.URL.Query().Get("wait"); ws != "" {
		d, err := time.ParseDuration(ws)
		if err != nil || d < 0 {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": fmt.Sprintf("invalid wait duration %q", ws)})
			return
		}
		if d > maxWait {
			d = maxWait
		}
		timer := time.NewTimer(d)
		select {
		case <-j.done:
		case <-timer.C:
		case <-r.Context().Done():
		}
		timer.Stop()
	}
	status, out := j.answer()
	writeJSON(w, status, out)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v) // an error here is a client that went away
}

// QueryInfo is one running query's externally visible state, shaped for
// the /api/queries/running JSON payload.
type QueryInfo struct {
	ID        string  `json:"id"`
	User      string  `json:"user"`
	SQL       string  `json:"sql"`
	Digest    string  `json:"digest,omitempty"`
	Phase     string  `json:"phase"`
	DOP       int     `json:"dop"`
	StartedAt string  `json:"startedAt"`
	ElapsedMs float64 `json:"elapsedMs"`
	Operator  string  `json:"operator,omitempty"`
	Rows      int64   `json:"rows"`
	Bytes     int64   `json:"bytes"`
	MemBytes  int64   `json:"memBytes"`
	MemPeak   int64   `json:"memPeakBytes"`
	// Progress approximates completion as actual rows materialized over the
	// planner's total row estimate, clamped to [0,1]; -1 when no estimate
	// is available (plan not compiled yet).
	Progress float64 `json:"progress"`
	Killed   bool    `json:"killed"`
}

// maxSQLSnippet bounds the SQL echoed in the listing; ad-hoc science
// queries run long (§5), and the listing is for identification, not
// archival.
const maxSQLSnippet = 400

// Running lists the running jobs, oldest start first, ties broken by id.
func (t *Table) Running() []QueryInfo {
	t.mu.Lock()
	defer t.mu.Unlock()
	running := make([]*Job, 0, len(t.running))
	for _, j := range t.running {
		running = append(running, j)
	}
	slices.SortFunc(running, func(a, b *Job) int {
		if c := a.live.start.Compare(b.live.start); c != 0 {
			return c
		}
		return cmp.Compare(a.n, b.n)
	})
	now := time.Now()
	infos := make([]QueryInfo, len(running))
	for i, j := range running {
		infos[i] = j.info(now)
	}
	return infos
}

// info renders a running job; t.mu is held, so its live state is there.
func (j *Job) info(now time.Time) QueryInfo {
	l := j.live
	j.mu.Lock()
	digest, estRows := l.digest, l.estRows
	j.mu.Unlock()
	sql := j.SQL
	if len(sql) > maxSQLSnippet {
		cut := maxSQLSnippet
		for cut > 0 && !utf8.RuneStart(sql[cut]) {
			cut--
		}
		sql = sql[:cut] + "…"
	}
	rows := l.prog.Rows.Load()
	progress := -1.0
	if estRows > 0 {
		progress = min(float64(rows)/estRows, 1)
	}
	return QueryInfo{
		ID:        j.ID,
		User:      j.User,
		SQL:       sql,
		Digest:    digest,
		Phase:     history.Phase(l.phase.Load()).String(),
		DOP:       l.dop,
		StartedAt: l.start.UTC().Format(time.RFC3339Nano),
		ElapsedMs: float64(now.Sub(l.start)) / float64(time.Millisecond),
		Operator:  l.prog.CurrentOp(),
		Rows:      rows,
		Bytes:     l.prog.Bytes.Load(),
		MemBytes:  l.prog.Mem.Load(),
		MemPeak:   l.prog.MemPeak.Load(),
		Progress:  progress,
		Killed:    l.killed,
	}
}

// Stats summarizes the table for the overload gauges and /api/health.
type Stats struct {
	// InFlight is the number of running jobs.
	InFlight int
	// MemBytes is the aggregate reserved-memory estimate of running jobs.
	MemBytes int64
	// Started, Finished and Killed are lifetime counts.
	Started  int64
	Finished int64
	Killed   int64
}

// Stats returns the table's aggregate view.
func (t *Table) Stats() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := Stats{InFlight: len(t.running), Started: t.started, Finished: t.ended, Killed: t.killed}
	for _, j := range t.running {
		st.MemBytes += j.live.prog.Mem.Load()
	}
	return st
}
