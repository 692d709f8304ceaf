// Package jobs is the one job table behind the asynchronous query protocol
// (paper §3.3: a submitted query gets an identifier at once, runs in the
// background, and the client polls the identifier for status and results).
// The REST server and the cluster router both run queries this way, so the
// lifecycle — create, finish, fail, kill, the ?wait= long-poll, the status
// answer and its owner check — lives here once, outside engine and catalog.
//
// A finished query is kept once, by its job: the result is rendered to JSON
// when the execution ends, and the executor's own record of the run rides
// on the job. Finished jobs are dropped oldest-first past fixed bounds;
// running jobs never.
package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"sqlshare/internal/engine"
	"sqlshare/internal/ops"
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

// Job states, as they appear in the status answer. Killed is a job canceled
// through a kill switch (its execution error carries ops.ErrKilled) rather
// than failing on its own.
const (
	Running = "running"
	Done    = "done"
	Failed  = "failed"
	Killed  = "killed"
)

// Job is one submitted query.
type Job struct {
	// ID, User and TraceID are fixed at Create. TraceID, when non-empty, is
	// reported as "traceId" in every status answer.
	ID, User, TraceID string
	// Cache (the cache disposition shown once the job has ended) and Record
	// (whatever the executor keeps of the run) belong to the executor until
	// it calls Finish or Fail; afterwards they are read-only.
	Cache  string
	Record any

	t      *Table
	n      int                     // the id's sequence number
	cancel context.CancelCauseFunc // nil when the executor has its own kill path
	done   chan struct{}
	size   int64 // rendered result bytes; guarded by t.mu

	mu      sync.Mutex
	state   string
	err     error
	columns json.RawMessage
	rows    json.RawMessage
}

// Done is closed when the job has finished, failed or been killed.
func (j *Job) Done() <-chan struct{} { return j.done }

// Finish records a successful execution. The result is rendered here, once;
// every later poll writes the same bytes.
func (j *Job) Finish(res *engine.Result) {
	// Marshaling strings cannot fail.
	columns, _ := json.Marshal(res.ColumnNames())
	rows, _ := json.Marshal(res.TextRows(len(res.Rows)))
	j.mu.Lock()
	j.state, j.columns, j.rows = Done, columns, rows
	j.mu.Unlock()
	j.t.retire(j, int64(len(columns)+len(rows)))
}

// Fail records a failed execution; an error carrying ops.ErrKilled makes
// the job killed instead.
func (j *Job) Fail(err error) {
	j.mu.Lock()
	j.state = Failed
	if errors.Is(err, ops.ErrKilled) {
		j.state = Killed
	}
	j.err = err
	j.mu.Unlock()
	j.t.retire(j, 0)
}

// answer is the status response: HTTP status and body.
func (j *Job) answer(mode string) (int, map[string]any) {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := map[string]any{"id": j.ID, "status": j.state}
	if j.TraceID != "" {
		out["traceId"] = j.TraceID
	}
	if mode != "" {
		out["mode"] = mode
	}
	if j.state == Running {
		return http.StatusOK, out
	}
	if j.Cache != "" {
		out["cache"] = j.Cache
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

// Table is a set of jobs with ids Prefix+1, Prefix+2, … ("s0-q-17": a router
// tells tables apart by prefix). Mode, when set, is reported as "mode" in
// every status answer. Set both before use; the zero value is otherwise ready.
type Table struct {
	Prefix, Mode string

	mu       sync.Mutex
	seq      int
	jobs     map[int]*Job
	finished []*Job // retained finished jobs, oldest first
	bytes    int64  // sum of finished[i].size
}

// Create registers a running job owned by user. cancel, when non-nil, is
// what Kill calls; executors with their own kill switch pass nil.
func (t *Table) Create(user, traceID string, cancel context.CancelCauseFunc) *Job {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.jobs == nil {
		t.jobs = map[int]*Job{}
	}
	t.seq++
	j := &Job{
		ID:      t.Prefix + strconv.Itoa(t.seq),
		User:    user,
		TraceID: traceID,
		t:       t,
		n:       t.seq,
		cancel:  cancel,
		done:    make(chan struct{}),
		state:   Running,
	}
	t.jobs[j.n] = j
	return j
}

// retire moves an ended job to the retained-finished queue, drops the oldest
// finished jobs past the bounds, and wakes the job's waiters.
func (t *Table) retire(j *Job, size int64) {
	t.mu.Lock()
	j.size = size
	t.finished = append(t.finished, j)
	t.bytes += size
	for len(t.finished) > 1 && (len(t.finished) > maxFinished || t.bytes > maxResultBytes) {
		old := t.finished[0]
		t.finished[0] = nil
		t.finished = t.finished[1:]
		t.bytes -= old.size
		delete(t.jobs, old.n)
	}
	t.mu.Unlock()
	close(j.done)
}

// lookup resolves an id. expired reports an id this table issued whose job
// has since been dropped — decided from the sequence number alone.
func (t *Table) lookup(id string) (j *Job, expired bool) {
	n, err := strconv.Atoi(strings.TrimPrefix(id, t.Prefix))
	if err != nil || t.Prefix+strconv.Itoa(n) != id {
		return nil, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	j = t.jobs[n]
	return j, j == nil && n >= 1 && n <= t.seq
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
func (t *Table) Find(id, user string) (*Job, *Error) {
	j, expired := t.lookup(id)
	switch {
	case expired:
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

// Kill cancels the running job id with an ops.ErrKilled cause; the
// executor's Fail then records it as killed. It reports false when id is
// not a running job of this table that was created with a cancel func.
func (t *Table) Kill(id string) bool {
	j, _ := t.lookup(id)
	if j == nil || j.cancel == nil {
		return false
	}
	j.mu.Lock()
	running := j.state == Running
	j.mu.Unlock()
	if running {
		j.cancel(fmt.Errorf("%w (id %s)", ops.ErrKilled, id))
	}
	return running
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
	status, out := j.answer(t.Mode)
	writeJSON(w, status, out)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v) // an error here is a client that went away
}
