package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"

	"sqlshare/internal/catalog"
	"sqlshare/internal/jobs"
	"sqlshare/internal/obs"
)

// handleSubmitQuery implements the asynchronous protocol: the request is
// assigned an identifier, execution proceeds in the background, and the
// identifier is returned immediately for the client to poll.
func (s *Server) handleSubmitQuery(w http.ResponseWriter, r *http.Request) {
	user, err := s.user(r)
	if err != nil {
		s.writeErr(w, http.StatusUnauthorized, err)
		return
	}
	var req struct {
		SQL string `json:"sql"`
		// Parallelism optionally overrides the server's default worker cap
		// for this query: 1 = serial, N>1 = at most N workers. Results are
		// identical at every setting; only latency changes.
		Parallelism int `json:"parallelism"`
		// NoCache forces execution even when the server runs a result
		// cache. Results are identical either way — the flag is for
		// measurement, not correctness.
		NoCache bool `json:"no_cache"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.SQL == "" {
		s.writeErr(w, http.StatusBadRequest, fmt.Errorf("sql is required"))
		return
	}
	if req.Parallelism < 0 {
		s.writeErr(w, http.StatusBadRequest, fmt.Errorf("parallelism must be >= 0"))
		return
	}
	j := s.startJob(r, user, req.SQL, req.Parallelism, req.NoCache)
	out := map[string]string{"id": j.ID, "status": jobs.Running}
	if j.TraceID != "" {
		out["traceId"] = j.TraceID
	}
	s.writeJSON(w, http.StatusAccepted, out)
}

// startJob registers a job for user's query and launches it in the
// background. The execution outlives the submitting HTTP request, so its
// context detaches the request's cancellation but keeps the request's trace,
// and the trace is held open (RetainTrace) until the query finishes — the
// submit POST and the execution appear as one causally-linked span tree.
// dop is the per-query worker cap (0 = server default).
func (s *Server) startJob(r *http.Request, user, sql string, dop int, noCache bool) *jobs.Job {
	if dop == 0 {
		dop = s.parallelism
	}
	if dop == 0 {
		dop = runtime.GOMAXPROCS(0)
	}
	ctx := context.WithoutCancel(r.Context())
	j := s.jobs.Create(ctx, user, sql, dop, obs.TraceIDFromContext(ctx))
	go s.runJob(j, obs.RetainTrace(ctx), catalog.QueryOptions{
		MaxRows:     s.maxRows,
		MaxBytes:    s.maxBytes,
		Parallelism: dop,
		NoCache:     noCache,
		Job:         j,
	})
	return j
}

// runJob executes a submitted query and records its outcome on the job,
// together with the log entry the catalog made for it — the job's /plan and
// /trace are read from that entry. Every run builds its per-operator trace,
// which backs the /trace endpoint, mirroring the SHOWPLAN telemetry the
// paper's study ran on. A job killed while still queued ends killed without
// running.
func (s *Server) runJob(j *jobs.Job, release func(), opts catalog.QueryOptions) {
	defer release()
	if err := context.Cause(j.Context()); err != nil {
		j.Fail(err)
		return
	}
	var span *obs.Span
	opts.Context, span = obs.StartSpan(j.Context(), "query.job")
	span.SetAttr("job", j.ID)
	res, entry, err := s.cat.QueryWithOptions(j.User, j.SQL, opts)
	span.EndErr(err)
	j.Record = entry
	if err != nil {
		j.Fail(err)
		return
	}
	j.Finish(res)
}

// handleQueryStatus is the polling endpoint: running jobs report status,
// finished jobs return the full result.
func (s *Server) handleQueryStatus(w http.ResponseWriter, r *http.Request) {
	user, err := s.user(r)
	if err != nil {
		s.writeErr(w, http.StatusUnauthorized, err)
		return
	}
	s.jobs.ServeStatus(w, r, r.PathValue("id"), user)
}

// endedJob resolves the request's job for its owner and waits for it to
// end, returning the log entry of its run (nil if none was recorded). It
// reports false after writing the error response.
func (s *Server) endedJob(w http.ResponseWriter, r *http.Request) (*jobs.Job, *catalog.LogEntry, bool) {
	user, err := s.user(r)
	if err != nil {
		s.writeErr(w, http.StatusUnauthorized, err)
		return nil, nil, false
	}
	j, jerr := s.jobs.Find(r.PathValue("id"), user)
	if jerr != nil {
		s.writeErrCode(w, jerr.Status, jerr.Code, jerr)
		return nil, nil, false
	}
	<-j.Done()
	return j, j.Record, true
}

// handleQueryPlan returns the extracted JSON plan for a submitted query —
// the per-query artifact the workload analysis consumes (§4).
func (s *Server) handleQueryPlan(w http.ResponseWriter, r *http.Request) {
	j, entry, ok := s.endedJob(w, r)
	if !ok {
		return
	}
	if entry == nil || entry.Plan == nil {
		s.writeErr(w, http.StatusNotFound, fmt.Errorf("no plan recorded for %q", j.ID))
		return
	}
	s.writeJSON(w, http.StatusOK, entry.Plan)
}

// handleQueryTrace returns the executed plan tree of a completed query: each
// operator's estimates beside its `actual` block (rows, executions, wall
// time, output bytes) — the RunTimeInformation the paper's §4 telemetry
// pipeline consumed from SHOWPLAN XML, on the same nodes as /plan's.
func (s *Server) handleQueryTrace(w http.ResponseWriter, r *http.Request) {
	j, entry, ok := s.endedJob(w, r)
	if !ok {
		return
	}
	if entry != nil && entry.Plan.Executed() {
		s.writeJSON(w, http.StatusOK, map[string]any{"id": j.ID, "trace": entry.Plan.Root, "cache": entry.Cache})
		return
	}
	// Both remaining cases are 404, but a client must tell them apart:
	// served_from_cache means re-submit with no_cache to get a trace;
	// trace_missing covers failed compiles and similar.
	if entry != nil && entry.Cache == catalog.CacheHit {
		s.writeErrCode(w, http.StatusNotFound, "served_from_cache",
			fmt.Errorf("no trace recorded for %q: result served from cache", j.ID))
		return
	}
	s.writeErrCode(w, http.StatusNotFound, "trace_missing",
		fmt.Errorf("no trace recorded for %q", j.ID))
}
