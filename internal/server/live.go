package server

import (
	"fmt"
	"net/http"
	"runtime"
	"time"

	"sqlshare/internal/engine"
	"sqlshare/internal/obs"
)

// This file is the live-operations surface: what is running right now
// (GET /api/queries/running), the kill switch (DELETE
// /api/queries/{id}/kill), deep health (GET /api/health) and the
// sqlshare_overload_* gauges, all read from the one job table. Like the
// /api/admin endpoints, these are operator tools, not user features, so they
// carry no user check — the listing exposes every user's in-flight SQL by
// design (the DBA view).

// overloadQueueFactor: the job queue is "deep" — and health flips to
// "busy" — once more than this many jobs per core are in flight.
const overloadQueueFactor = 4

// registerOverloadGauges wires the scrape-time overload signals into the
// server's registry. Each reads live state at scrape: the running count
// (sqlshare_job_queue_depth, the job table's one in-flight count) and pool
// occupancy say whether the box is saturated right now, in-flight memory
// says how close concurrent queries are to the budget, and the worst
// per-template p99 says whether a workload shape has gone pathological.
func (s *Server) registerOverloadGauges() {
	r := s.metrics.Registry
	r.NewGaugeFunc("sqlshare_job_queue_depth", "Asynchronous queries currently running.",
		func() float64 { return float64(s.jobs.Stats().InFlight) })
	r.NewGaugeFunc("sqlshare_overload_pool_occupancy",
		"Fraction of the shared worker pool budget currently busy (can exceed 1 briefly).",
		func() float64 { return float64(engine.PoolBusy()) / float64(runtime.GOMAXPROCS(0)) })
	r.NewGaugeFunc("sqlshare_parallel_workers_busy",
		"Workers currently running parallel operator tasks, across all queries.",
		func() float64 { return float64(engine.WorkersBusy()) })
	r.NewGaugeFunc("sqlshare_overload_inflight_mem_bytes",
		"Aggregate reserved working-state bytes across in-flight queries.",
		func() float64 { return float64(s.jobs.Stats().MemBytes) })
	r.NewGaugeFunc("sqlshare_overload_template_p99_seconds",
		"Worst per-plan-template p99 runtime observed by the history analyzer.",
		// The history is looked up at scrape time: ConfigureHistory may swap
		// it after New().
		func() float64 { return s.History().Analyzer().WorstTemplateP99() })
}

// handleRunningQueries lists every in-flight query: id, user, SQL, plan
// digest, phase, DOP, start time, live progress counters and reserved
// memory — the `sqlshare ps` view.
func (s *Server) handleRunningQueries(w http.ResponseWriter, r *http.Request) {
	running := s.jobs.Running()
	s.writeJSON(w, http.StatusOK, map[string]any{
		"count":   len(running),
		"queries": running,
	})
}

// handleKillQuery cancels a running query through its context: a queued
// query ends before it starts, a running one stops between morsels, the
// worker pool drains, and the query unwinds with jobs.ErrKilled. Once the
// job has ended it is no longer running and the endpoint answers 404.
func (s *Server) handleKillQuery(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.jobs.Kill(id); err != nil { // jobs.ErrNotFound, its only error
		s.writeErr(w, http.StatusNotFound, fmt.Errorf("query %q is not running", id))
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"id": id, "killed": true})
}

// handleHealth is the deep health check: cheap enough to poll, detailed
// enough to page on. "busy" (still HTTP 200 — the server is up) means the
// worker pool is saturated or the job queue is deep; load balancers and
// operators decide what to do with that.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	stats := s.jobs.Stats()
	queueDepth := int64(stats.InFlight)
	busyWorkers := engine.PoolBusy()
	budget := runtime.GOMAXPROCS(0)
	status := "ok"
	if busyWorkers >= int64(budget) || queueDepth > int64(overloadQueueFactor*budget) {
		status = "busy"
	}
	out := map[string]any{
		"status":        status,
		"version":       obs.Version,
		"go":            runtime.Version(),
		"startedAt":     obs.ProcessStart().UTC().Format(time.RFC3339),
		"uptimeSeconds": time.Since(obs.ProcessStart()).Seconds(),
		"queries": map[string]any{
			"running":       stats.InFlight,
			"jobQueueDepth": queueDepth,
			"started":       stats.Started,
			"finished":      stats.Finished,
			"killed":        stats.Killed,
		},
		"memory": map[string]any{
			"inFlightBytes": stats.MemBytes,
			"maxQueryBytes": s.maxBytes,
		},
		"pool": map[string]any{
			"busyWorkers": busyWorkers,
			"budget":      budget,
			"occupancy":   float64(busyWorkers) / float64(budget),
		},
	}
	worst := s.History().Analyzer().TemplateP99s()
	tpl := map[string]any{"count": len(worst)}
	if len(worst) > 0 {
		tpl["worstP99Ms"] = worst[0].P99Ms
		tpl["worstDigest"] = worst[0].Digest
	}
	out["templates"] = tpl
	if s.cache != nil {
		out["cache"] = s.cache.Stats()
	}
	if s.durability != nil {
		out["durability"] = map[string]any{
			"dir":     s.durability.Dir(),
			"lastLSN": s.durability.LastLSN(),
		}
	}
	s.writeJSON(w, http.StatusOK, out)
}
