package server

import (
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"sqlshare/internal/engine"
	"sqlshare/internal/obs"
	"sqlshare/internal/ops"
)

// This file is the live-operations surface: what is running right now
// (GET /api/queries/running), the kill switch (DELETE
// /api/queries/{id}/kill), deep health (GET /api/health) and the
// sqlshare_overload_* gauges. Like the /api/admin endpoints, these are
// operator tools, not user features, so they carry no user check — the
// snapshot exposes every user's in-flight SQL by design (the DBA view).

// overloadQueueFactor: the job queue is "deep" — and health flips to
// "busy" — once more than this many jobs per core are in flight.
const overloadQueueFactor = 4

// registerOverloadGauges wires the scrape-time overload signals into the
// server's registry. Each reads live state at scrape: queue depth and pool
// occupancy say whether the box is saturated right now, in-flight memory
// says how close concurrent queries are to the budget, and the worst
// per-template p99 says whether a workload shape has gone pathological.
func (s *Server) registerOverloadGauges() {
	r := s.metrics.Registry
	r.NewGaugeFunc("sqlshare_overload_job_queue_depth",
		"Asynchronous queries submitted but not yet finished.",
		func() float64 { return float64(s.metrics.JobQueueDepth.Value()) })
	r.NewGaugeFunc("sqlshare_overload_pool_occupancy",
		"Fraction of the shared worker pool budget currently busy (can exceed 1 briefly).",
		func() float64 { return float64(engine.PoolBusy()) / float64(runtime.GOMAXPROCS(0)) })
	r.NewGaugeFunc("sqlshare_overload_inflight_queries",
		"Queries registered in the live-operations registry right now.",
		func() float64 { return float64(s.ops.Stats().InFlight) })
	r.NewGaugeFunc("sqlshare_overload_inflight_mem_bytes",
		"Aggregate reserved working-state bytes across in-flight queries.",
		func() float64 { return float64(s.ops.Stats().MemBytes) })
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
	snap := s.ops.Snapshot()
	s.writeJSON(w, http.StatusOK, map[string]any{
		"count":   len(snap),
		"queries": snap,
	})
}

// handleKillQuery cancels an in-flight query through its context: morsel
// dispatch stops between morsels, the worker pool drains, and the query
// unwinds with ops.ErrKilled. Killing is idempotent-ish: once the query
// has unwound it is no longer in the registry and the endpoint answers
// 404.
func (s *Server) handleKillQuery(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.ops.Kill(id); err != nil {
		if errors.Is(err, ops.ErrNotFound) {
			s.writeErr(w, http.StatusNotFound, fmt.Errorf("query %q is not running", id))
			return
		}
		s.writeErr(w, http.StatusInternalServerError, err)
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"id": id, "killed": true})
}

// handleHealth is the deep health check: cheap enough to poll, detailed
// enough to page on. "busy" (still HTTP 200 — the server is up) means the
// worker pool is saturated or the job queue is deep; load balancers and
// operators decide what to do with that.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	stats := s.ops.Stats()
	queueDepth := s.metrics.JobQueueDepth.Value()
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
	cl := map[string]any{"role": s.Role()}
	if s.nodeName != "" {
		cl["node"] = s.nodeName
	}
	if f := s.follower; f != nil {
		cl["appliedLSN"] = f.AppliedLSN()
	}
	if src := s.replSource; src != nil {
		cl["followers"] = len(src.Followers())
	}
	if epoch, _ := s.cat.ShardMap(); epoch > 0 {
		cl["shardMapEpoch"] = epoch
	}
	out["cluster"] = cl
	s.writeJSON(w, http.StatusOK, out)
}
